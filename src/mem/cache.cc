#include "mem/cache.hh"

#include "common/log.hh"
#include "common/state_codec.hh"

namespace stems {

namespace {

std::size_t
checkedBlocks(const std::string &name, std::size_t size_bytes,
              std::size_t ways)
{
    if (ways == 0 || size_bytes == 0)
        fatal("cache " + name + ": zero size or associativity");
    std::size_t blocks = size_bytes / kBlockBytes;
    if (blocks % ways != 0)
        fatal("cache " + name + ": size not divisible by ways");
    return blocks;
}

} // namespace

Cache::Cache(std::string name, std::size_t size_bytes, std::size_t ways)
    : name_(std::move(name)),
      lines_(checkedBlocks(name_, size_bytes, ways), ways)
{
}

Cache::Lookup
Cache::lookup(Addr a)
{
    ++accesses_;
    std::uint8_t *flags = lines_.find(blockNumber(a));
    if (!flags) {
        ++misses_;
        return Lookup::kMiss;
    }
    bool covered = *flags == kPrefetched;
    *flags |= kReferenced;
    return covered ? Lookup::kPrefetchHit : Lookup::kHit;
}

bool
Cache::contains(Addr a) const
{
    return lines_.peek(blockNumber(a)) != nullptr;
}

std::optional<Cache::Victim>
Cache::insert(Addr a, bool prefetched)
{
    // A refill of a resident block refreshes its recency only.
    std::optional<Victim> displaced;
    auto slot = lines_.emplace(
        blockNumber(a), [&](std::uint64_t block, std::uint8_t flags) {
            displaced = Victim{block << kBlockShift,
                               (flags & kPrefetched) != 0,
                               (flags & kReferenced) != 0};
        });
    if (slot.inserted)
        slot.value = prefetched ? kPrefetched : 0;
    return displaced;
}

std::optional<Cache::Victim>
Cache::invalidate(Addr a)
{
    const std::uint8_t *flags = lines_.peek(blockNumber(a));
    if (!flags)
        return std::nullopt;
    Victim v{blockAlign(a), (*flags & kPrefetched) != 0,
             (*flags & kReferenced) != 0};
    lines_.erase(blockNumber(a));
    return v;
}

std::size_t
Cache::unreferencedPrefetches() const
{
    std::size_t n = 0;
    lines_.forEach([&n](std::uint64_t, std::uint8_t flags) {
        n += flags == kPrefetched;
    });
    return n;
}

namespace {
constexpr std::uint32_t kCacheTag = stateTag('C', 'A', 'C', 'H');
} // namespace

void
Cache::saveState(StateWriter &w) const
{
    w.tag(kCacheTag);
    w.u64(lines_.sets());
    w.u64(lines_.ways());
    w.u64(lines_.clock());
    w.u64(accesses_);
    w.u64(misses_);
    // Line positions within a set decide future victim scans, so
    // every line is written positionally, invalid ones included.
    lines_.saveSlots(w, [](StateWriter &out, std::uint8_t flags) {
        out.boolean(flags & kPrefetched);
        out.boolean(flags & kReferenced);
    });
}

bool
Cache::stateEquals(const Cache &other) const
{
    return accesses_ == other.accesses_ && misses_ == other.misses_ &&
           lines_.stateEquals(other.lines_,
                              [](std::uint8_t a, std::uint8_t b) {
                                  return ((a ^ b) &
                                          (kPrefetched | kReferenced)) ==
                                         0;
                              });
}

void
Cache::loadState(StateReader &r)
{
    r.tag(kCacheTag);
    if (r.u64() != lines_.sets() || r.u64() != lines_.ways()) {
        r.fail();
        return;
    }
    std::uint64_t clock = r.u64();
    accesses_ = r.u64();
    misses_ = r.u64();
    lines_.loadSlots(r, clock, [](StateReader &in, std::uint8_t &flags) {
        flags = in.boolean() ? kPrefetched : 0;
        if (in.boolean())
            flags |= kReferenced;
    });
}

} // namespace stems
