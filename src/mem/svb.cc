#include "mem/svb.hh"

#include "common/log.hh"
#include "common/state_codec.hh"

namespace stems {

StreamedValueBuffer::StreamedValueBuffer(std::size_t capacity)
    : addr_(capacity, kFreeAddr),
      lru_(capacity, 0),
      streamId_(capacity, -1),
      readyTime_(capacity, 0)
{
    if (capacity == 0)
        fatal("SVB capacity must be > 0");
}

std::size_t
StreamedValueBuffer::find(Addr key) const
{
    for (std::size_t i = 0; i < addr_.size(); ++i)
        if (addr_[i] == key)
            return i;
    return kNone;
}

StreamedValueBuffer::Entry
StreamedValueBuffer::release(std::size_t i)
{
    Entry e{addr_[i], streamId_[i], readyTime_[i]};
    addr_[i] = kFreeAddr;
    lru_[i] = 0;
    return e;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::insert(const Entry &e)
{
    // One pass finds a resident copy or the victim: a free slot's
    // stamp 0 is older than any live one, so the strict-< running
    // minimum picks the first free slot, else the first-index LRU.
    const Addr key = blockAlign(e.addr);
    std::size_t slot = 0;
    std::uint64_t slot_stamp = lru_[0];
    bool resident = false;
    for (std::size_t i = 0; i < lru_.size(); ++i) {
        std::uint64_t stamp = lru_[i];
        if (addr_[i] == key) {
            slot = i;
            resident = true;
            break;
        }
        bool older = stamp < slot_stamp;
        slot = older ? i : slot;
        slot_stamp = older ? stamp : slot_stamp;
    }

    std::optional<Entry> displaced;
    if (!resident && lru_[slot])
        displaced = Entry{addr_[slot], streamId_[slot], readyTime_[slot]};
    addr_[slot] = key;
    streamId_[slot] = e.streamId;
    readyTime_[slot] = e.readyTime;
    lru_[slot] = ++clock_;
    return displaced;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consume(Addr a)
{
    std::size_t i = find(blockAlign(a));
    if (i == kNone)
        return std::nullopt;
    return release(i);
}

bool
StreamedValueBuffer::contains(Addr a) const
{
    return find(blockAlign(a)) != kNone;
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::invalidate(Addr a)
{
    return consume(a);
}

std::optional<StreamedValueBuffer::Entry>
StreamedValueBuffer::consumeAny()
{
    for (std::size_t i = 0; i < lru_.size(); ++i)
        if (lru_[i])
            return release(i);
    return std::nullopt;
}

std::size_t
StreamedValueBuffer::occupancy() const
{
    std::size_t n = 0;
    for (std::uint64_t stamp : lru_)
        n += stamp != 0;
    return n;
}

std::size_t
StreamedValueBuffer::occupancyForStream(int stream_id) const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < lru_.size(); ++i)
        n += lru_[i] && streamId_[i] == stream_id;
    return n;
}

namespace {
constexpr std::uint32_t kSvbTag = stateTag('S', 'V', 'B', '1');
} // namespace

void
StreamedValueBuffer::saveState(StateWriter &w) const
{
    w.tag(kSvbTag);
    w.u64(lru_.size());
    w.u64(clock_);
    // Slot order decides consumeAny()'s drain order: positional.
    for (std::size_t i = 0; i < lru_.size(); ++i) {
        w.boolean(lru_[i] != 0);
        if (!lru_[i])
            continue;
        w.u64(lru_[i]);
        w.u64(addr_[i]);
        w.i64(streamId_[i]);
        w.u64(readyTime_[i]);
    }
}

void
StreamedValueBuffer::loadState(StateReader &r)
{
    r.tag(kSvbTag);
    if (r.u64() != lru_.size()) {
        r.fail();
        return;
    }
    clock_ = r.u64();
    for (std::size_t i = 0; i < lru_.size(); ++i) {
        lru_[i] = 0;
        addr_[i] = kFreeAddr;
        streamId_[i] = -1;
        readyTime_[i] = 0;
        if (!r.boolean())
            continue;
        std::uint64_t stamp = r.u64();
        Addr addr = r.u64();
        streamId_[i] = static_cast<int>(r.i64());
        readyTime_[i] = r.u64();
        if (stamp == 0 || stamp > clock_ || addr != blockAlign(addr) ||
            find(addr) != kNone)
            r.fail();
        if (!r.ok())
            return;
        addr_[i] = addr;
        lru_[i] = stamp;
    }
}

} // namespace stems
