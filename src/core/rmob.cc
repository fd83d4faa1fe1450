#include "core/rmob.hh"

#include "common/state_codec.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace stems {

RegionMissOrderBuffer::RegionMissOrderBuffer(std::size_t entries)
    : buffer_(entries)
{
    // One index entry per live buffer slot in steady state; reserve
    // up front so the fill phase never rehashes (128K inserts with
    // paper defaults).
    index_.reserve(entries);
}

RegionMissOrderBuffer::Position
RegionMissOrderBuffer::append(Addr block_addr, std::uint16_t pc16,
                              unsigned delta)
{
    RmobEntry e;
    e.addr = blockAlign(block_addr);
    e.pc16 = pc16;
    e.delta = static_cast<std::uint8_t>(delta > 255 ? 255 : delta);
    Position pos = buffer_.append(e);
    index_[e.addr] = pos;
    return pos;
}

std::optional<RmobEntry>
RegionMissOrderBuffer::at(Position pos) const
{
    return buffer_.at(pos);
}

std::optional<RegionMissOrderBuffer::Position>
RegionMissOrderBuffer::lookup(Addr block_addr) const
{
    auto it = index_.find(blockAlign(block_addr));
    if (it == index_.end())
        return std::nullopt;
    auto entry = buffer_.at(it->second);
    if (!entry.has_value() || entry->addr != blockAlign(block_addr))
        return std::nullopt; // overwritten: stale index entry
    return it->second;
}

namespace {
constexpr std::uint32_t kRmobTag = stateTag('R', 'M', 'O', 'B');
} // namespace

void
RegionMissOrderBuffer::saveState(StateWriter &w) const
{
    w.tag(kRmobTag);
    buffer_.saveState(w, [](StateWriter &sw, const RmobEntry &e) {
        sw.u64(e.addr);
        sw.u32(e.pc16);
        sw.u8(e.delta);
    });
    // Key-sorted: blob bytes must depend only on logical state, not
    // on the unordered_map's insertion history (kCheckpointVersion).
    std::vector<std::pair<Addr, Position>> entries(index_.begin(),
                                                   index_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(entries.size());
    for (const auto &kv : entries) {
        w.u64(kv.first);
        w.u64(kv.second);
    }
}

void
RegionMissOrderBuffer::loadState(StateReader &r)
{
    r.tag(kRmobTag);
    buffer_.loadState(r, [](StateReader &sr, RmobEntry &e) {
        e.addr = sr.u64();
        e.pc16 = static_cast<std::uint16_t>(sr.u32());
        e.delta = sr.u8();
    });
    std::uint64_t entries = r.u64();
    index_.clear();
    for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
        Addr a = r.u64();
        Position p = r.u64();
        index_[a] = p;
    }
}

} // namespace stems
