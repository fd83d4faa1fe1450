#include "core/reconstruction.hh"

#include "common/state_codec.hh"

#include <algorithm>

namespace stems {

namespace {

constexpr std::uint32_t kReconTag = stateTag('R', 'C', 'O', 'N');

void
saveHistogram(StateWriter &w, const Histogram &h)
{
    const auto &buckets = h.buckets();
    w.u64(buckets.size());
    for (const auto &kv : buckets) { // std::map: stable key order
        w.i64(kv.first);
        w.u64(kv.second);
    }
}

} // namespace

Reconstructor::Reconstructor(const RegionMissOrderBuffer &rmob,
                             const PatternSequenceTable &pst,
                             ReconstructionParams params)
    : rmob_(rmob), pst_(pst), params_(params),
      // No placement lands further than the buffer is long, which
      // bounds the counts array whatever window is configured.
      window_(std::min<std::size_t>(params.displacementWindow,
                                    params.bufferSlots)),
      displacementCounts_(2 * window_ + 1)
{
}

Histogram
Reconstructor::displacements() const
{
    Histogram h;
    const auto window = static_cast<std::int64_t>(window_);
    for (std::int64_t d = -window; d <= window; ++d)
        if (std::uint64_t n = displacementCounts_[d + window])
            h.add(d, n);
    return h;
}

bool
Reconstructor::place(std::vector<Addr> &slots, std::size_t slot,
                     Addr a)
{
    if (slot >= slots.size())
        return false;
    const std::size_t window = window_;
    if (slots[slot] == 0) {
        slots[slot] = a;
        ++displacementCounts_[window];
        return true;
    }
    // Occupied: search adjacent slots, nearest first, forward before
    // backward (paper Section 4.3).
    for (std::size_t d = 1; d <= window; ++d) {
        if (slot + d < slots.size() && slots[slot + d] == 0) {
            slots[slot + d] = a;
            ++displacementCounts_[window + d];
            return true;
        }
        if (slot >= d && slots[slot - d] == 0) {
            slots[slot - d] = a;
            ++displacementCounts_[window - d];
            return true;
        }
    }
    ++dropped_;
    return false;
}

void
Reconstructor::expandSpatial(std::vector<Addr> &slots,
                             std::size_t trigger_slot,
                             const RmobEntry &entry,
                             RegionNote note_region)
{
    std::uint64_t index =
        stemsPatternIndex(entry.pc16, regionOffset(entry.addr));
    std::optional<SpatialSpan> sequence = pst_.lookup(index);
    if (!sequence)
        return;
    Addr region = regionBase(entry.addr);
    if (note_region)
        note_region(region, index);

    std::size_t cursor = trigger_slot;
    for (const SpatialElement &el : *sequence) {
        cursor += el.delta + 1;
        if (cursor >= slots.size() + params_.displacementWindow)
            break;
        place(slots, cursor,
              addrFromRegionOffset(region, el.offset));
    }
}

Reconstructor::Window
Reconstructor::reconstruct(RegionMissOrderBuffer::Position start_pos,
                           RegionNote note_region)
{
    Window w;
    auto head = rmob_.at(start_pos);
    if (!head.has_value()) {
        w.nextPos = start_pos;
        return w;
    }
    ++windows_;
    w.valid = true;

    std::vector<Addr> &slots = slotScratch_;
    slots.assign(params_.bufferSlots, 0);
    slots[0] = head->addr;

    // Phase one (paper Figure 5, step two): lay down the temporal
    // backbone — every RMOB entry at its delta-directed slot. Doing
    // this before any spatial expansion guarantees mispredicted
    // spatial sequences can displace predictions, never the recorded
    // miss order itself.
    std::vector<Placed> &backbone = backboneScratch_;
    backbone.clear();
    backbone.push_back({*head, 0});

    std::size_t cursor = 0;
    RegionMissOrderBuffer::Position pos = start_pos + 1;
    while (true) {
        auto e = rmob_.at(pos);
        if (!e.has_value())
            break; // overwritten or caught up with the frontier
        std::size_t next_cursor = cursor + e->delta + 1;
        if (next_cursor >= slots.size())
            break; // window full; resume here next time
        cursor = next_cursor;
        place(slots, cursor, e->addr);
        backbone.push_back({*e, cursor});
        ++pos;
    }
    w.nextPos = pos;

    // Phase two (Figure 5, step three): expand each backbone entry's
    // spatial sequence around its trigger slot.
    for (const Placed &p : backbone)
        expandSpatial(slots, p.slot, p.entry, note_region);

    // Compact the occupied slots, in order, to the buffer's front;
    // the window views that prefix.
    std::size_t live = 0;
    for (std::size_t i = 0; i < slots.size(); ++i)
        if (slots[i] != 0)
            slots[live++] = slots[i];
    w.sequence = {slots.data(), live};
    return w;
}

void
Reconstructor::saveState(StateWriter &w) const
{
    w.tag(kReconTag);
    saveHistogram(w, displacements());
    w.u64(dropped_);
    w.u64(windows_);
}

void
Reconstructor::loadState(StateReader &r)
{
    r.tag(kReconTag);
    // A bucket no live reconstructor could have counted fails the
    // reader: one outside the displacement window, a zero count, or
    // keys out of ascending order (which covers a duplicate).
    const auto window = static_cast<std::int64_t>(window_);
    std::fill(displacementCounts_.begin(), displacementCounts_.end(),
              0);
    std::uint64_t buckets = r.u64();
    std::int64_t last = -window - 1;
    for (std::uint64_t i = 0; i < buckets && r.ok(); ++i) {
        std::int64_t d = r.i64();
        std::uint64_t n = r.u64();
        if (d <= last || d > window || n == 0) {
            r.fail();
            return;
        }
        displacementCounts_[d + window] = n;
        last = d;
    }
    dropped_ = r.u64();
    windows_ = r.u64();
}

} // namespace stems
