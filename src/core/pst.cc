#include "core/pst.hh"

#include <algorithm>

#include "common/state_codec.hh"

namespace stems {

PatternSequenceTable::PatternSequenceTable(PstParams params)
    : params_(params), table_(params.entries, params.ways)
{
}

void
PatternSequenceTable::train(
    std::uint64_t index, const SpatialElement *sequence,
    std::size_t sequence_len, std::uint32_t access_mask)
{
    Entry &e = table_.findOrInsert(index);
    e.stale = true;

    std::uint8_t position = 0;
    for (std::size_t i = 0; i < sequence_len; ++i) {
        const SpatialElement &el = sequence[i];
        unsigned off = el.offset % kBlocksPerRegion;
        access_mask |= 1u << off;
        // The most recent occurrence defines order and delta (recent
        // history predicts best, Section 2.1).
        e.delta[off] = el.delta;
        e.order[off] = position++;
    }
    for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
        if ((access_mask >> off) & 1u) {
            if (e.counter[off] < 3)
                ++e.counter[off];
        } else if (e.counter[off] > 0) {
            --e.counter[off];
        }
    }
}

void
PatternSequenceTable::rebuildPrediction(const Entry &e) const
{
    struct Item
    {
        std::uint8_t order;
        SpatialElement element;
    };
    Item items[kBlocksPerRegion];
    unsigned n = 0;
    for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
        if (e.counter[off] >= params_.predictThreshold) {
            items[n].order = e.order[off];
            items[n].element.offset = static_cast<std::uint8_t>(off);
            items[n].element.delta = e.delta[off];
            ++n;
        }
    }
    std::sort(items, items + n, [](const Item &a, const Item &b) {
        if (a.order != b.order)
            return a.order < b.order;
        return a.element.offset < b.element.offset;
    });
    for (unsigned i = 0; i < n; ++i)
        e.predicted[i] = items[i].element;
    e.predictedLen = static_cast<std::uint8_t>(n);
    e.stale = false;
}

std::optional<SpatialSpan>
PatternSequenceTable::lookup(std::uint64_t index) const
{
    const Entry *e = table_.peek(index);
    if (e == nullptr)
        return std::nullopt;
    if (e->stale)
        rebuildPrediction(*e);
    return SpatialSpan{e->predicted, e->predictedLen};
}

std::uint32_t
PatternSequenceTable::predictedMask(std::uint64_t index) const
{
    const Entry *e = table_.peek(index);
    if (e == nullptr)
        return 0;
    std::uint32_t mask = 0;
    for (unsigned off = 0; off < kBlocksPerRegion; ++off)
        if (e->counter[off] >= params_.predictThreshold)
            mask |= 1u << off;
    return mask;
}

namespace {
constexpr std::uint32_t kPstTag = stateTag('P', 'S', 'T', '1');
} // namespace

void
PatternSequenceTable::saveState(StateWriter &w) const
{
    w.tag(kPstTag);
    table_.saveState(w, [](StateWriter &sw, const Entry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            sw.u8(e.counter[off]);
            sw.u8(e.delta[off]);
            sw.u8(e.order[off]);
        }
    });
}

void
PatternSequenceTable::loadState(StateReader &r)
{
    r.tag(kPstTag);
    table_.loadState(r, [](StateReader &sr, Entry &e) {
        for (unsigned off = 0; off < kBlocksPerRegion; ++off) {
            e.counter[off] = sr.u8();
            e.delta[off] = sr.u8();
            e.order[off] = sr.u8();
        }
    });
}

} // namespace stems
