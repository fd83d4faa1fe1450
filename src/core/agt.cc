#include "core/agt.hh"

#include "common/state_codec.hh"

namespace stems {

StemsAgt::StemsAgt(StemsAgtParams params)
    : table_(params.entries, params.entries)
{
}

StemsGeneration *
StemsAgt::find(Addr region_base)
{
    return table_.find(regionNumber(region_base));
}

StemsGeneration &
StemsAgt::open(Addr region_base)
{
    StemsGeneration &gen = table_.findOrInsert(
        regionNumber(region_base),
        [this](std::uint64_t, StemsGeneration &victim) {
            if (onEnd_)
                onEnd_(victim);
        });
    gen = StemsGeneration{};
    gen.regionBase = regionBase(region_base);
    return gen;
}

void
StemsAgt::blockRemoved(Addr a)
{
    StemsGeneration *gen = find(regionBase(a));
    if (gen == nullptr)
        return;
    if (gen->accessed(regionOffset(a))) {
        // erase() only zeroes the slot's stamp: *gen stays intact
        // for the callback, which must not reopen a generation.
        table_.erase(regionNumber(regionBase(a)));
        if (onEnd_)
            onEnd_(*gen);
    }
}

namespace {
constexpr std::uint32_t kAgtTag = stateTag('S', 'A', 'G', 'T');
} // namespace

void
StemsAgt::saveState(StateWriter &w) const
{
    w.tag(kAgtTag);
    table_.saveState(w, [](StateWriter &sw,
                           const StemsGeneration &g) {
        sw.u64(g.regionBase);
        sw.u32(g.triggerPc16);
        sw.u8(g.triggerOffset);
        sw.u64(g.index);
        sw.u32(g.mask);
        sw.u32(g.accessMask);
        sw.u64(g.sequence.size());
        for (const SpatialElement &el : g.sequence) {
            sw.u8(el.offset);
            sw.u8(el.delta);
        }
        sw.u64(g.lastSeq);
        sw.u32(g.predictedMask);
        sw.boolean(g.spatialChecked);
    });
}

void
StemsAgt::loadState(StateReader &r)
{
    r.tag(kAgtTag);
    table_.loadState(r, [](StateReader &sr, StemsGeneration &g) {
        g.regionBase = sr.u64();
        g.triggerPc16 = static_cast<std::uint16_t>(sr.u32());
        g.triggerOffset = sr.u8();
        g.index = sr.u64();
        g.mask = sr.u32();
        g.accessMask = sr.u32();
        std::uint64_t n = sr.u64();
        // A generation records at most one element per block offset.
        if (n > kBlocksPerRegion) {
            sr.fail();
            return;
        }
        g.sequence.clear();
        for (std::uint64_t i = 0; i < n && sr.ok(); ++i) {
            SpatialElement el;
            el.offset = sr.u8();
            el.delta = sr.u8();
            g.sequence.push_back(el);
        }
        g.lastSeq = sr.u64();
        g.predictedMask = sr.u32();
        g.spatialChecked = sr.boolean();
    });
}

} // namespace stems
