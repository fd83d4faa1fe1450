#include "mem/hierarchy.hh"

namespace stems {

Hierarchy::Hierarchy(const HierarchyParams &params)
    : l1_("L1D", params.l1Bytes, params.l1Ways),
      l2_("L2", params.l2Bytes, params.l2Ways)
{
}

bool
Hierarchy::accessL1(Addr a)
{
    return l1_.access(a);
}

Hierarchy::L2Result
Hierarchy::accessL2(Addr a)
{
    Cache::Lookup l = l2_.lookup(a);
    return {l != Cache::Lookup::kMiss, l == Cache::Lookup::kPrefetchHit};
}

L2Outcome
stepL2(Cache &l2, Addr a, bool invalidate)
{
    L2Outcome o;
    std::optional<Cache::Victim> v;
    if (invalidate) {
        v = l2.invalidate(blockAlign(a));
    } else {
        Cache::Lookup l = l2.lookup(a);
        o.hit = l != Cache::Lookup::kMiss;
        o.covered = l == Cache::Lookup::kPrefetchHit;
        if (!o.hit)
            v = l2.insert(blockAlign(a));
    }
    if (v && v->unusedPrefetch()) {
        o.dropped = true;
        o.dropAddr = v->addr;
    }
    return o;
}

DemandOutcome
Hierarchy::step(Addr a, bool invalidate, bool with_l2)
{
    DemandOutcome o;
    std::optional<Cache::Victim> v;
    if (invalidate) {
        v = l1_.invalidate(blockAlign(a));
    } else {
        o.l1Hit = l1_.access(a);
        if (o.l1Hit)
            return o;
        v = l1_.insert(blockAlign(a));
    }
    if (v) {
        o.l1Evicted = true;
        o.l1Victim = v->addr;
    }
    if (with_l2)
        o.l2 = stepL2(l2_, a, invalidate);
    return o;
}

void
Hierarchy::handleL1Victim(const std::optional<Cache::Victim> &v)
{
    if (v && l1Evict_)
        l1Evict_(v->addr);
}

void
Hierarchy::handleL2Victim(const std::optional<Cache::Victim> &v)
{
    if (v && v->unusedPrefetch() && l2PrefetchDrop_)
        l2PrefetchDrop_(v->addr);
}

void
Hierarchy::fillL1(Addr a)
{
    handleL1Victim(l1_.insert(blockAlign(a)));
}

void
Hierarchy::fill(Addr a)
{
    handleL2Victim(l2_.insert(blockAlign(a)));
    handleL1Victim(l1_.insert(blockAlign(a)));
}

void
Hierarchy::fillPrefetchL2(Addr a)
{
    handleL2Victim(l2_.insert(blockAlign(a), /*prefetched=*/true));
}

void
Hierarchy::invalidate(Addr a)
{
    DemandOutcome o = step(a, /*invalidate=*/true, /*with_l2=*/true);
    if (o.l1Evicted && l1Evict_)
        l1Evict_(o.l1Victim);
    if (o.l2.dropped && l2PrefetchDrop_)
        l2PrefetchDrop_(o.l2.dropAddr);
}

void
Hierarchy::saveState(StateWriter &w) const
{
    l1_.saveState(w);
    l2_.saveState(w);
}

void
Hierarchy::loadState(StateReader &r)
{
    l1_.loadState(r);
    l2_.loadState(r);
}

} // namespace stems
