#include "net/units.hh"

#include <algorithm>
#include <map>

#include "sim/config.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

/**
 * Checkpoint spec digests of one cell unit's lanes: the driver's own
 * columns (sweepColumns) whose wire column is `column` — the
 * no-prefetch lane plus, under timing, the stride reference lane for
 * the baseline column; the one engine lane otherwise.
 */
std::vector<std::uint64_t>
columnCkptSpecs(const SweepPlan &plan, bool scientific,
                std::int32_t column)
{
    std::vector<std::uint64_t> specs;
    for (const SweepColumn &c :
         sweepColumns(planEngineSpecs(plan), plan.timing, scientific))
        if (c.engineIndex == column)
            specs.push_back(c.ckptSpecDigest);
    return specs;
}

/** Stored-checkpoint directory of every lane spec, listed once. */
using SpecListings =
    std::map<std::uint64_t, std::vector<StoredCheckpointKey>>;

const std::vector<StoredCheckpointKey> &
listingFor(SpecListings &memo, TraceStore &store, std::uint64_t spec,
           std::uint64_t config_digest)
{
    auto it = memo.find(spec);
    if (it == memo.end())
        it = memo
                 .emplace(spec,
                          store.listCheckpoints(spec, config_digest))
                 .first;
    return it->second;
}

/** True when every lane spec has a checkpoint stored at `index`
 *  under exactly the on-key state digest. Off-key entries (stale
 *  seed, different warmup schedule) never qualify. */
bool
trustedCheckpointAt(SpecListings &memo, TraceStore &store,
                    const std::vector<std::uint64_t> &specs,
                    std::uint64_t config_digest, std::uint64_t index,
                    std::uint64_t state_digest)
{
    for (std::uint64_t spec : specs) {
        bool found = false;
        for (const StoredCheckpointKey &key :
             listingFor(memo, store, spec, config_digest)) {
            if (key.index == index &&
                key.stateDigest == state_digest) {
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

} // namespace

std::vector<WorkUnit>
decomposeSweepPlan(const SweepPlan &plan)
{
    std::vector<WorkUnit> units;
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    for (const std::string &name : plan.workloads) {
        // run() skips unknown workload names; keeping them as
        // whole-workload units keeps the distributed run's
        // behaviour identical to the local one.
        if (plan.unitGranularity == UnitGranularity::kWorkload ||
            !registry.contains(name)) {
            WorkUnit u;
            u.kind = UnitKind::kWorkload;
            u.workload = name;
            units.push_back(std::move(u));
            continue;
        }
        for (std::int32_t c = -1;
             c < static_cast<std::int32_t>(plan.engines.size()); ++c) {
            WorkUnit u;
            u.kind = UnitKind::kCell;
            u.workload = name;
            u.column = c;
            units.push_back(std::move(u));
        }
    }
    return units;
}

std::uint64_t
unitLastCheckpointIndex(const SweepPlan &plan, const WorkUnit &unit,
                        TraceStore &store)
{
    if (unit.kind == UnitKind::kWorkload)
        return 0; // spans many cells; the driver probes per lane
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::unique_ptr<Workload> workload =
        registry.make(unit.workload);
    if (!workload)
        return 0;
    TraceKey key{unit.workload, plan.records, plan.seed};
    Trace trace;
    if (!store.loadTrace(key, trace))
        return 0;

    const ExperimentConfig config = planExperimentConfig(plan);
    const std::uint64_t ckpt_config = checkpointConfigDigest(config);
    const std::size_t warmup =
        effectiveWarmupRecords(config, trace.size());
    const std::vector<std::uint64_t> specs = columnCkptSpecs(
        plan,
        workload->workloadClass() == WorkloadClass::kScientific,
        unit.column);
    if (specs.empty())
        return 0; // an engine the registry does not know never runs

    SpecListings memo;
    std::vector<std::size_t> candidates;
    for (const StoredCheckpointKey &k :
         listingFor(memo, store, specs.front(), ckpt_config))
        if (k.index > 0 && k.index <= trace.size())
            candidates.push_back(static_cast<std::size_t>(k.index));
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    if (candidates.empty())
        return 0;
    const std::vector<std::uint64_t> prefixes =
        tracePrefixDigests(trace, candidates);
    for (std::size_t i = candidates.size(); i-- > 0;) {
        const std::uint64_t state = checkpointStateDigest(
            prefixes[i], candidates[i], warmup);
        if (trustedCheckpointAt(memo, store, specs, ckpt_config,
                                candidates[i], state))
            return candidates[i];
    }
    return 0;
}

} // namespace stems
