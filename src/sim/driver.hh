/**
 * @file
 * Parallel experiment driver: shards (workload x engine) cells of a
 * sweep across a std::thread pool.
 *
 * Compared with the serial ExperimentRunner, the driver
 *  - generates each workload's trace exactly once and shares it
 *    read-only across every engine run over that workload (a
 *    workload that already holds its records, Workload::recorded,
 *    is replayed in place without a copy),
 *  - runs the normalization references as ordinary columns
 *    (sweepColumns): the no-prefetch baseline and, under timing, the
 *    stride reference are simulated, checkpointed and result-cached
 *    exactly like engine columns,
 *  - by default *batches* each workload's cold cells: one
 *    BatchSimulator pass traverses the trace once and advances every
 *    column together instead of re-iterating the trace per cell (a
 *    plan with `batch` off restores the one-task-per-cell dispatch;
 *    results are bitwise identical either way),
 *  - releases each trace as soon as its last cell completes, bounding
 *    peak memory to the in-flight workloads, and
 *  - when a persistent TraceStore is attached (setStore), consults it
 *    before generating any trace or simulating any cell (results are
 *    keyed by trace content digest + column spec digest + config
 *    digest), and fills it afterwards — so the amortization above
 *    also survives across processes: a fully warm-store re-run of a
 *    sweep performs zero workload generations, zero baseline
 *    simulations and zero engine simulations (traceGenerations() /
 *    baselineRuns() / engineRuns() diagnostics pin this), with
 *    bitwise-identical results. Without a store nothing is cached:
 *    every run() simulates its reference columns again.
 *
 * Determinism: every cell (one PrefetchSimulator over one trace) is
 * independent and seeded only by the trace, and results are merged in
 * the fixed (workload order, engine order) the caller supplied — so a
 * sweep is bitwise identical for any thread count, and identical to a
 * serial ExperimentRunner reference run (sim/driver_test.cc pins
 * both properties).
 */

#ifndef STEMS_SIM_DRIVER_HH
#define STEMS_SIM_DRIVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep_plan.hh"

namespace stems {

class TraceStore;

/**
 * One engine column of a sweep: a registered engine name plus the
 * per-cell parameter overrides (the knobs the ablation benches
 * sweep) and an optional post-run probe.
 */
struct EngineSpec
{
    EngineSpec() = default;
    EngineSpec(std::string engine_name) // NOLINT: implicit by design
        : engine(std::move(engine_name))
    {
    }
    EngineSpec(std::string engine_name, std::string result_label,
               EngineOptions opts = {})
        : engine(std::move(engine_name)),
          label(std::move(result_label)), options(std::move(opts))
    {
    }

    /// Registered engine name (EngineRegistry).
    std::string engine;
    /// Label reported in EngineResult::engine; defaults to `engine`.
    std::string label;
    /// Parameter overrides applied on top of the SystemConfig. The
    /// driver sets `options.scientific` from the workload class
    /// before instantiation.
    EngineOptions options;
    /// Optional post-run inspection hook, invoked on the worker
    /// thread right after the cell's simulation finishes; stash
    /// engine-specific metrics into EngineResult::extra. Must not
    /// touch shared state.
    std::function<void(const Prefetcher &, EngineResult &)> probe;
    /// Stable identity of `probe` for the persistent engine-result
    /// cache. A probe is opaque code, so a spec that sets one is
    /// only result-cacheable when it also names it here (bump the
    /// id when the probe's meaning changes). Specs without a probe
    /// are always cacheable.
    std::string probeId;

    /** The label reported in results. */
    const std::string &resultLabel() const
    {
        return label.empty() ? engine : label;
    }
};

/** Convenience: plain engine names -> specs with default options. */
std::vector<EngineSpec>
engineSpecs(const std::vector<std::string> &names);

/** The engine columns a plan describes, as runnable specs. */
std::vector<EngineSpec> planEngineSpecs(const SweepPlan &plan);

/**
 * One simulated column of a sweep over one workload. Every column is
 * scheduled, checkpointed and result-cached the same way; only the
 * merge tells the reference columns apart, as the normalization of
 * every engine column (paper Section 5.5).
 */
struct SweepColumn
{
    /// Label in results, store sidecars and spans.
    std::string label;
    /// Registered engine name; empty for the no-prefetch baseline.
    std::string engine;
    /// Effective options: the spec's overrides with the workload
    /// class applied.
    EngineOptions options;
    /// Index into the sweep's engine list; -1 for the reference
    /// columns.
    std::int32_t engineIndex = -1;
    /// Checkpoint key: the simulation without labels or probes (a
    /// probe reads state post-run; it cannot change what a
    /// checkpoint captures).
    std::uint64_t ckptSpecDigest = 0;
    /// Result key: the checkpoint key plus the probe identity.
    std::uint64_t resultSpecDigest = 0;
    /// False for a spec with an anonymous probe: its output is part
    /// of the result but its code has no stable identity.
    bool resultCacheable = true;
};

/**
 * The columns of a sweep over one workload, in lane order: the
 * no-prefetch baseline, under timing the stride reference, then one
 * column per engine spec the registry knows (run() skips unknown
 * engines).
 */
std::vector<SweepColumn>
sweepColumns(const std::vector<EngineSpec> &engines, bool timing,
             bool scientific);

/** The parallel sweep driver. */
class ExperimentDriver
{
  public:
    /**
     * @param config  experiment knobs (system, trace length, seed).
     * @param jobs    worker threads; 0 means hardware concurrency.
     */
    explicit ExperimentDriver(ExperimentConfig config,
                              unsigned jobs = 0);

    /** A driver awaiting a plan: Table 1 system, default knobs.
     *  Attach a store (setStore) and call run(plan). */
    ExperimentDriver() : ExperimentDriver(ExperimentConfig{}) {}

    /**
     * THE entry point: execute a declarative SweepPlan — workloads x
     * engines under the plan's trace, warmup and execution-policy
     * knobs — and return results merged in the plan's (workload,
     * engine) order. Equivalent to applyPlan(plan) followed by
     * run(plan.workloads, planEngineSpecs(plan)); bitwise identical
     * for any jobs/batch/checkpointEvery policy.
     */
    std::vector<WorkloadResult> run(const SweepPlan &plan);

    /**
     * Plan-driven sweep with caller-built engine columns: for probe
     * and ablation sweeps whose EngineSpecs carry state a plan
     * cannot serialize (probes). The plan still supplies workloads,
     * config and execution policy; `engines` replaces the plan's
     * engine list.
     */
    std::vector<WorkloadResult>
    run(const SweepPlan &plan,
        const std::vector<EngineSpec> &engines);

    /**
     * Adopt a plan's configuration without running: trace knobs
     * (records/seed/warmup/timing), jobs, and the whole execution
     * policy, refreshed store digests included. Used by run(plan)
     * and by harnesses that pair a plan with forEachTrace or
     * runWorkload.
     */
    void applyPlan(const SweepPlan &plan);

    /** Sweep (workloads x engines) by registered workload name.
     *  Unknown workload names are skipped (no result row). */
    std::vector<WorkloadResult>
    run(const std::vector<std::string> &workloads,
        const std::vector<EngineSpec> &engines);

    /** Run one externally-owned workload (e.g. a custom subclass not
     *  in the registry); engine cells still run in parallel. The
     *  name-keyed store paths are bypassed: an external instance's
     *  behaviour is not determined by its name, so name-keyed
     *  caching could cross-contaminate differently-parameterized
     *  instances.
     *
     *  When the caller *can* vouch for the trace's identity — a
     *  FixedTraceWorkload replaying a captured trace — pass its
     *  content digest (traceDigest()) and an attached store will
     *  cache every cell's result under it, exactly as for
     *  store-replayed registry traces. */
    WorkloadResult
    runWorkload(const Workload &workload,
                const std::vector<EngineSpec> &engines,
                std::optional<std::uint64_t> trace_digest =
                    std::nullopt);

    /**
     * Parallel map over workload traces (analysis benches): each
     * registered workload's trace is generated in the pool and handed
     * to `fn` with its position in `workloads`. `fn` runs on worker
     * threads, once per workload; writes must stay within the slot
     * `index` addresses.
     */
    void forEachTrace(
        const std::vector<std::string> &workloads,
        const std::function<void(std::size_t index, const Workload &,
                                 const Trace &)> &fn);

    /** The configuration in use. */
    const ExperimentConfig &config() const { return config_; }

    /** Resolved worker-thread count. */
    unsigned jobs() const { return jobs_; }

    /** The jobs-resolution rule: 0 means hardware concurrency. */
    static unsigned resolveJobs(unsigned jobs);

    /**
     * Attach a persistent trace/result store. Registry-workload
     * sweeps and forEachTrace then load traces and cell results from
     * disk when present and persist what they compute. Pass null to
     * detach.
     */
    void setStore(std::shared_ptr<TraceStore> store);

    /** The attached store (null when none). */
    const std::shared_ptr<TraceStore> &store() const
    {
        return store_;
    }

    /** Reference-column (baseline and stride) simulations actually
     *  executed, as opposed to served from the store. */
    std::uint64_t baselineRuns() const { return baselineRuns_; }

    /** Engine-cell simulations actually executed, as opposed to
     *  served from the store's result cache (store
     *  diagnostics; a fully warm sweep re-run reports 0). Counts
     *  batched and unbatched executions alike — the split between
     *  the two is batchedRuns(). */
    std::uint64_t engineRuns() const { return engineRuns_; }

    /** Cell simulations (baseline, stride and engine cells alike)
     *  executed inside batched trace passes. 0 when batching is
     *  disabled; on a fully warm sweep 0 either way (warm cells are
     *  merged from the store and join no batch). */
    std::uint64_t batchedRuns() const { return batchedRuns_; }

    /** Workload traces actually generated, as opposed to replayed
     *  from the store or borrowed from a workload that holds its
     *  records (Workload::recorded): a captured-trace run reads 0. */
    std::uint64_t traceGenerations() const
    {
        return traceGenerations_.load();
    }

    /** Cell simulations that resumed from a stored checkpoint
     *  instead of starting at record 0 (checkpointed execution). */
    std::uint64_t resumedRuns() const { return resumedRuns_.load(); }

    /** Record-steps skipped by checkpoint resumes, summed over all
     *  resumed cells: a fully warm-prefix re-run re-simulates only
     *  the suffix, so this equals (resume index x resumed cells) and
     *  the redundant re-simulated prefix is 0 records. */
    std::uint64_t
    resumedRecordsSkipped() const
    {
        return resumedRecordsSkipped_.load();
    }

    /** Checkpoints persisted to the store this driver's runs wrote. */
    std::uint64_t
    checkpointsWritten() const
    {
        return checkpointsWritten_.load();
    }

  private:
    /** @param cacheable  workloads came from the registry, so the
     *                     name-keyed trace-replay store paths apply.
     *  @param external_digest  caller-vouched trace content digest
     *                     for the non-cacheable single-workload path;
     *                     keys the stored results. */
    std::vector<WorkloadResult>
    runCells(const std::vector<const Workload *> &workloads,
             const std::vector<EngineSpec> &engines, bool cacheable,
             std::optional<std::uint64_t> external_digest =
                 std::nullopt);

    void dispatch(std::size_t num_tasks,
                  const std::function<void(std::size_t)> &task);

    /** Load-or-generate one registry workload's trace, maintaining
     *  the generation counter and the store. `digest_out` (optional)
     *  receives the content digest when the store provided one. */
    Trace materializeTrace(const Workload &workload,
                           std::optional<std::uint64_t> *digest_out);

    ExperimentConfig config_;
    unsigned jobs_;

    std::uint64_t baselineRuns_ = 0;

    std::shared_ptr<TraceStore> store_;
    /// Digest keying stored cell results: system, warmup, timing
    /// mode and result-format version (functional and timed runs
    /// are distinct entries).
    std::uint64_t resultConfigDigest_ = 0;
    /// Digest keying stored checkpoints: system + timing + blob
    /// version. Warmup is deliberately excluded — it joins each
    /// checkpoint's *state* digest instead, as "pending" while the
    /// boundary lies beyond the checkpoint index, so pre-warmup
    /// checkpoints are shareable across different warmup settings.
    std::uint64_t ckptConfigDigest_ = 0;
    std::uint64_t engineRuns_ = 0;
    std::uint64_t batchedRuns_ = 0;
    /// Execution policy (SweepPlan semantics); applyPlan is the
    /// only writer.
    bool batching_ = true;
    std::size_t checkpointEvery_ = 0;
    double heartbeatSeconds_ = 0.0;
    std::atomic<std::uint64_t> traceGenerations_{0};
    std::atomic<std::uint64_t> resumedRuns_{0};
    std::atomic<std::uint64_t> resumedRecordsSkipped_{0};
    std::atomic<std::uint64_t> checkpointsWritten_{0};
};

} // namespace stems

#endif // STEMS_SIM_DRIVER_HH
