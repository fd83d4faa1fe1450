#include "sim/driver.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <thread>

#include "common/log.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "prefetch/engine_registry.hh"
#include "sim/batch_sim.hh"
#include "sim/checkpoint.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

/**
 * Process-wide registry mirrors of the driver diagnostics. The
 * per-driver counters stay authoritative for the accessor API
 * (tests assert them per instance); these aggregate across drivers
 * and feed metrics snapshots / run manifests.
 */
struct DriverMetrics
{
    Counter &traceGenerated;
    Counter &cellBaseline, &cellEngine, &cellBatched, &cellResumed;
    Counter &ckptSkippedRecords, &ckptWritten;
    LatencyHistogram &engineNs, &baselineNs;

    DriverMetrics()
        : traceGenerated(
              registry().counter("driver.trace.generated")),
          cellBaseline(registry().counter("driver.cell.baseline")),
          cellEngine(registry().counter("driver.cell.engine")),
          cellBatched(registry().counter("driver.cell.batched")),
          cellResumed(registry().counter("driver.cell.resumed")),
          ckptSkippedRecords(
              registry().counter("ckpt.resume.skipped_records")),
          ckptWritten(registry().counter("ckpt.written")),
          engineNs(registry().histogram("driver.cell.engine_ns")),
          baselineNs(registry().histogram("driver.cell.baseline_ns"))
    {
    }

    static MetricsRegistry &
    registry()
    {
        return MetricsRegistry::instance();
    }
};

DriverMetrics &
driverMetrics()
{
    static DriverMetrics metrics;
    return metrics;
}

/** Per-workload shard state shared by that workload's cells. */
struct WorkloadShard
{
    const Workload *workload = nullptr;
    bool scientific = false;

    /// The records every cell replays, materialized once (first cell
    /// to touch them) and shared read-only: the workload's own
    /// (Workload::recorded) or `owned`.
    std::once_flag traceOnce;
    const Trace *records = nullptr;
    /// Records the shard generated or loaded itself; released when
    /// the last cell finishes. Empty while `records` is borrowed.
    Trace owned;
    std::size_t warmup = 0;
    /// Record count of the materialized trace (outlives the early
    /// trace release; informational, for result sidecars).
    std::size_t traceSize = 0;
    std::atomic<std::size_t> remainingCells{0};

    /// The workload's columns (sweepColumns) and, per column, its
    /// statistics, probe extras, and whether it was served from the
    /// store's result cache at schedule time (so it was never
    /// scheduled and must not be re-persisted).
    std::vector<SweepColumn> columns;
    std::vector<SimStats> stats;
    std::vector<std::map<std::string, double>> extra;
    std::vector<std::uint8_t> fromCache;

    /// Persistent-store state: registry workloads with an attached
    /// store replay traces from disk and key stored results by the
    /// trace's content digest.
    bool storeEligible = false;
    std::uint64_t traceDigest = 0;
    bool digestValid = false;

    /// Checkpointed execution: checkpoint boundaries over this trace
    /// (ascending, ending at trace.size()) and the trace-prefix
    /// digest at each boundary. Empty when checkpointing is off.
    std::vector<std::size_t> ckptBounds;
    std::vector<std::uint64_t> ckptBoundPrefixes;
};

/** One unit of work: a single simulation over one shard's trace. */
struct Cell
{
    std::size_t shard = 0;
    std::size_t column = 0; ///< index into the shard's columns
};

} // namespace

std::vector<EngineSpec>
engineSpecs(const std::vector<std::string> &names)
{
    std::vector<EngineSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names)
        specs.emplace_back(name);
    return specs;
}

std::vector<EngineSpec>
planEngineSpecs(const SweepPlan &plan)
{
    std::vector<EngineSpec> specs;
    specs.reserve(plan.engines.size());
    for (const PlanEngine &e : plan.engines)
        specs.emplace_back(e.engine, e.label, e.options);
    return specs;
}

std::vector<SweepColumn>
sweepColumns(const std::vector<EngineSpec> &engines, bool timing,
             bool scientific)
{
    std::vector<SweepColumn> columns;
    SweepColumn baseline;
    baseline.label = "baseline";
    baseline.ckptSpecDigest = storeDigest("cell:baseline:v1");
    baseline.resultSpecDigest = baseline.ckptSpecDigest;
    columns.push_back(std::move(baseline));
    if (timing) {
        SweepColumn stride;
        stride.label = stride.engine = "stride";
        stride.options.scientific = scientific;
        stride.ckptSpecDigest = engineSpecDigest("stride", stride.options);
        stride.resultSpecDigest = stride.ckptSpecDigest;
        columns.push_back(std::move(stride));
    }
    const EngineRegistry &registry = EngineRegistry::instance();
    for (std::size_t j = 0; j < engines.size(); ++j) {
        const EngineSpec &spec = engines[j];
        if (!registry.contains(spec.engine))
            continue;
        SweepColumn c;
        c.label = spec.resultLabel();
        c.engine = spec.engine;
        c.options = spec.options;
        c.options.scientific = c.options.scientific || scientific;
        c.engineIndex = static_cast<std::int32_t>(j);
        c.ckptSpecDigest = engineSpecDigest(c.engine, c.options);
        c.resultSpecDigest =
            engineSpecDigest(c.engine, c.options, spec.probeId);
        c.resultCacheable = !spec.probe || !spec.probeId.empty();
        columns.push_back(std::move(c));
    }
    return columns;
}

unsigned
ExperimentDriver::resolveJobs(unsigned jobs)
{
    return jobs != 0
               ? jobs
               : std::max(1u, std::thread::hardware_concurrency());
}

ExperimentDriver::ExperimentDriver(ExperimentConfig config,
                                   unsigned jobs)
    : config_(std::move(config)), jobs_(resolveJobs(jobs))
{
}

void
ExperimentDriver::setStore(std::shared_ptr<TraceStore> store)
{
    store_ = std::move(store);
    if (store_) {
        // The store's key vocabulary lives in store/keys.hh; the
        // driver only caches the two config-context digests here.
        resultConfigDigest_ = stems::resultConfigDigest(config_);
        ckptConfigDigest_ = checkpointConfigDigest(config_);
    }
}

void
ExperimentDriver::applyPlan(const SweepPlan &plan)
{
    ExperimentConfig next = planExperimentConfig(plan);
    next.system = config_.system;
    config_ = next;
    jobs_ = resolveJobs(plan.jobs);
    batching_ = plan.batch;
    checkpointEvery_ =
        static_cast<std::size_t>(plan.checkpointEvery);
    heartbeatSeconds_ =
        plan.heartbeatSeconds < 0 ? 0.0 : plan.heartbeatSeconds;
    // Refresh the store-context digests for the new configuration.
    if (store_)
        setStore(store_);
}

Trace
ExperimentDriver::materializeTrace(
    const Workload &workload,
    std::optional<std::uint64_t> *digest_out)
{
    if (store_) {
        TraceKey key{workload.name(), config_.traceRecords,
                     config_.seed};
        Trace trace;
        if (store_->loadTrace(key, trace)) {
            // Hash the records actually loaded rather than trusting
            // (and re-reading) the meta sidecar: results stay
            // keyed to the true content even if a meta file is
            // stale, at no extra I/O.
            if (digest_out)
                *digest_out = traceDigest(trace);
            return trace;
        }
        trace = workload.generate(config_.seed,
                                  config_.traceRecords);
        traceGenerations_.fetch_add(1);
        driverMetrics().traceGenerated.add();
        if (auto info = store_->putTrace(key, trace)) {
            if (digest_out)
                *digest_out = info->digest;
        }
        return trace;
    }
    traceGenerations_.fetch_add(1);
    driverMetrics().traceGenerated.add();
    return workload.generate(config_.seed, config_.traceRecords);
}

void
ExperimentDriver::dispatch(std::size_t num_tasks,
                           const std::function<void(std::size_t)> &task)
{
    std::size_t workers =
        std::min<std::size_t>(jobs_, num_tasks);
    if (workers <= 1) {
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto body = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_tasks)
                break;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(body);
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

std::vector<WorkloadResult>
ExperimentDriver::runCells(
    const std::vector<const Workload *> &workloads,
    const std::vector<EngineSpec> &engines, bool cacheable,
    std::optional<std::uint64_t> external_digest)
{
    const EngineRegistry &registry = EngineRegistry::instance();

    // ---- schedule ----
    // Phase spans end early (before the next phase), so they live
    // behind unique_ptrs instead of plain RAII scopes.
    auto schedule_span = std::make_unique<ScopedSpan>(
        "driver.schedule", "driver");
    std::vector<std::unique_ptr<WorkloadShard>> shards;
    std::vector<Cell> cells;
    shards.reserve(workloads.size());
    std::size_t baseline_cells = 0;
    std::size_t engine_cells = 0;
    for (const Workload *w : workloads) {
        auto shard = std::make_unique<WorkloadShard>();
        shard->workload = w;
        shard->scientific =
            w->workloadClass() == WorkloadClass::kScientific;
        shard->columns = sweepColumns(engines, config_.enableTiming,
                                      shard->scientific);
        const std::size_t num_columns = shard->columns.size();
        shard->stats.resize(num_columns);
        shard->extra.resize(num_columns);
        shard->fromCache.assign(num_columns, 0);

        shard->storeEligible = cacheable && store_ != nullptr;
        if (shard->storeEligible) {
            // Metadata-only probe: learn the trace's content digest
            // (the stored-result key) without decoding any records.
            if (auto info = store_->findTrace(
                    {w->name(), config_.traceRecords,
                     config_.seed})) {
                shard->traceDigest = info->digest;
                shard->digestValid = true;
            }
        } else if (store_ && external_digest) {
            // External workload with a caller-vouched trace digest
            // (a captured/imported trace): stored results apply
            // even though the name-keyed trace replay does not.
            shard->traceDigest = *external_digest;
            shard->digestValid = true;
        }

        // Probe the result cache at schedule time: a warm cell is
        // merged straight from the store and never scheduled, so a
        // fully warm sweep dispatches no work at all (and never even
        // materializes the trace).
        const std::size_t shard_index = shards.size();
        std::size_t count = 0;
        for (std::size_t c = 0; c < num_columns; ++c) {
            const SweepColumn &column = shard->columns[c];
            if (store_ && shard->digestValid &&
                column.resultCacheable) {
                if (auto r = store_->loadResult(
                        shard->traceDigest, column.resultSpecDigest,
                        resultConfigDigest_)) {
                    shard->stats[c] = r->stats;
                    shard->extra[c] = std::move(r->extra);
                    shard->fromCache[c] = 1;
                    continue;
                }
            }
            cells.push_back({shard_index, c});
            ++count;
            ++(column.engineIndex < 0 ? baseline_cells : engine_cells);
        }
        shard->remainingCells.store(count);
        shards.push_back(std::move(shard));
    }
    if (schedule_span->active()) {
        schedule_span->arg(
            "cells", static_cast<std::uint64_t>(cells.size()));
        schedule_span->arg(
            "workloads",
            static_cast<std::uint64_t>(shards.size()));
    }
    schedule_span.reset();

    // ---- execute ----
    SimParams sim_params;
    sim_params.hierarchy = config_.system.hierarchy;
    sim_params.enableTiming = config_.enableTiming;
    sim_params.timing = config_.system.timing;

    // Checkpointed execution needs a store to put checkpoints in
    // and a checkpoint interval; without either it is off entirely.
    const bool ckpt_enabled = store_ != nullptr && store_->usable() &&
                              checkpointEvery_ > 0;

    auto materialize_shard = [&](WorkloadShard &shard) {
        std::call_once(shard.traceOnce, [&] {
            ScopedSpan span("trace.materialize", "driver");
            if (span.active())
                span.arg("workload", shard.workload->name());
            shard.records = &shard.owned;
            if (shard.storeEligible) {
                std::optional<std::uint64_t> digest;
                shard.owned =
                    materializeTrace(*shard.workload, &digest);
                if (digest) {
                    shard.traceDigest = *digest;
                    shard.digestValid = true;
                }
            } else if (const Trace *recorded =
                           shard.workload->recorded()) {
                shard.records = recorded;
            } else {
                shard.owned = shard.workload->generate(
                    config_.seed, config_.traceRecords);
                traceGenerations_.fetch_add(1);
                driverMetrics().traceGenerated.add();
            }
            const Trace &trace = *shard.records;
            shard.traceSize = trace.size();
            shard.warmup = effectiveWarmupRecords(config_, trace.size());
            if (ckpt_enabled) {
                shard.ckptBounds =
                    checkpointBounds(trace.size(), checkpointEvery_);
                shard.ckptBoundPrefixes =
                    tracePrefixDigests(trace, shard.ckptBounds);
            }
        });
    };

    // The state digest of a checkpoint (store/keys.hh): trace-prefix
    // content plus the warmup boundary's effect on that prefix.
    auto ckpt_state_digest = [](std::uint64_t prefix_digest,
                                std::size_t index,
                                std::size_t warmup) {
        return checkpointStateDigest(prefix_digest, index, warmup);
    };

    /** Build the column's engine (null for the baseline). */
    auto make_cell_engine =
        [&](const SweepColumn &column) -> std::unique_ptr<Prefetcher> {
        if (column.engine.empty())
            return nullptr;
        return registry.make(column.engine, config_.system,
                             column.options);
    };

    /**
     * Run a group of one workload's cells (the whole shard when
     * batching, a single cell otherwise — a 1-lane pass is bitwise
     * identical to a standalone PrefetchSimulator::run, which
     * sim_test pins) as lanes of BatchSimulator passes. When
     * checkpointing is on, each cell resumes from the newest stored
     * checkpoint whose trace prefix, warmup boundary and engine spec
     * match, and each lane writes a checkpoint at every boundary it
     * crosses. The lanes of a pass share one demand front-end and so
     * start at one index: the cells run in one pass per distinct
     * resume index, newest first.
     */
    auto execute_cells = [&](WorkloadShard &shard,
                             const std::vector<Cell> &group) {
        ScopedSpan span("cells.execute", "driver");
        if (span.active()) {
            span.arg("workload", shard.workload->name());
            span.arg("lanes",
                     static_cast<std::uint64_t>(group.size()));
        }
        const Trace &trace = *shard.records;
        const bool resumable = ckpt_enabled && !shard.ckptBounds.empty();
        // Trace-prefix digests are a property of the trace, not a
        // lane: one memo serves every lane's resume probe (on-schedule
        // indices are pre-seeded from materialize_shard's boundary
        // pass).
        std::map<std::size_t, std::uint64_t> prefix_memo;
        for (std::size_t b = 0; b < shard.ckptBounds.size(); ++b)
            prefix_memo[shard.ckptBounds[b]] =
                shard.ckptBoundPrefixes[b];

        std::vector<std::unique_ptr<Prefetcher>> lane_engines(
            group.size());
        std::vector<std::unique_ptr<PrefetchSimulator>> restored(
            group.size());
        auto column = [&](std::size_t k) -> const SweepColumn & {
            return shard.columns[group[k].column];
        };

        /**
         * Resume probe for cell k: the newest stored checkpoint below
         * `limit` that decodes, left in restored[k] with its engine in
         * lane_engines[k]. @return its index, or 0 (cold start, with
         * a fresh engine).
         *
         * Candidate indices come from the store's directory (they may
         * include other workloads' or record-schedules'
         * checkpoints); each candidate is verified against this
         * trace by recomputing the prefix digest, newest first.
         * Candidates on this run's own boundary schedule — the
         * common case — reuse the digests materialize_shard already
         * computed; only off-schedule indices cost a hash pass.
         */
        auto resume_cell = [&](std::size_t k, std::size_t limit) {
            ScopedSpan resume_span("ckpt.resume", "ckpt");
            auto candidates = store_->listCheckpointIndices(
                column(k).ckptSpecDigest, ckptConfigDigest_);
            std::vector<std::size_t> usable;
            for (std::uint64_t c : candidates)
                if (c > 0 && c <= trace.size() && c < limit)
                    usable.push_back(static_cast<std::size_t>(c));
            std::vector<std::size_t> missing;
            for (std::size_t c : usable)
                if (prefix_memo.find(c) == prefix_memo.end())
                    missing.push_back(c);
            if (!missing.empty()) {
                auto computed = tracePrefixDigests(trace, missing);
                for (std::size_t m = 0; m < missing.size(); ++m)
                    prefix_memo[missing[m]] = computed[m];
            }
            std::size_t resume = 0;
            restored[k].reset();
            for (std::size_t c = usable.size(); c-- > 0;) {
                std::uint64_t state = ckpt_state_digest(
                    prefix_memo[usable[c]], usable[c], shard.warmup);
                auto blob =
                    store_->loadCheckpoint(column(k).ckptSpecDigest,
                                           ckptConfigDigest_, usable[c],
                                           state);
                if (!blob)
                    continue;
                lane_engines[k] = make_cell_engine(column(k));
                auto sim = std::make_unique<PrefetchSimulator>(
                    sim_params, lane_engines[k].get());
                // The store verified the blob and its index; decoding
                // checks only the payload structure.
                if (decodeCheckpoint(*blob, *sim)) {
                    restored[k] = std::move(sim);
                    resume = usable[c];
                    break;
                }
                // Structurally unrestorable despite a CRC pass (key
                // collision / code skew): drop the stale entry so a
                // fresh one replaces it, and keep trying older
                // candidates.
                store_->dropCheckpoint(column(k).ckptSpecDigest,
                                       ckptConfigDigest_, usable[c],
                                       state);
            }
            if (resume == 0)
                lane_engines[k] = make_cell_engine(column(k));
            if (resume_span.active()) {
                resume_span.arg("engine", column(k).label);
                resume_span.arg("resume_index",
                                static_cast<std::uint64_t>(resume));
            }
            return resume;
        };

        // Resume index -> the cells starting there, newest first.
        std::map<std::size_t, std::vector<std::size_t>,
                 std::greater<std::size_t>>
            passes;
        for (std::size_t k = 0; k < group.size(); ++k) {
            std::size_t resume = 0;
            if (resumable)
                resume = resume_cell(k, trace.size() + 1);
            else
                lane_engines[k] = make_cell_engine(column(k));
            passes[resume].push_back(k);
        }

        while (!passes.empty()) {
            auto pass = passes.extract(passes.begin());
            const std::size_t resume = pass.key();
            std::vector<std::size_t> &members = pass.mapped();
            std::sort(members.begin(), members.end());

            BatchSimulator sim;
            std::vector<std::size_t> lane_cell; // lane -> k
            for (std::size_t k : members) {
                if (resume == 0) {
                    sim.addLane(sim_params, lane_engines[k].get(),
                                shard.warmup);
                    lane_cell.push_back(k);
                    continue;
                }
                if (sim.addRestoredLane(std::move(restored[k]),
                                        shard.warmup) < sim.lanes()) {
                    lane_cell.push_back(k);
                    resumedRuns_.fetch_add(1);
                    resumedRecordsSkipped_.fetch_add(resume);
                    driverMetrics().cellResumed.add();
                    driverMetrics().ckptSkippedRecords.add(resume);
                    continue;
                }
                // Its L1 disagrees with the pass's, which no two
                // checkpoints of one trace prefix can: handle it like
                // a blob that fails to decode.
                store_->dropCheckpoint(
                    column(k).ckptSpecDigest, ckptConfigDigest_, resume,
                    ckpt_state_digest(prefix_memo[resume], resume,
                                      shard.warmup));
                passes[resume_cell(k, resume)].push_back(k);
            }
            if (sim.lanes() == 0)
                continue;
            sim.setStart(resume);

            if (resumable) {
                std::vector<std::size_t> bounds;
                for (std::size_t b : shard.ckptBounds)
                    if (b > resume)
                        bounds.push_back(b);
                sim.setBoundaries(std::move(bounds));
                sim.setBoundaryCallback([&](std::size_t lane,
                                            std::size_t index,
                                            PrefetchSimulator &lane_sim) {
                    const std::size_t k = lane_cell[lane];
                    ScopedSpan write_span("ckpt.write", "ckpt");
                    if (write_span.active()) {
                        write_span.arg("lane",
                                       static_cast<std::uint64_t>(k));
                        write_span.arg(
                            "index", static_cast<std::uint64_t>(index));
                    }
                    auto pos = std::lower_bound(shard.ckptBounds.begin(),
                                                shard.ckptBounds.end(),
                                                index) -
                               shard.ckptBounds.begin();
                    StoredCheckpointMeta meta;
                    meta.workload = shard.workload->name();
                    meta.engine = column(k).label;
                    meta.index = index;
                    meta.warmup = shard.warmup;
                    store_->putCheckpoint(
                        column(k).ckptSpecDigest, ckptConfigDigest_, index,
                        ckpt_state_digest(
                            shard.ckptBoundPrefixes
                                [static_cast<std::size_t>(pos)],
                            index, shard.warmup),
                        encodeCheckpoint(lane_sim, index), meta);
                    checkpointsWritten_.fetch_add(1);
                    driverMetrics().ckptWritten.add();
                });
            }

            const bool has_engine_cell = std::any_of(
                lane_cell.begin(), lane_cell.end(), [&](std::size_t k) {
                    return column(k).engineIndex >= 0;
                });
            const auto pass_start = std::chrono::steady_clock::now();
            sim.run(trace);
            // One sample per executed pass. Engine passes and pure
            // baseline/stride passes land in separate histograms.
            const auto pass_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - pass_start)
                    .count());
            (has_engine_cell ? driverMetrics().engineNs
                             : driverMetrics().baselineNs)
                .record(pass_ns);
            for (std::size_t lane = 0; lane < lane_cell.size(); ++lane) {
                const std::size_t k = lane_cell[lane];
                const std::size_t c = group[k].column;
                shard.stats[c] = sim.stats(lane);
                if (column(k).engineIndex < 0)
                    continue;
                const EngineSpec &spec =
                    engines[static_cast<std::size_t>(
                        column(k).engineIndex)];
                if (spec.probe) {
                    EngineResult scratch;
                    scratch.engine = column(k).label;
                    scratch.stats = shard.stats[c];
                    spec.probe(*lane_engines[k], scratch);
                    shard.extra[c] = std::move(scratch.extra);
                }
            }
        }
    };

    // Progress accounting for the heartbeat: scheduled cells that
    // have finished executing (warm cells never appear — they were
    // merged from the store at schedule time).
    std::atomic<std::size_t> cells_done{0};

    auto run_cell = [&](std::size_t index) {
        const Cell &cell = cells[index];
        WorkloadShard &shard = *shards[cell.shard];
        ScopedSpan span("driver.cell", "driver");
        if (span.active()) {
            span.arg("workload", shard.workload->name());
            span.arg("cell", shard.columns[cell.column].label);
        }
        materialize_shard(shard);

        execute_cells(shard, {cell});
        cells_done.fetch_add(1, std::memory_order_relaxed);

        if (shard.remainingCells.fetch_sub(1) == 1) {
            // Last cell of this workload: release the trace early so
            // peak memory tracks in-flight workloads, not the suite.
            // Borrowed records stay with the workload.
            Trace().swap(shard.owned);
        }
    };

    // ---- heartbeat (opt-in; stderr only) ----
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread hb_thread;
    if (heartbeatSeconds_ > 0 && !cells.empty()) {
        hb_thread = std::thread([&, total = cells.size()] {
            Counter &steps = MetricsRegistry::instance().counter(
                "batch.record_steps");
            std::uint64_t last_steps = steps.value();
            auto last_time = std::chrono::steady_clock::now();
            std::unique_lock<std::mutex> lock(hb_mutex);
            for (;;) {
                if (hb_cv.wait_for(
                        lock,
                        std::chrono::duration<double>(
                            heartbeatSeconds_),
                        [&] { return hb_stop; }))
                    return;
                auto now = std::chrono::steady_clock::now();
                std::uint64_t cur = steps.value();
                double secs =
                    std::chrono::duration<double>(now - last_time)
                        .count();
                double rate =
                    secs > 0 ? static_cast<double>(cur - last_steps) /
                                   secs
                             : 0.0;
                char line[128];
                std::snprintf(
                    line, sizeof(line),
                    "sweep progress: %zu/%zu cells, "
                    "%.2fM record-steps/s",
                    cells_done.load(std::memory_order_relaxed),
                    total, rate / 1e6);
                logInfo(line);
                last_steps = cur;
                last_time = now;
            }
        });
    }
    auto stop_heartbeat = [&] {
        if (!hb_thread.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        hb_thread.join();
    };

    // Batched: all of a workload's schedulable cells become one task
    // that traverses the trace once, each cell an isolated lane of a
    // BatchSimulator. Unbatched: one task per cell, every cell
    // re-iterating the shared trace. Per-cell simulation state is
    // identical either way, so results are bitwise equal; what
    // changes is traversal count and dispatch granularity.
    if (batching_) {
        std::vector<std::vector<Cell>> shard_cells(shards.size());
        for (const Cell &cell : cells)
            shard_cells[cell.shard].push_back(cell);
        std::vector<std::size_t> batch_shards;
        for (std::size_t i = 0; i < shards.size(); ++i)
            if (!shard_cells[i].empty())
                batch_shards.push_back(i);

        auto run_batch = [&](std::size_t task) {
            WorkloadShard &shard = *shards[batch_shards[task]];
            const std::vector<Cell> &batch =
                shard_cells[batch_shards[task]];
            ScopedSpan span("driver.batch", "driver");
            if (span.active()) {
                span.arg("workload", shard.workload->name());
                span.arg("cells",
                         static_cast<std::uint64_t>(batch.size()));
            }
            materialize_shard(shard);
            execute_cells(shard, batch);
            cells_done.fetch_add(batch.size(),
                                 std::memory_order_relaxed);
            // The task owns all of this workload's cells: release
            // the trace as soon as its single pass completes.
            Trace().swap(shard.owned);
        };
        try {
            dispatch(batch_shards.size(), run_batch);
        } catch (...) {
            stop_heartbeat();
            throw;
        }
    } else {
        try {
            dispatch(cells.size(), run_cell);
        } catch (...) {
            stop_heartbeat();
            throw;
        }
    }
    stop_heartbeat();

    baselineRuns_ += baseline_cells;
    engineRuns_ += engine_cells;
    driverMetrics().cellBaseline.add(baseline_cells);
    driverMetrics().cellEngine.add(engine_cells);
    if (batching_) {
        batchedRuns_ += cells.size();
        driverMetrics().cellBatched.add(cells.size());
    }

    /** One column's result, normalized by the reference columns:
     *  the baseline (always column 0) and, under timing, the stride
     *  reference (column 1). */
    auto column_result = [&](const WorkloadShard &shard,
                             std::size_t c) {
        const std::uint64_t baseline_misses =
            shard.stats[0].offChipReads;
        EngineResult er;
        er.engine = shard.columns[c].label;
        er.stats = shard.stats[c];
        er.coverage = ratio(er.stats.covered(), baseline_misses);
        er.uncovered = ratio(er.stats.offChipReads, baseline_misses);
        er.overprediction =
            ratio(er.stats.overpredictions, baseline_misses);
        if (config_.enableTiming && er.stats.cycles > 0)
            er.speedup = shard.stats[1].cycles / er.stats.cycles;
        er.extra = shard.extra[c];
        return er;
    };

    // ---- persist every freshly simulated cacheable cell ----
    auto persist_span =
        std::make_unique<ScopedSpan>("driver.persist", "driver");
    bool store_wrote = false;
    for (const auto &shard : shards) {
        if (!store_ || !shard->digestValid)
            continue;
        for (std::size_t c = 0; c < shard->columns.size(); ++c) {
            const SweepColumn &column = shard->columns[c];
            if (shard->fromCache[c] || !column.resultCacheable)
                continue;
            const EngineResult er = column_result(*shard, c);
            StoredResultMeta meta;
            meta.workload = shard->workload->name();
            meta.engine = er.engine;
            // Registry workloads: the trace-key length. External
            // traces: the actual replayed record count (their length
            // is not a config knob).
            meta.records =
                cacheable ? config_.traceRecords : shard->traceSize;
            meta.seed = cacheable ? config_.seed : 0;
            meta.coverage = er.coverage;
            meta.accuracy =
                ratio(er.stats.covered(), er.stats.prefetchesIssued);
            meta.speedup = er.speedup;
            meta.timing = config_.enableTiming;
            store_->putResult(shard->traceDigest,
                              column.resultSpecDigest,
                              resultConfigDigest_, {er.stats, er.extra},
                              meta);
            store_wrote = true;
        }
    }
    persist_span.reset();

    // ---- merge, in fixed (workload, engine) order ----
    auto merge_span =
        std::make_unique<ScopedSpan>("driver.merge", "driver");
    std::vector<WorkloadResult> results;
    results.reserve(shards.size());
    for (const auto &shard : shards) {
        WorkloadResult r;
        r.workload = shard->workload->name();
        r.workloadClass = shard->workload->workloadClass();
        r.baselineMisses = shard->stats[0].offChipReads;
        r.baselineCycles = shard->stats[0].cycles;
        if (config_.enableTiming) {
            r.strideCycles = shard->stats[1].cycles;
            r.baselineIpc = shard->stats[1].ipc();
        }
        for (std::size_t c = 0; c < shard->columns.size(); ++c)
            if (shard->columns[c].engineIndex >= 0)
                r.engines.push_back(column_result(*shard, c));
        results.push_back(std::move(r));
    }
    merge_span.reset();
    if (store_wrote) {
        // One budget pass for the whole sweep's result
        // writes (putTrace already self-enforces per trace).
        store_->enforceBudget();
    }
    return results;
}

std::vector<WorkloadResult>
ExperimentDriver::run(const std::vector<std::string> &workloads,
                      const std::vector<EngineSpec> &engines)
{
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<const Workload *> ptrs;
    for (const std::string &name : workloads) {
        auto w = WorkloadRegistry::instance().make(name);
        if (!w)
            continue;
        ptrs.push_back(w.get());
        owned.push_back(std::move(w));
    }
    return runCells(ptrs, engines, /*cacheable=*/true);
}

std::vector<WorkloadResult>
ExperimentDriver::run(const SweepPlan &plan)
{
    return run(plan, planEngineSpecs(plan));
}

std::vector<WorkloadResult>
ExperimentDriver::run(const SweepPlan &plan,
                      const std::vector<EngineSpec> &engines)
{
    applyPlan(plan);
    return run(plan.workloads, engines);
}

WorkloadResult
ExperimentDriver::runWorkload(
    const Workload &workload, const std::vector<EngineSpec> &engines,
    std::optional<std::uint64_t> trace_digest)
{
    auto results = runCells({&workload}, engines,
                            /*cacheable=*/false, trace_digest);
    return std::move(results.at(0));
}

void
ExperimentDriver::forEachTrace(
    const std::vector<std::string> &workloads,
    const std::function<void(std::size_t, const Workload &,
                             const Trace &)> &fn)
{
    std::vector<std::unique_ptr<Workload>> owned;
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        auto w = WorkloadRegistry::instance().make(workloads[i]);
        if (!w)
            continue;
        owned.push_back(std::move(w));
        indices.push_back(i);
    }
    dispatch(owned.size(), [&](std::size_t k) {
        const Workload &w = *owned[k];
        Trace trace = materializeTrace(w, nullptr);
        fn(indices[k], w, trace);
    });
}

} // namespace stems
