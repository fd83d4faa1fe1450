/**
 * @file
 * Declarative sweep description: the one value type that configures
 * an ExperimentDriver run.
 *
 * A SweepPlan captures everything that configures a sweep —
 * workloads x engine columns, records/seed/warmup, and the execution
 * policy — as plain data; ExperimentDriver::applyPlan is the only
 * writer of the driver's execution policy. Unlike a mutated driver,
 * a plan can be serialized, diffed and digested: `--plan-out` dumps
 * it for any bench invocation and `stems_trace sweep --plan FILE`
 * runs it.
 *
 * The one codec is canonical JSON (sweepPlanJson /
 * parseSweepPlanJson): key-sorted, mini_json conventions (`%.17g`
 * doubles, exact u64 integers), schema-tagged
 * "stems-sweep-plan-v4". Every field is always emitted (unset
 * optional engine knobs as `null`), so two plans are equal iff their
 * JSON bytes are equal, and the parser rejects unknown fields
 * instead of guessing.
 *
 * The plan's identity in the store's key vocabulary is
 * sweepPlanDigest() (store/keys.hh): a digest of the canonical JSON.
 *
 * Deliberately NOT in the plan: the SystemConfig (every harness runs
 * the paper's Table 1 system; describeSystem() already keys stored
 * artifacts) and probes (opaque code — probe sweeps construct
 * EngineSpecs directly and pass them to run(plan, specs)).
 */

#ifndef STEMS_SIM_SWEEP_PLAN_HH
#define STEMS_SIM_SWEEP_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"

namespace stems {

/// Canonical JSON schema tag (also the digest domain prefix).
inline constexpr const char *kSweepPlanSchema = "stems-sweep-plan-v4";

/**
 * One engine column of a plan: a registered engine name, the label
 * results report it under (empty = the name), and the per-cell
 * parameter overrides. The serializable subset of EngineSpec.
 */
struct PlanEngine
{
    std::string engine;
    std::string label;
    EngineOptions options;
};

/** A complete, serializable sweep description. */
struct SweepPlan
{
    /// Registered workload names, in merge order.
    std::vector<std::string> workloads;
    /// Engine columns, in merge order.
    std::vector<PlanEngine> engines;

    /// Records generated per workload trace.
    std::uint64_t records = 2'000'000;
    /// Trace-generation seed.
    std::uint64_t seed = 42;
    /// Leading warmup fraction (ignored when warmupRecords is set).
    double warmupFraction = 0.5;
    /// Absolute warmup override (0 = use the fraction).
    std::uint64_t warmupRecords = 0;
    /// Model timing (Figure 10) or run functional-only (Figure 9).
    bool timing = false;

    // Execution policy. Every knob below is pure strategy: results
    // are bitwise identical for any setting (the driver tests pin
    // this), so none of them joins any cache key.
    /// Worker threads (0 = hardware concurrency).
    unsigned jobs = 0;
    /// Batched execution: one BatchSimulator pass per workload
    /// advances all its cold cells; off = one task per cell.
    bool batch = true;
    /// Absolute checkpoint interval (0 = off). Needs a store; every
    /// cell checkpoints at each multiple of it (and at the trace
    /// end) and first resumes from the newest stored checkpoint its
    /// trace prefix, warmup boundary and engine spec match, so a
    /// re-run or a run extended to more records simulates only the
    /// unseen suffix. Boundaries independent of the trace length
    /// are what let an extended run find a shorter run's
    /// checkpoints.
    std::uint64_t checkpointEvery = 0;
    /// Progress-heartbeat interval in seconds (0 = off): a monitor
    /// thread logs cells done/total and the record-step rate to
    /// stderr while a sweep's dispatch is in flight.
    double heartbeatSeconds = 0.0;
};

/**
 * Canonical key-sorted JSON form (trailing newline included). Equal
 * plans produce equal bytes; parseSweepPlanJson(sweepPlanJson(p))
 * re-emits the identical bytes (sweep_plan_test.cc pins this).
 */
std::string sweepPlanJson(const SweepPlan &plan);

/**
 * Parse the canonical JSON form. Strict: the schema tag must match,
 * unknown or type-mismatched fields at any level (plan, engine,
 * options) are rejected, engine options outside the range the
 * engines can run (validEngineOptions) are rejected, and trailing
 * garbage is an error.
 *
 * @param error  optional; receives a one-line reason on failure.
 * @return false (plan unspecified) on any error.
 */
bool parseSweepPlanJson(const std::string &text, SweepPlan &plan,
                        std::string *error = nullptr);

/**
 * True when every set engine option is one the engines can run:
 * stream_queues in 1..kMaxStreamQueues, buffer_entries at least 1.
 * The JSON parser applies it, since a plan may come from a file.
 * On failure *error names the field and its range.
 */
bool validEngineOptions(const EngineOptions &options,
                        std::string *error = nullptr);

/**
 * The ExperimentConfig a plan describes: Table 1 system plus the
 * plan's trace and warmup knobs.
 */
ExperimentConfig planExperimentConfig(const SweepPlan &plan);

} // namespace stems

#endif // STEMS_SIM_SWEEP_PLAN_HH
