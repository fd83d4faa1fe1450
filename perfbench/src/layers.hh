/**
 * @file
 * Per-layer measurement from outside the simulator: timing wrappers
 * registered through the public engine and workload registries,
 * sums over the spans and counters the program already records, and
 * calibration passes that drive single layers over a workload's own
 * trace. Nothing here adds instrumentation to the simulator itself.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/prefetch_sim.hh"
#include "trace/trace.hh"

namespace perfbench {

/**
 * Register "perfbench.<name>" forwarding wrappers for the given
 * engines and workloads. A wrapped engine forwards every Prefetcher
 * hook (bufferCapacity and saveState/loadState included) and
 * reports the real engine name, so its cells are bitwise equal to
 * the real engine's. It counts every hook call and times a random
 * ~1/64 sample of them; a wrapped workload times generate().
 * Idempotent.
 */
void registerWrappers(const std::vector<std::string> &engines,
                      const std::vector<std::string> &workloads);

/** Hook work of one engine, summed over every wrapped instance
 *  destroyed so far. */
struct HookTotals
{
    std::uint64_t calls = 0;
    /// Estimated seconds inside hooks: sampled time, less the cost
    /// of its clock reads, scaled by calls / sampled calls.
    double seconds = 0.0;
};

/** Per-engine hook totals, keyed by real engine name. */
std::map<std::string, HookTotals> hookTotals();

/** Generation work of the wrapped workloads. */
struct GenerateTotals
{
    std::uint64_t records = 0;
    double seconds = 0.0;
};

GenerateTotals generateTotals();

/** Zero every wrapper tally. */
void resetWrapperTotals();

/** Span durations summed by span name, in seconds, from a
 *  SpanCollector's Chrome JSON. */
struct SpanSums
{
    std::map<std::string, double> seconds;
};

/** @return false when the JSON does not parse. */
bool sumSpans(const std::string &chrome_json, SpanSums &out);

/** Results of the single-layer calibration passes over one trace. */
struct Calibration
{
    std::uint64_t records = 0;
    /// Hierarchy::accessL1 / accessL2 / fillL1 / fill / invalidate
    /// alone, in the simulator's demand order.
    double hierarchySeconds = 0.0;
    /// TimingModel::demandAccess fed the hierarchy pass's levels.
    double timingSeconds = 0.0;
};

/** Run the hierarchy and timing passes over `trace`, accumulating
 *  into `out`. */
void calibrateHierarchyAndTiming(const stems::SimParams &params,
                                 const stems::Trace &trace,
                                 Calibration &out);

/** Checkpoint codec calibration over one trace prefix. */
struct CheckpointCalibration
{
    std::uint64_t blobs = 0;
    std::uint64_t bytes = 0;
    double encodeSeconds = 0.0;
    double decodeSeconds = 0.0;
};

/**
 * Simulate the first `records` records of `trace` on one lane per
 * entry of `engines` ("" = the no-prefetch baseline), then time
 * encodeCheckpoint and decodeCheckpoint (into a fresh, identically
 * built lane) on each. Throws std::runtime_error when a blob fails
 * to decode.
 */
CheckpointCalibration
calibrateCheckpoints(const stems::SimParams &params,
                     const stems::Trace &trace, std::size_t records,
                     const std::vector<std::string> &engines,
                     bool scientific);

/** A single lane of `engine` (wrapped, so its hooks are tallied)
 *  over the whole trace, as the driver builds its stride reference
 *  lane under timing. Returns the lane's statistics. */
stems::SimStats runSingleLane(const stems::SimParams &params,
                              const stems::Trace &trace,
                              std::size_t warmup,
                              const std::string &engine,
                              bool scientific);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
