/**
 * @file
 * The benchmark's three workloads ("scenarios" here, to keep them
 * apart from the simulator's Workload class): how each one's inputs
 * are prepared, what its set-up builds, and the one call that is
 * timed. Every scenario goes through the same public entry points
 * the command-line tools use: ExperimentDriver::run(plan) for
 * suite-cold and store-extend, and readTraceFile +
 * ExperimentDriver::runWorkload on a FixedTraceWorkload (the
 * `stems_trace run <trace> stems --timing` path) for replay-timed.
 */

#ifndef PERFBENCH_SCENARIOS_HH
#define PERFBENCH_SCENARIOS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/driver.hh"
#include "sim/sweep_plan.hh"

namespace perfbench {

enum class Scenario
{
    kSuiteCold,
    kReplayTimed,
    kStoreExtend,
};

/** Parse a scenario name; false on anything else. */
bool parseScenario(const std::string &name, Scenario &out);

/** Everything one benchmark process is told on its command line. */
struct BenchOptions
{
    Scenario scenario = Scenario::kSuiteCold;
    std::uint64_t seed = 1;
    /// Scratch directory for the scenario's inputs and stores.
    std::string workDir;
    /// Driver worker threads (the caller passes nproc).
    unsigned jobs = 1;
    /// Measurement budget for the repetition loop.
    double seconds = 10.0;
};

/** Prefix under which the traced run registers its timing wrappers
 *  (layers.hh); the wrappers report the real names. */
inline constexpr const char *kWrapPrefix = "perfbench.";

/**
 * The sweep a scenario runs. With `wrapped`, workloads and engines
 * name the timing wrappers instead of the real registrations (the
 * labels stay the real engine names, so results are comparable
 * cell for cell).
 */
stems::SweepPlan scenarioPlan(const BenchOptions &opts, bool wrapped);

/** Real engine names of a scenario's engine columns. */
std::vector<std::string> scenarioEngines(Scenario scenario);

/** Real registry workload names of a scenario. */
std::vector<std::string> scenarioWorkloads(Scenario scenario);

/** Path of replay-timed's trace file under the work directory. */
std::string replayTracePath(const BenchOptions &opts);

/** Path of store-extend's seeded store under the work directory. */
std::string seedStorePath(const BenchOptions &opts);

/**
 * Build the scenario's inputs once per seed: replay-timed writes
 * its trace file; store-extend seeds its store with the shorter
 * sweep (also under the wrapper names when `wrapped`, so a traced
 * run resumes as much as an untraced one). Returns the actual
 * length of every trace the timed call replays, by workload name.
 */
std::map<std::string, std::uint64_t>
prepareInputs(const BenchOptions &opts, bool wrapped);

/**
 * Record-steps the timed call is asked to simulate: each trace's
 * true length times the plan's result lanes (baseline, plus stride
 * under timing, plus one per engine column). Fixed per scenario and
 * seed, so work a change skips counts as a gain.
 */
std::uint64_t
requestedSteps(const stems::SweepPlan &plan,
               const std::map<std::string, std::uint64_t> &lengths);

/** A constructed driver (and store) ready for the timed call. */
struct Session
{
    stems::SweepPlan plan;
    std::unique_ptr<stems::ExperimentDriver> driver;
};

/**
 * The program's own set-up before the timed call: driver and store
 * construction and plan application. store-extend expects
 * `store_dir` to hold a fresh copy of the seeded store.
 */
Session setUp(const BenchOptions &opts, bool wrapped,
              const std::string &store_dir);

/** Time spent reading the trace file inside the timed call
 *  (replay-timed only; the traced run reports it as trace.load_s). */
struct TraceLoad
{
    double seconds = 0.0;
    std::uint64_t bytes = 0;
};

/** The timed call. Throws std::runtime_error on a failed input. */
std::vector<stems::WorkloadResult>
runTimed(const BenchOptions &opts, Session &session,
         TraceLoad *load = nullptr);

/**
 * One digest per operation — a (workload, engine column) cell —
 * over every field of its result and of its workload's baselines,
 * keyed "workload/engine". Doubles enter bit-exactly.
 */
std::map<std::string, std::string>
cellDigests(const std::vector<stems::WorkloadResult> &results);

/**
 * The same sweep through a different execution path, to check a
 * seed the shipped references do not cover: one task per cell
 * (no batching) and no store.
 */
std::vector<stems::WorkloadResult>
runCrossCheck(const BenchOptions &opts);

// ---- filesystem helpers (store copies live in the work dir) ----

/** Recursive copy of `from` into a fresh `to`. */
void copyTree(const std::string &from, const std::string &to);

/** Total bytes of regular files under `dir` (0 when absent). */
std::uint64_t treeBytes(const std::string &dir);

/** Remove `dir` and everything under it (no error when absent). */
void removeTree(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_SCENARIOS_HH
