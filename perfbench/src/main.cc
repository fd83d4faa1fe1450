/**
 * @file
 * stems_perfbench: the compiled half of the repository benchmark.
 * run.py drives it; each subcommand prints one JSON object on stdout.
 *
 *   stems_perfbench prepare    <scenario> [common] [--traced]
 *       Build the scenario's inputs for this seed; print the true
 *       trace lengths and the requested record-steps.
 *   stems_perfbench setup      <scenario> [common]
 *       Do the program's set-up only; print its timestamps.
 *   stems_perfbench measure    <scenario> [common] --seconds S
 *       Repeat the timed call for S seconds (at least once); print
 *       per-repetition wall/CPU/store figures, peak RSS and every
 *       repetition's cell digests.
 *   stems_perfbench trace      <scenario> [common] --seconds S
 *       Alternate untraced and traced repetitions, then run the
 *       calibration passes; print the per-layer figures and every
 *       repetition's cell digests.
 *   stems_perfbench crosscheck <scenario> [common]
 *       The same sweep unbatched and store-less; print its digests.
 *
 *   common: --seed N --work DIR --jobs N
 *
 * Scenarios: suite-cold, replay-timed, store-extend.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "scenarios.hh"
#include "sim/config.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

using namespace stems;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/** Taken first thing in main: static initialisation (the registries)
 *  is already done, so spawn-to-here is process start. */
std::uint64_t mainEntryNs = 0;

std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Minimal JSON object writer for the one-line reports. */
class JsonOut
{
  public:
    JsonOut &
    key(const std::string &k)
    {
        os_ << (first_ ? "" : ", ") << '"' << k << "\": ";
        first_ = false;
        return *this;
    }

    JsonOut &
    num(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os_ << buf;
        return *this;
    }

    JsonOut &
    u64(std::uint64_t v)
    {
        os_ << v;
        return *this;
    }

    JsonOut &
    raw(const std::string &text)
    {
        os_ << text;
        return *this;
    }

    std::string str() const { return "{" + os_.str() + "}"; }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

std::string
digestsJson(const std::map<std::string, std::string> &cells)
{
    JsonOut j;
    for (const auto &kv : cells)
        j.key(kv.first).raw('"' + kv.second + '"');
    return j.str();
}

std::string
lengthsJson(const std::map<std::string, std::uint64_t> &lengths)
{
    JsonOut j;
    for (const auto &kv : lengths)
        j.key(kv.first).u64(kv.second);
    return j.str();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: stems_perfbench prepare|setup|measure|trace|"
                 "crosscheck <suite-cold|replay-timed|store-extend>\n"
                 "       --seed N --work DIR --jobs N [--seconds S] "
                 "[--traced]\n");
    std::exit(2);
}

std::string
repStoreDir(const BenchOptions &opts)
{
    return opts.workDir + "/rep-store";
}

/** One timed repetition's figures. */
struct Rep
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t storeBytes = 0;
    std::uint64_t recordSteps = 0; ///< batch.record_steps
    std::map<std::string, std::string> cells;
    /// Model counts summed over each engine column's cells.
    std::map<std::string, SimStats> engineStats;
};

void
addStats(SimStats &into, const SimStats &s)
{
    into.l1Hits += s.l1Hits;
    into.l2Hits += s.l2Hits;
    into.l2PrefetchHits += s.l2PrefetchHits;
    into.svbHits += s.svbHits;
    into.offChipReads += s.offChipReads;
    into.prefetchesIssued += s.prefetchesIssued;
}

/**
 * Set up and run the timed call once. store-extend copies the seeded
 * store first (not timed) and deletes the copy afterwards. `setup_s`
 * receives the set-up time. `wrapped` runs the plan on the timing
 * wrappers; `collector`, when given, is attached for the timed call
 * only.
 */
Rep
runRep(const BenchOptions &opts, bool wrapped, double *setup_s,
       SpanCollector *collector = nullptr, TraceLoad *load = nullptr)
{
    const bool store = opts.scenario == Scenario::kStoreExtend;
    if (store)
        copyTree(seedStorePath(opts), repStoreDir(opts));
    const std::uint64_t bytes_before = treeBytes(repStoreDir(opts));

    Rep rep;
    {
        const auto setup_start = Clock::now();
        Session session = setUp(opts, wrapped, repStoreDir(opts));
        if (setup_s)
            *setup_s = secondsSince(setup_start);

        MetricsRegistry::instance().reset();
        if (collector)
            collector->attach();
        const double cpu_start = cpuSeconds();
        const auto start = Clock::now();
        std::vector<WorkloadResult> results =
            runTimed(opts, session, load);
        rep.wallS = secondsSince(start);
        rep.cpuS = cpuSeconds() - cpu_start;
        if (collector)
            collector->detach();
        rep.recordSteps = MetricsRegistry::instance()
                              .counter("batch.record_steps")
                              .value();
        rep.cells = cellDigests(results);
        for (const WorkloadResult &row : results)
            for (const EngineResult &e : row.engines)
                addStats(rep.engineStats[e.engine], e.stats);
    }
    if (store) {
        rep.storeBytes = treeBytes(repStoreDir(opts)) - bytes_before;
        removeTree(repStoreDir(opts));
    }
    return rep;
}

int
cmdPrepare(const BenchOptions &opts, bool traced)
{
    if (traced)
        registerWrappers(scenarioEngines(opts.scenario),
                         scenarioWorkloads(opts.scenario));
    const auto start = Clock::now();
    auto lengths = prepareInputs(opts, traced);
    const double prepare_s = secondsSince(start);
    const std::uint64_t steps =
        requestedSteps(scenarioPlan(opts, false), lengths);
    std::printf("%s\n", JsonOut()
                            .key("lengths").raw(lengthsJson(lengths))
                            .key("requested_steps").u64(steps)
                            .key("prepare_s").num(prepare_s)
                            .str()
                            .c_str());
    return 0;
}

int
cmdSetup(const BenchOptions &opts)
{
    const auto start = Clock::now();
    Session session = setUp(opts, false, seedStorePath(opts));
    const double setup_s = secondsSince(start);
    std::printf("%s\n", JsonOut()
                            .key("main_entry_ns").u64(mainEntryNs)
                            .key("setup_s").num(setup_s)
                            .str()
                            .c_str());
    return 0;
}

int
cmdMeasure(const BenchOptions &opts)
{
    std::vector<Rep> reps;
    double first_setup_s = 0.0;
    const auto loop_start = Clock::now();
    do {
        double setup_s = 0.0;
        reps.push_back(runRep(opts, false, &setup_s));
        if (reps.size() == 1)
            first_setup_s = setup_s;
    } while (secondsSince(loop_start) < opts.seconds);
    const long rss_kb = peakRssKb();

    std::string reps_json = "[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        reps_json += (i ? ", " : "") +
                     JsonOut()
                         .key("wall_s").num(r.wallS)
                         .key("cpu_s").num(r.cpuS)
                         .key("store_bytes").u64(r.storeBytes)
                         .key("record_steps").u64(r.recordSteps)
                         .key("cells").raw(digestsJson(r.cells))
                         .str();
    }
    reps_json += "]";
    std::printf("%s\n",
                JsonOut()
                    .key("main_entry_ns").u64(mainEntryNs)
                    .key("setup_s").num(first_setup_s)
                    .key("peak_rss_kb").u64(static_cast<std::uint64_t>(rss_kb))
                    .key("reps").raw(reps_json)
                    .str()
                    .c_str());
    return 0;
}

/** Regenerate (or re-read) each trace the scenario replays, one at a
 *  time, for the calibration passes. */
template <typename Fn>
void
forEachScenarioTrace(const BenchOptions &opts, Fn &&fn)
{
    const SweepPlan plan = scenarioPlan(opts, false);
    if (opts.scenario == Scenario::kReplayTimed) {
        Trace t;
        if (!readTraceFile(replayTracePath(opts), t))
            throw std::runtime_error("cannot read replay trace");
        fn(WorkloadClass::kOltp, t);
        return;
    }
    for (const std::string &name : plan.workloads) {
        auto w = WorkloadRegistry::instance().make(name);
        Trace t = w->generate(plan.seed, plan.records);
        fn(w->workloadClass(), t);
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int
cmdTrace(const BenchOptions &opts)
{
    const std::vector<std::string> engines =
        scenarioEngines(opts.scenario);
    std::vector<std::string> wrapped_engines = engines;
    wrapped_engines.push_back("stride");
    registerWrappers(wrapped_engines, scenarioWorkloads(opts.scenario));
    const SweepPlan plan = scenarioPlan(opts, false);

    // Alternate untraced and traced repetitions; per-layer sums are
    // averaged over the traced ones.
    std::vector<double> untraced_walls, traced_walls;
    SpanSums spans;
    TraceLoad load;
    std::map<std::string, std::uint64_t> counters;
    std::uint64_t store_bytes = 0, record_steps = 0;
    std::string cells_untraced = "[", cells_traced = "[";
    std::map<std::string, SimStats> engine_stats;
    bool traced_matches = true;
    resetWrapperTotals();
    const auto loop_start = Clock::now();
    do {
        Rep plain = runRep(opts, false, nullptr);
        SpanCollector collector;
        Rep traced = runRep(opts, true, nullptr, &collector, &load);
        if (!sumSpans(collector.chromeJson(), spans))
            throw std::runtime_error("span JSON did not parse");
        for (const char *name :
             {"ckpt.resume.skipped_records", "store.ckpt.hit"})
            counters[name] +=
                MetricsRegistry::instance().counter(name).value();
        untraced_walls.push_back(plain.wallS);
        traced_walls.push_back(traced.wallS);
        store_bytes += traced.storeBytes;
        record_steps += traced.recordSteps;
        traced_matches = traced_matches && traced.cells == plain.cells;
        const char *sep = traced_walls.size() > 1 ? ", " : "";
        cells_untraced += sep + digestsJson(plain.cells);
        cells_traced += sep + digestsJson(traced.cells);
        engine_stats = traced.engineStats;
    } while (secondsSince(loop_start) < opts.seconds);
    cells_untraced += "]";
    cells_traced += "]";
    const double reps = static_cast<double>(traced_walls.size());
    const auto per_rep = [&](double v) { return v / reps; };
    const auto span_s = [&](const char *name) {
        auto it = spans.seconds.find(name);
        return it == spans.seconds.end() ? 0.0 : per_rep(it->second);
    };
    const std::map<std::string, HookTotals> driver_hooks = hookTotals();
    const GenerateTotals gen = generateTotals();

    // ---- calibration passes over the scenario's own traces ----
    SimParams params;
    params.hierarchy = defaultSystemConfig().hierarchy;
    params.timing = defaultSystemConfig().timing;
    params.enableTiming = plan.timing;
    Calibration calib;
    CheckpointCalibration ckpt;
    SimStats stride_stats;
    HookTotals stride_hooks;
    bool first = true;
    forEachScenarioTrace(opts, [&](WorkloadClass cls, const Trace &t) {
        calibrateHierarchyAndTiming(params, t, calib);
        if (!first)
            return;
        first = false;
        std::vector<std::string> lanes = {""};
        lanes.insert(lanes.end(), engines.begin(), engines.end());
        const bool scientific = cls == WorkloadClass::kScientific;
        ckpt = calibrateCheckpoints(params, t, 250'000, lanes,
                                    scientific);
        if (plan.timing) {
            // The driver builds its stride reference lane from the
            // real registration, which cannot be wrapped from
            // outside; time an identical standalone lane instead.
            resetWrapperTotals();
            ExperimentConfig config = planExperimentConfig(plan);
            stride_stats = runSingleLane(
                params, t, effectiveWarmupRecords(config, t.size()),
                "stride", scientific);
            stride_hooks = hookTotals()["stride"];
        }
    });

    // ---- per-layer figures ----
    JsonOut layers;
    layers.key("workloads.generate_s").num(per_rep(gen.seconds));
    layers.key("workloads.records").num(per_rep(gen.records));
    layers.key("trace.load_s").num(per_rep(load.seconds));
    layers.key("trace.bytes_read").num(per_rep(load.bytes));
    layers.key("mem.hierarchy_ns_per_record")
        .num(1e9 * calib.hierarchySeconds / calib.records);

    // Model counts summed over every engine cell of the traced run.
    SimStats total;
    for (const auto &kv : engine_stats)
        addStats(total, kv.second);
    layers.key("mem.l1_hits").u64(total.l1Hits);
    layers.key("mem.l2_hits").u64(total.l2Hits);
    layers.key("mem.offchip_reads").u64(total.offChipReads);
    layers.key("mem.svb_hits").u64(total.svbHits);
    layers.key("mem.l2_prefetch_hits").u64(total.l2PrefetchHits);
    engine_stats["stride"] = stride_stats;

    double hook_s_total = 0.0;
    const std::map<std::string, std::string> prefix = {
        {"tms", "prefetch.tms"},
        {"sms", "prefetch.sms"},
        {"stride", "prefetch.stride"},
        {"stems", "core.stems"}};
    for (const auto &kv : prefix) {
        HookTotals h;
        if (kv.first == "stride") {
            h = stride_hooks;
        } else if (std::find(engines.begin(), engines.end(), kv.first) !=
                   engines.end()) {
            h = driver_hooks.at(kv.first);
            h.seconds = per_rep(h.seconds);
            h.calls = static_cast<std::uint64_t>(per_rep(h.calls));
            hook_s_total += h.seconds;
        }
        layers.key(kv.second + ".hook_s").num(h.seconds);
        layers.key(kv.second + ".hook_calls").u64(h.calls);
        const SimStats &st = engine_stats[kv.first];
        layers.key(kv.second + ".useful_frac")
            .num(st.prefetchesIssued
                     ? static_cast<double>(st.covered()) /
                           st.prefetchesIssued
                     : 0.0);
    }

    const double batch_s = span_s("batch.chunk");
    const double ckpt_write_s = span_s("ckpt.write");
    const double sweep_wall = median(traced_walls);
    layers.key("sim.batch_s").num(batch_s);
    layers.key("sim.lane_self_s")
        .num(batch_s - hook_s_total - ckpt_write_s);
    layers.key("sim.timing_ns_per_record")
        .num(1e9 * calib.timingSeconds / calib.records);
    layers.key("sim.driver_idle_frac")
        .num(1.0 - span_s("driver.batch") / (opts.jobs * sweep_wall));
    layers.key("sim.record_steps").num(per_rep(record_steps));
    layers.key("sim.ckpt.encode_s")
        .num(ckpt_write_s - span_s("store.ckpt.put"));
    layers.key("sim.ckpt.decode_s")
        .num(span_s("ckpt.resume") - span_s("store.ckpt.get"));
    layers.key("sim.ckpt.blob_bytes")
        .num(static_cast<double>(ckpt.bytes) / ckpt.blobs);
    layers.key("sim.ckpt.encode_ns_per_byte")
        .num(1e9 * ckpt.encodeSeconds / ckpt.bytes);
    layers.key("sim.ckpt.decode_ns_per_byte")
        .num(1e9 * ckpt.decodeSeconds / ckpt.bytes);
    layers.key("sim.ckpt.skipped_records")
        .num(per_rep(counters["ckpt.resume.skipped_records"]));
    layers.key("store.ckpt.put_s").num(span_s("store.ckpt.put"));
    layers.key("store.ckpt.get_s").num(span_s("store.ckpt.get"));
    layers.key("store.trace.get_s").num(span_s("store.trace.get"));
    layers.key("store.bytes_written").num(per_rep(store_bytes));
    layers.key("store.ckpt.hits").num(per_rep(counters["store.ckpt.hit"]));
    layers.key("obs.trace_overhead_frac")
        .num((sweep_wall - median(untraced_walls)) /
             median(untraced_walls));

    std::printf("%s\n",
                JsonOut()
                    .key("reps").u64(traced_walls.size())
                    .key("traced_matches_untraced")
                    .raw(traced_matches ? "true" : "false")
                    .key("layers").raw(layers.str())
                    .key("cells_untraced").raw(cells_untraced)
                    .key("cells_traced").raw(cells_traced)
                    .str()
                    .c_str());
    return 0;
}

int
cmdCrossCheck(const BenchOptions &opts)
{
    std::printf("%s\n",
                JsonOut()
                    .key("cells")
                    .raw(digestsJson(cellDigests(runCrossCheck(opts))))
                    .str()
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    mainEntryNs = steadyNs();
    if (argc < 3)
        usage();
    const std::string command = argv[1];
    BenchOptions opts;
    if (!parseScenario(argv[2], opts.scenario))
        usage();
    bool traced = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--seed" && has_value)
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--work" && has_value)
            opts.workDir = argv[++i];
        else if (arg == "--jobs" && has_value)
            opts.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (arg == "--seconds" && has_value)
            opts.seconds = std::atof(argv[++i]);
        else if (arg == "--traced")
            traced = true;
        else
            usage();
    }
    if (opts.workDir.empty() || opts.jobs == 0)
        usage();
    try {
        if (command == "prepare")
            return cmdPrepare(opts, traced);
        if (command == "setup")
            return cmdSetup(opts);
        if (command == "measure")
            return cmdMeasure(opts);
        if (command == "trace")
            return cmdTrace(opts);
        if (command == "crosscheck")
            return cmdCrossCheck(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stems_perfbench: %s\n", e.what());
        return 1;
    }
    usage();
}
