#include "scenarios.hh"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"
#include "workloads/trace_workload.hh"

namespace fs = std::filesystem;
using namespace stems;

namespace perfbench {

namespace {

/// suite-cold: every workload at the converged length ROADMAP uses.
constexpr std::uint64_t kSuiteRecords = 1'000'000;
/// replay-timed: one long oltp-db2 trace, replayed with timing.
constexpr std::uint64_t kReplayRecords = 2'000'000;
constexpr const char *kReplayWorkload = "oltp-db2";
/// store-extend: the pinned fig9 workloads, seeded at half length
/// and extended to the full length. Warmup and the checkpoint
/// schedule are absolute, so the seeded prefix checkpoints are the
/// ones the extension resumes from.
constexpr std::uint64_t kSeedRecords = 500'000;
constexpr std::uint64_t kExtendRecords = 1'000'000;
constexpr std::uint64_t kExtendWarmup = 250'000;
constexpr std::uint64_t kExtendCheckpointEvery = 250'000;

std::string
wrapName(const std::string &name, bool wrapped)
{
    return wrapped ? std::string(kWrapPrefix) + name : name;
}

SweepPlan
basePlan(const BenchOptions &opts, bool wrapped)
{
    SweepPlan plan;
    for (const std::string &w : scenarioWorkloads(opts.scenario))
        plan.workloads.push_back(wrapName(w, wrapped));
    for (const std::string &e : scenarioEngines(opts.scenario))
        plan.engines.push_back(PlanEngine{wrapName(e, wrapped), e, {}});
    plan.seed = opts.seed;
    plan.jobs = opts.jobs;
    return plan;
}

/** store-extend's shorter seeding sweep. */
SweepPlan
seedPlan(const BenchOptions &opts, bool wrapped)
{
    SweepPlan plan = scenarioPlan(opts, wrapped);
    plan.records = kSeedRecords;
    return plan;
}

std::map<std::string, std::uint64_t>
traceLengths(const BenchOptions &opts, std::uint64_t records)
{
    SweepPlan plan = basePlan(opts, false);
    plan.records = records;
    ExperimentDriver driver;
    driver.applyPlan(plan);
    std::mutex mutex;
    std::map<std::string, std::uint64_t> lengths;
    driver.forEachTrace(plan.workloads,
                        [&](std::size_t, const Workload &w,
                            const Trace &t) {
                            std::lock_guard<std::mutex> lock(mutex);
                            lengths[w.name()] = t.size();
                        });
    return lengths;
}

void
appendDouble(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a;", v);
    out += buf;
}

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
    out += ';';
}

std::string
digestHex(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

} // namespace

bool
parseScenario(const std::string &name, Scenario &out)
{
    if (name == "suite-cold")
        out = Scenario::kSuiteCold;
    else if (name == "replay-timed")
        out = Scenario::kReplayTimed;
    else if (name == "store-extend")
        out = Scenario::kStoreExtend;
    else
        return false;
    return true;
}

std::vector<std::string>
scenarioEngines(Scenario scenario)
{
    if (scenario == Scenario::kReplayTimed)
        return {"stems"};
    return {"tms", "sms", "stems"};
}

std::vector<std::string>
scenarioWorkloads(Scenario scenario)
{
    switch (scenario) {
    case Scenario::kSuiteCold: {
        std::vector<std::string> names;
        for (const std::string &n : WorkloadRegistry::instance().names())
            if (n.rfind(kWrapPrefix, 0) != 0)
                names.push_back(n);
        return names;
    }
    case Scenario::kReplayTimed:
        return {kReplayWorkload};
    case Scenario::kStoreExtend:
        return {"oltp-db2", "web-apache", "dss-qry17", "em3d"};
    }
    return {};
}

SweepPlan
scenarioPlan(const BenchOptions &opts, bool wrapped)
{
    SweepPlan plan = basePlan(opts, wrapped);
    switch (opts.scenario) {
    case Scenario::kSuiteCold:
        plan.records = kSuiteRecords;
        break;
    case Scenario::kReplayTimed:
        // The trace is fixed, so the seed only selects which trace
        // prepareInputs wrote; records is reset to the file's true
        // length inside the timed call, as `stems_trace run` does.
        plan.records = kReplayRecords;
        plan.seed = 0;
        plan.timing = true;
        break;
    case Scenario::kStoreExtend:
        plan.records = kExtendRecords;
        plan.warmupRecords = kExtendWarmup;
        plan.checkpointEvery = kExtendCheckpointEvery;
        break;
    }
    return plan;
}

std::string
replayTracePath(const BenchOptions &opts)
{
    return (fs::path(opts.workDir) / "replay.trc").string();
}

std::string
seedStorePath(const BenchOptions &opts)
{
    return (fs::path(opts.workDir) / "seed-store").string();
}

std::map<std::string, std::uint64_t>
prepareInputs(const BenchOptions &opts, bool wrapped)
{
    fs::create_directories(opts.workDir);
    switch (opts.scenario) {
    case Scenario::kSuiteCold:
        return traceLengths(opts, kSuiteRecords);
    case Scenario::kReplayTimed: {
        auto w = WorkloadRegistry::instance().make(kReplayWorkload);
        Trace t = w->generate(opts.seed, kReplayRecords);
        if (!writeTraceFileV2(replayTracePath(opts), t))
            throw std::runtime_error("cannot write " +
                                     replayTracePath(opts));
        return {{kReplayWorkload, t.size()}};
    }
    case Scenario::kStoreExtend: {
        const std::string dir = seedStorePath(opts);
        removeTree(dir);
        auto store = std::make_shared<TraceStore>(dir);
        if (!store->usable())
            throw std::runtime_error("cannot open store " + dir);
        std::vector<bool> variants = {false};
        if (wrapped)
            variants.push_back(true);
        for (bool wrap : variants) {
            ExperimentDriver driver;
            driver.setStore(store);
            driver.run(seedPlan(opts, wrap));
        }
        return traceLengths(opts, kExtendRecords);
    }
    }
    return {};
}

std::uint64_t
requestedSteps(const SweepPlan &plan,
               const std::map<std::string, std::uint64_t> &lengths)
{
    const std::uint64_t lanes =
        1 + (plan.timing ? 1 : 0) + plan.engines.size();
    std::uint64_t records = 0;
    for (const auto &kv : lengths)
        records += kv.second;
    return records * lanes;
}

Session
setUp(const BenchOptions &opts, bool wrapped,
      const std::string &store_dir)
{
    Session s;
    s.plan = scenarioPlan(opts, wrapped);
    s.driver = std::make_unique<ExperimentDriver>();
    if (opts.scenario == Scenario::kStoreExtend) {
        auto store = std::make_shared<TraceStore>(store_dir);
        if (!store->usable())
            throw std::runtime_error("cannot open store " + store_dir);
        s.driver->setStore(std::move(store));
    }
    s.driver->applyPlan(s.plan);
    return s;
}

std::vector<WorkloadResult>
runTimed(const BenchOptions &opts, Session &s, TraceLoad *load)
{
    if (opts.scenario != Scenario::kReplayTimed)
        return s.driver->run(s.plan);

    // The `stems_trace run <trace> stems --timing` path.
    const std::string path = replayTracePath(opts);
    const auto start = std::chrono::steady_clock::now();
    Trace t;
    if (!readTraceFile(path, t))
        throw std::runtime_error("cannot read " + path);
    if (load) {
        load->seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        load->bytes += fs::file_size(path);
    }
    const std::uint64_t digest = traceDigest(t);
    s.plan.records = t.size();
    FixedTraceWorkload workload(kReplayWorkload, std::move(t));
    s.driver->applyPlan(s.plan);
    return {s.driver->runWorkload(workload, planEngineSpecs(s.plan),
                                  digest)};
}

std::map<std::string, std::string>
cellDigests(const std::vector<WorkloadResult> &results)
{
    std::map<std::string, std::string> cells;
    for (const WorkloadResult &row : results) {
        std::string base = row.workload + ';';
        appendU64(base, static_cast<std::uint64_t>(row.workloadClass));
        appendU64(base, row.baselineMisses);
        appendDouble(base, row.baselineIpc);
        appendDouble(base, row.baselineCycles);
        appendDouble(base, row.strideCycles);
        for (const EngineResult &e : row.engines) {
            std::string text = base + e.engine + ';';
            const SimStats &s = e.stats;
            for (std::uint64_t v :
                 {s.records, s.reads, s.writes, s.invalidates, s.l1Hits,
                  s.l2Hits, s.l2PrefetchHits, s.svbHits, s.offChipReads,
                  s.offChipWrites, s.prefetchesIssued, s.overpredictions,
                  s.instructions})
                appendU64(text, v);
            for (double v : {s.cycles, e.coverage, e.uncovered,
                             e.overprediction, e.speedup})
                appendDouble(text, v);
            for (const auto &kv : e.extra) {
                text += kv.first + '=';
                appendDouble(text, kv.second);
            }
            cells[row.workload + '/' + e.engine] = digestHex(text);
        }
    }
    return cells;
}

std::vector<WorkloadResult>
runCrossCheck(const BenchOptions &opts)
{
    SweepPlan plan = scenarioPlan(opts, false);
    plan.batch = false;
    plan.checkpointEvery = 0;
    ExperimentDriver driver;
    if (opts.scenario != Scenario::kReplayTimed)
        return driver.run(plan);
    Session s;
    s.plan = plan;
    s.driver = std::make_unique<ExperimentDriver>();
    return runTimed(opts, s);
}

void
copyTree(const std::string &from, const std::string &to)
{
    removeTree(to);
    fs::copy(from, to, fs::copy_options::recursive);
}

std::uint64_t
treeBytes(const std::string &dir)
{
    std::error_code ec;
    std::uint64_t bytes = 0;
    if (!fs::exists(dir, ec))
        return 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir, ec))
        if (entry.is_regular_file(ec))
            bytes += entry.file_size(ec);
    return bytes;
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

} // namespace perfbench
