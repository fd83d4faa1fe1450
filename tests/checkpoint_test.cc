/**
 * @file
 * Checkpointing tests.
 *
 * The contract under test is bitwise equivalence: for every
 * registered engine, serializing a mid-trace PrefetchSimulator and
 * resuming it in a freshly-constructed one must be indistinguishable
 * — stat for stat, cycle for cycle — from never having stopped.
 * Split points are randomized (seeded Rng) so the property is probed
 * across warmup boundaries, stream states and generation lifetimes
 * rather than at one hand-picked index.
 *
 * Checkpoint payloads are also a pure function of logical state:
 * decode -> re-encode reproduces a blob byte for byte.
 *
 * On top of that sit the driver-level guarantees: checkpointed
 * execution (checkpoint at every boundary, resume from the newest
 * match) is bitwise identical to a continuous run across
 * {jobs 1, 8} x {batched, unbatched} for every registered engine,
 * re-running a sweep with more records over a warm store
 * re-simulates only the new suffix (resumedRuns()/
 * resumedRecordsSkipped() diagnostics), and bumping an engine's
 * state version fences off every checkpoint it stored before.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.hh"
#include "prefetch/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

using test::configPlan;
using test::expectSameResults;
using test::expectSameStats;
using test::smallConfig;

/** The trace every per-engine property test runs over: a real
 *  workload mix (temporal+spatial structure) so all engines train. */
Trace
propertyTrace()
{
    auto w = makeWorkload("web-apache");
    EXPECT_NE(w, nullptr);
    return w->generate(/*seed=*/9, /*records=*/20000);
}

SimParams
timedParams()
{
    SystemConfig sys = defaultSystemConfig();
    SimParams p;
    p.hierarchy = sys.hierarchy;
    p.enableTiming = true;
    p.timing = sys.timing;
    return p;
}

std::unique_ptr<Prefetcher>
makeEngine(const std::string &name)
{
    return EngineRegistry::instance().make(name,
                                           defaultSystemConfig());
}

/** Step records [first, last) with the standard warmup flip, i.e.
 *  exactly what PrefetchSimulator::run does over that span. */
void
stepSpan(PrefetchSimulator &sim, const Trace &trace,
         std::size_t first, std::size_t last, std::size_t warmup)
{
    for (std::size_t i = first; i < last; ++i) {
        if (i == warmup)
            sim.setMeasuring(true);
        sim.step(trace[i]);
    }
}

TEST(Checkpoint, SnapshotResumeMatchesContinuousForEveryEngine)
{
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    for (const std::string &name :
         EngineRegistry::instance().names()) {
        SCOPED_TRACE("engine " + name);

        // Continuous reference.
        auto ref_engine = makeEngine(name);
        ASSERT_NE(ref_engine, nullptr);
        PrefetchSimulator ref(params, ref_engine.get());
        ref.setMeasuring(false);
        stepSpan(ref, trace, 0, trace.size(), warmup);
        ref.finish();

        // Random split points, spread over warmup and measurement.
        Rng rng(0xC0FFEE ^ std::hash<std::string>{}(name));
        for (int trial = 0; trial < 4; ++trial) {
            std::size_t split =
                1 + rng.below(static_cast<std::uint32_t>(
                        trace.size() - 1));
            SCOPED_TRACE("split " + std::to_string(split));

            auto prefix_engine = makeEngine(name);
            PrefetchSimulator prefix(params, prefix_engine.get());
            prefix.setMeasuring(false);
            stepSpan(prefix, trace, 0, split, warmup);
            std::vector<std::uint8_t> blob =
                encodeCheckpoint(prefix, split);

            std::uint64_t index = 0;
            ASSERT_TRUE(checkpointRecordIndex(blob, index));
            EXPECT_EQ(index, split);

            auto resumed_engine = makeEngine(name);
            PrefetchSimulator resumed(params,
                                      resumed_engine.get());
            ASSERT_TRUE(decodeCheckpoint(blob, resumed, &index));
            EXPECT_EQ(index, split);
            stepSpan(resumed, trace, split, trace.size(), warmup);
            resumed.finish();

            expectSameStats(ref.stats(), resumed.stats());
        }
    }
}

TEST(Checkpoint, DoubleSplitResumeStillMatches)
{
    // Checkpoint, resume, checkpoint again later, resume again: the
    // state must survive arbitrary chains of snapshots.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    auto ref_engine = makeEngine("stems");
    PrefetchSimulator ref(params, ref_engine.get());
    ref.setMeasuring(false);
    stepSpan(ref, trace, 0, trace.size(), warmup);
    ref.finish();

    std::size_t first = trace.size() / 4;
    std::size_t second = (trace.size() * 3) / 4;

    auto e1 = makeEngine("stems");
    PrefetchSimulator s1(params, e1.get());
    s1.setMeasuring(false);
    stepSpan(s1, trace, 0, first, warmup);
    auto blob1 = encodeCheckpoint(s1, first);

    auto e2 = makeEngine("stems");
    PrefetchSimulator s2(params, e2.get());
    ASSERT_TRUE(decodeCheckpoint(blob1, s2));
    stepSpan(s2, trace, first, second, warmup);
    auto blob2 = encodeCheckpoint(s2, second);

    auto e3 = makeEngine("stems");
    PrefetchSimulator s3(params, e3.get());
    ASSERT_TRUE(decodeCheckpoint(blob2, s3));
    stepSpan(s3, trace, second, trace.size(), warmup);
    s3.finish();

    expectSameStats(ref.stats(), s3.stats());
}

TEST(Checkpoint, RandomSingleByteCorruptionIsAlwaysRejected)
{
    Trace trace = propertyTrace();
    SimParams params = timedParams();
    auto engine = makeEngine("stems");
    PrefetchSimulator sim(params, engine.get());
    sim.setMeasuring(false);
    stepSpan(sim, trace, 0, trace.size() / 2, trace.size() / 3);
    std::vector<std::uint8_t> blob =
        encodeCheckpoint(sim, trace.size() / 2);
    ASSERT_TRUE(checkpointValid(blob));

    Rng rng(1234);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<std::uint8_t> corrupt = blob;
        std::size_t offset = rng.below(
            static_cast<std::uint32_t>(corrupt.size()));
        std::uint8_t flip = static_cast<std::uint8_t>(
            1 + rng.below(255)); // never a no-op
        corrupt[offset] ^= flip;
        EXPECT_FALSE(checkpointValid(corrupt))
            << "byte " << offset << " xor "
            << static_cast<int>(flip);
        auto fresh_engine = makeEngine("stems");
        PrefetchSimulator fresh(params, fresh_engine.get());
        EXPECT_FALSE(decodeCheckpoint(corrupt, fresh));
    }

    // Truncations are rejected too, at any cut.
    for (std::size_t cut : {std::size_t{0}, std::size_t{10},
                            blob.size() / 2, blob.size() - 1}) {
        std::vector<std::uint8_t> shorter(blob.begin(),
                                          blob.begin() + cut);
        EXPECT_FALSE(checkpointValid(shorter)) << "cut " << cut;
    }
}

TEST(Checkpoint, MismatchedEngineOrStructureFailsCleanly)
{
    Trace trace = propertyTrace();
    SimParams params = timedParams();

    auto stems_engine = makeEngine("stems");
    PrefetchSimulator sim(params, stems_engine.get());
    sim.setMeasuring(false);
    stepSpan(sim, trace, 0, 5000, 6000);
    auto blob = encodeCheckpoint(sim, 5000);

    // Same blob into a differently-shaped simulator: CRC passes but
    // the payload structure must be rejected, not mis-decoded.
    auto tms_engine = makeEngine("tms");
    PrefetchSimulator wrong_engine(params, tms_engine.get());
    EXPECT_FALSE(decodeCheckpoint(blob, wrong_engine));

    PrefetchSimulator no_engine(params, nullptr);
    EXPECT_FALSE(decodeCheckpoint(blob, no_engine));

    SimParams functional = params;
    functional.enableTiming = false;
    auto other = makeEngine("stems");
    PrefetchSimulator wrong_timing(functional, other.get());
    EXPECT_FALSE(decodeCheckpoint(blob, wrong_timing));
}

TEST(Checkpoint, ReencodeRoundTripIsByteIdenticalForEveryEngine)
{
    // Checkpoint payloads are a pure function of logical state
    // (kCheckpointVersion): decoding a blob into a fresh simulator
    // and re-encoding must reproduce the bytes exactly. Any hidden
    // iteration-order or history dependence in a serializer would
    // show up here as a mismatch.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    SimParams params = timedParams();

    for (const std::string &name :
         EngineRegistry::instance().names()) {
        SCOPED_TRACE("engine " + name);
        Rng rng(0x5EED ^ std::hash<std::string>{}(name));
        for (int trial = 0; trial < 3; ++trial) {
            std::size_t split =
                1 + rng.below(static_cast<std::uint32_t>(
                        trace.size() - 1));
            SCOPED_TRACE("split " + std::to_string(split));
            auto prefix_engine = makeEngine(name);
            PrefetchSimulator prefix(params, prefix_engine.get());
            prefix.setMeasuring(false);
            stepSpan(prefix, trace, 0, split, warmup);
            auto blob = encodeCheckpoint(prefix, split);

            auto e = makeEngine(name);
            PrefetchSimulator resumed(params, e.get());
            ASSERT_TRUE(decodeCheckpoint(blob, resumed));
            auto again = encodeCheckpoint(resumed, split);
            EXPECT_EQ(blob, again);
        }
    }
}

// ---- driver-level checkpointed execution ----

class SegmentedDriverTest : public test::TempDirTest
{
};

TEST_F(SegmentedDriverTest,
       SegmentedMatchesContinuousAcrossJobsAndBatchForEveryEngine)
{
    // The acceptance bar: for every registered engine, a
    // checkpointed run (checkpoints written and, across combos, resumed) is
    // bitwise identical to a continuous storeless run, whatever the
    // jobs count and batching mode.
    std::vector<EngineSpec> engines;
    for (const std::string &name :
         EngineRegistry::instance().names())
        engines.emplace_back(name);
    ExperimentConfig cfg = smallConfig(true, 30000);

    ExperimentDriver reference(cfg, 4);
    auto expected = reference.run({"dss-qry17"}, engines);

    int combo = 0;
    for (unsigned jobs : {1u, 8u}) {
        for (bool batch : {true, false}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) +
                         (batch ? " batched" : " unbatched"));
            // A fresh store per combo keeps every cell cold, so the
            // checkpointed execution path itself runs each time.
            std::string dir =
                dir_ + "_combo" + std::to_string(combo++);
            SweepPlan plan = configPlan(cfg, jobs);
            plan.batch = batch;
            plan.checkpointEvery = 7500;
            ExperimentDriver checkpointed;
            checkpointed.applyPlan(plan);
            checkpointed.setStore(
                std::make_shared<TraceStore>(dir));
            auto results = checkpointed.run({"dss-qry17"}, engines);
            EXPECT_GT(checkpointed.checkpointsWritten(), 0u);
            // Even within one cold sweep a resume can legitimately
            // happen: the stride *baseline* cell and the stride
            // *engine* cell share a checkpoint identity (same
            // simulation), so whichever runs second may reuse the
            // first one's end-of-trace checkpoint when the
            // dispatch order serializes them.
            EXPECT_LE(checkpointed.resumedRuns(), 1u);
            expectSameResults(expected, results);
            std::filesystem::remove_all(dir);
        }
    }
}

TEST_F(SegmentedDriverTest, SecondSegmentedRunResumesFromCheckpoints)
{
    // Same sweep twice over one store, but with the result cache
    // defeated by an anonymous probe: the second run must execute
    // its cell by resuming from the first run's final checkpoint
    // instead of re-simulating the whole trace.
    ExperimentConfig cfg = smallConfig(false, 20000);
    EngineSpec probed("stems");
    probed.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["probe"] = 1.0;
    };

    SweepPlan plan = configPlan(cfg, 2);
    plan.checkpointEvery = 7000;
    ExperimentDriver first;
    first.applyPlan(plan);
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.run({"dss-qry17"}, {probed});
    EXPECT_GT(first.checkpointsWritten(), 0u);
    EXPECT_EQ(first.resumedRuns(), 0u);

    ExperimentDriver second;
    second.applyPlan(plan);
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.run({"dss-qry17"}, {probed});
    // The probed cell re-executed (engineRuns counts it) but
    // resumed at the end-of-trace checkpoint: zero records
    // re-stepped. The baseline cell stayed warm via the baseline
    // cache, so exactly one cell resumed.
    EXPECT_EQ(second.engineRuns(), 1u);
    EXPECT_EQ(second.resumedRuns(), 1u);
    auto trace_size =
        makeWorkload("dss-qry17")->generate(cfg.seed, 20000).size();
    EXPECT_EQ(second.resumedRecordsSkipped(), trace_size);
    expectSameResults(a, b);
}

TEST_F(SegmentedDriverTest, ExtendedRecordsSimulateOnlyTheSuffix)
{
    // The incremental-sweep headline: extend --records over a warm
    // store and only the unseen suffix is simulated. The warmup
    // boundary is pinned absolutely so the prefix simulation is
    // identical in both runs, and checkpoint boundaries use the
    // absolute interval so both runs share the boundary schedule.
    const std::vector<std::string> engines = {"sms", "stems"};
    ExperimentConfig short_cfg = smallConfig(false, 20000);
    short_cfg.warmupRecords = 8000;

    SweepPlan short_plan = configPlan(short_cfg, 2);
    short_plan.checkpointEvery = 6000;
    ExperimentDriver first;
    first.applyPlan(short_plan);
    first.setStore(std::make_shared<TraceStore>(dir_));
    first.run({"dss-qry17"}, engineSpecs(engines));
    EXPECT_GT(first.checkpointsWritten(), 0u);
    std::size_t short_size =
        makeWorkload("dss-qry17")->generate(short_cfg.seed, 20000)
            .size();

    ExperimentConfig long_cfg = smallConfig(false, 40000);
    long_cfg.warmupRecords = 8000;
    SweepPlan long_plan = configPlan(long_cfg, 2);
    long_plan.checkpointEvery = 6000;
    ExperimentDriver extended;
    extended.applyPlan(long_plan);
    extended.setStore(std::make_shared<TraceStore>(dir_));
    auto results =
        extended.run({"dss-qry17"}, engineSpecs(engines));

    // Every cell (baseline + both engines) resumed exactly at the
    // short run's end-of-trace checkpoint: the warm prefix cost 0
    // redundant record-steps.
    EXPECT_EQ(extended.resumedRuns(), 1u + engines.size());
    EXPECT_EQ(extended.resumedRecordsSkipped(),
              (1u + engines.size()) * short_size);
    EXPECT_EQ(extended.traceGenerations(), 1u); // new length: cold

    // And the extended results are bitwise identical to a storeless
    // continuous run of the long configuration.
    ExperimentDriver reference(long_cfg, 2);
    auto expected =
        reference.run({"dss-qry17"}, engineSpecs(engines));
    expectSameResults(expected, results);
}

TEST_F(SegmentedDriverTest, CorruptCheckpointFallsBackToColdRun)
{
    ExperimentConfig cfg = smallConfig(false, 20000);
    EngineSpec probed("stems"); // probe defeats the result cache
    probed.probe = [](const Prefetcher &, EngineResult &er) {
        er.extra["probe"] = 1.0;
    };

    SweepPlan plan = configPlan(cfg, 2);
    plan.checkpointEvery = 10000;
    ExperimentDriver first;
    first.applyPlan(plan);
    first.setStore(std::make_shared<TraceStore>(dir_));
    auto a = first.run({"dss-qry17"}, {probed});

    // Flip a byte in every stored checkpoint payload.
    for (const auto &de :
         std::filesystem::recursive_directory_iterator(dir_)) {
        if (de.path().extension() != ".ckpt")
            continue;
        std::fstream f(de.path(), std::ios::in | std::ios::out |
                                      std::ios::binary);
        f.seekp(64);
        f.put('\x7f');
    }

    ExperimentDriver second;
    second.applyPlan(plan);
    second.setStore(std::make_shared<TraceStore>(dir_));
    auto b = second.run({"dss-qry17"}, {probed});
    EXPECT_EQ(second.resumedRuns(), 0u); // every blob rejected
    expectSameResults(a, b);
}

TEST_F(SegmentedDriverTest, CheckpointsNeedAStore)
{
    // Without a store, a checkpoint interval is inert: the run
    // stays continuous and bitwise identical.
    std::vector<EngineSpec> engines = engineSpecs({"sms"});
    ExperimentConfig cfg = smallConfig(false, 20000);
    ExperimentDriver plain(cfg, 2);
    auto expected = plain.run({"dss-qry17"}, engines);

    SweepPlan plan = configPlan(cfg, 2);
    plan.checkpointEvery = 5000;
    ExperimentDriver checkpointed;
    checkpointed.applyPlan(plan);
    auto results = checkpointed.run({"dss-qry17"}, engines);
    EXPECT_EQ(checkpointed.checkpointsWritten(), 0u);
    EXPECT_EQ(checkpointed.resumedRuns(), 0u);
    expectSameResults(expected, results);
}

/** RAII guard: bump an engine's state version for one test and
 *  restore it afterwards — the registry is process-global. */
class ScopedStateVersion
{
  public:
    ScopedStateVersion(const std::string &name, std::uint32_t v)
        : name_(name),
          previous_(
              EngineRegistry::instance().setStateVersion(name, v))
    {
    }
    ~ScopedStateVersion()
    {
        EngineRegistry::instance().setStateVersion(name_, previous_);
    }

  private:
    std::string name_;
    std::uint32_t previous_;
};

TEST_F(SegmentedDriverTest,
       EngineStateVersionBumpOrphansStoredCheckpoints)
{
    // An engine's state version is folded into its checkpoint spec
    // digest, so bumping it (a code change that alters the
    // serialized state) must fence off every checkpoint that engine
    // stored: an extended run finds nothing to resume from, yet
    // produces the continuous run's results via the cold path.
    std::vector<EngineSpec> engines = engineSpecs({"stems"});
    ExperimentConfig cfg = smallConfig(false, 20000);
    cfg.warmupRecords = 8000;
    SweepPlan plan = configPlan(cfg, 2);
    plan.checkpointEvery = 6000;

    ExperimentDriver seeder;
    seeder.applyPlan(plan);
    seeder.setStore(std::make_shared<TraceStore>(dir_));
    seeder.run({"dss-qry17"}, engines);
    EXPECT_GT(seeder.checkpointsWritten(), 0u);

    // Store the long trace's baselines up front, so the extended
    // runs below schedule only the stems cell: the engineless
    // baseline cell has no state version and would resume.
    ExperimentConfig long_cfg = smallConfig(false, 30000);
    long_cfg.warmupRecords = 8000;
    ExperimentDriver baselines(long_cfg, 2);
    baselines.setStore(std::make_shared<TraceStore>(dir_));
    baselines.run({"dss-qry17"}, {});

    SweepPlan long_plan = configPlan(long_cfg, 2);
    long_plan.checkpointEvery = 6000;
    auto extend = [&](const std::string &dir) {
        auto driver = std::make_unique<ExperimentDriver>();
        driver->applyPlan(long_plan);
        driver->setStore(std::make_shared<TraceStore>(dir));
        auto results = driver->run({"dss-qry17"}, engines);
        return std::make_pair(std::move(driver), results);
    };

    // Control, on a copy of the store: at the current version the
    // stems cell does resume, so the fence below is not vacuous.
    const std::string control_dir = dir_ + "_control";
    std::filesystem::copy(dir_, control_dir,
                          std::filesystem::copy_options::recursive);
    EXPECT_EQ(extend(control_dir).first->resumedRuns(), 1u);
    std::filesystem::remove_all(control_dir);

    ScopedStateVersion bump(
        "stems",
        EngineRegistry::instance().stateVersion("stems") + 1);
    auto fenced = extend(dir_);
    EXPECT_EQ(fenced.first->engineRuns(), 1u);
    EXPECT_EQ(fenced.first->resumedRuns(), 0u);

    ExperimentDriver reference(long_cfg, 2);
    expectSameResults(reference.run({"dss-qry17"}, engines),
                      fenced.second);
}

} // namespace
} // namespace stems
