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
#include <map>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "prefetch/engine_registry.hh"
#include "sim/batch_sim.hh"
#include "sim/checkpoint.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
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

            auto verified = verifyCheckpoint(blob);
            ASSERT_TRUE(verified.has_value());
            EXPECT_EQ(verified->index(), split);
            EXPECT_EQ(verified->bytes(), blob);

            // Odd trials decode the verified blob, even ones the raw
            // bytes: both paths must restore the same state.
            auto resumed_engine = makeEngine(name);
            PrefetchSimulator resumed(params,
                                      resumed_engine.get());
            std::uint64_t index = 0;
            ASSERT_TRUE(trial % 2
                            ? decodeCheckpoint(*verified, resumed,
                                               &index)
                            : decodeCheckpoint(blob, resumed, &index));
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

/** 64-bit FNV-1a over a byte vector. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Checkpoint, BlobBytesArePinned)
{
    // The blob format is version 2 and stays byte-for-byte stable
    // across changes to how the simulator holds its state: a blob
    // written at a fixed index of a fixed trace must hash to the
    // digest recorded when the format was frozen. "" is the
    // engineless baseline lane.
    const std::map<std::string, std::uint64_t> pinned = {
        {"", 0x2913f65599afa713ull},
        {"stride", 0x8f5f1fd90497b4dbull},
        {"tms", 0x81f6a03c5e05eaefull},
        {"sms", 0x1254b74c0196e9c3ull},
        {"stems", 0x98beb7d8758a50f2ull},
        {"tms+sms", 0x2454fc3b387cb9faull},
    };
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    const std::size_t index = (trace.size() * 3) / 5;
    SimParams params = timedParams();

    std::vector<std::string> names = {""};
    for (const std::string &name : EngineRegistry::instance().names())
        names.push_back(name);
    for (const std::string &name : names) {
        SCOPED_TRACE("engine '" + name + "'");
        auto engine = name.empty() ? nullptr : makeEngine(name);
        PrefetchSimulator sim(params, engine.get());
        sim.setMeasuring(false);
        stepSpan(sim, trace, 0, index, warmup);
        std::uint64_t digest = fnv1a(encodeCheckpoint(sim, index));
        auto it = pinned.find(name);
        if (it == pinned.end()) {
            ADD_FAILURE() << "no pinned digest; got 0x" << std::hex
                          << digest;
            continue;
        }
        EXPECT_EQ(it->second, digest)
            << "got 0x" << std::hex << digest;
    }
}

// ---- lanes sharing one demand front-end ----

/** Lanes of the shared-front-end tests: the baseline ("") and one
 *  lane per engine kind, the two L2-sink engines included. */
const std::vector<std::string> kLaneEngines = {"",    "stride", "tms",
                                               "sms", "stems",  "tms+sms"};

/** Boundary blobs keyed by (lane, record index). */
using BlobMap =
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::uint8_t>>;

/** Run `names` as lanes of one batch over `trace`, capturing every
 *  lane's blob at each of `bounds`; returns the lanes' stats. */
std::vector<SimStats>
runBatchCapturing(const std::vector<std::string> &names, const Trace &trace,
                  std::size_t warmup, const std::vector<std::size_t> &bounds,
                  BlobMap &blobs)
{
    SimParams params = timedParams();
    BatchSimulator batch;
    std::vector<std::unique_ptr<Prefetcher>> engines;
    for (const std::string &name : names) {
        engines.push_back(name.empty() ? nullptr : makeEngine(name));
        batch.addLane(params, engines.back().get(), warmup);
    }
    batch.setBoundaries(bounds);
    batch.setBoundaryCallback(
        [&](std::size_t lane, std::size_t index, PrefetchSimulator &sim) {
            blobs[{lane, index}] = encodeCheckpoint(sim, index);
        });
    batch.run(trace);
    std::vector<SimStats> stats;
    for (std::size_t lane = 0; lane < batch.lanes(); ++lane)
        stats.push_back(batch.stats(lane));
    return stats;
}

TEST(Checkpoint, BatchLaneBlobsMatchSingleLaneBlobsAtEveryBoundary)
{
    // The hierarchy state a lane serializes (front-end L1, shared or
    // private L2) must be byte-equal at every boundary to the state
    // of a lane that ran alone, for lanes that share the L2 and for
    // the L2-sink lanes that diverge from it.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    std::vector<std::size_t> bounds =
        checkpointBounds(trace.size(), 2500);

    Counter &private_lanes =
        MetricsRegistry::instance().counter("batch.private_l2_lanes");
    const std::uint64_t private_before = private_lanes.value();
    BlobMap batched;
    runBatchCapturing(kLaneEngines, trace, warmup, bounds, batched);
    // sms and tms+sms fill the L2, so exactly they went private.
    EXPECT_EQ(private_lanes.value() - private_before, 2u);

    for (std::size_t lane = 0; lane < kLaneEngines.size(); ++lane) {
        SCOPED_TRACE("engine '" + kLaneEngines[lane] + "'");
        BlobMap alone;
        runBatchCapturing({kLaneEngines[lane]}, trace, warmup, bounds,
                          alone);
        for (std::size_t b : bounds) {
            SCOPED_TRACE("boundary " + std::to_string(b));
            ASSERT_EQ(alone.count({0, b}), 1u);
            EXPECT_EQ(batched.at({lane, b}), alone.at({0, b}));
        }
    }
}

TEST(Checkpoint, RestoredBatchMatchesContinuousAfterL2Divergence)
{
    // Checkpoint the lanes after the SMS lanes went private, restore
    // them into a fresh batch and finish the trace: statistics and
    // the end-of-trace blobs must equal a continuous run's. Both
    // lane orders are tried, so the restored front-end comes once
    // from a demand-only L2 and once from a diverged one.
    Trace trace = propertyTrace();
    const std::size_t warmup = trace.size() / 3;
    const std::size_t split = trace.size() / 2;
    const std::vector<std::size_t> bounds = {split, trace.size()};

    for (const std::vector<std::string> &names :
         {std::vector<std::string>{"", "tms", "sms"},
          std::vector<std::string>{"sms", "", "tms+sms"}}) {
        SCOPED_TRACE("first lane '" + names.front() + "'");
        BlobMap continuous;
        std::vector<SimStats> expected =
            runBatchCapturing(names, trace, warmup, bounds, continuous);

        SimParams params = timedParams();
        BatchSimulator resumed;
        std::vector<std::unique_ptr<Prefetcher>> engines;
        for (std::size_t lane = 0; lane < names.size(); ++lane) {
            engines.push_back(names[lane].empty() ? nullptr
                                                  : makeEngine(names[lane]));
            auto sim =
                std::make_unique<PrefetchSimulator>(params, engines.back().get());
            ASSERT_TRUE(decodeCheckpoint(continuous.at({lane, split}), *sim));
            ASSERT_EQ(resumed.addRestoredLane(std::move(sim), warmup), lane);
        }
        BlobMap ends;
        resumed.setStart(split);
        resumed.setBoundaries({trace.size()});
        resumed.setBoundaryCallback(
            [&](std::size_t lane, std::size_t index, PrefetchSimulator &sim) {
                ends[{lane, index}] = encodeCheckpoint(sim, index);
            });
        resumed.run(trace);
        for (std::size_t lane = 0; lane < names.size(); ++lane) {
            SCOPED_TRACE("lane '" + names[lane] + "'");
            expectSameStats(expected[lane], resumed.stats(lane));
            EXPECT_EQ(ends.at({lane, trace.size()}),
                      continuous.at({lane, trace.size()}));
        }
    }
}

TEST(Checkpoint, RestoredLaneWithDifferentL1IsRefused)
{
    Trace trace = propertyTrace();
    SimParams params = timedParams();
    auto restore = [&](std::size_t index) {
        PrefetchSimulator sim(params, nullptr);
        stepSpan(sim, trace, 0, index, 0);
        auto blob = encodeCheckpoint(sim, index);
        auto restored = std::make_unique<PrefetchSimulator>(params, nullptr);
        EXPECT_TRUE(decodeCheckpoint(blob, *restored));
        return restored;
    };
    BatchSimulator batch;
    EXPECT_EQ(batch.addRestoredLane(restore(4000)), 0u);
    EXPECT_EQ(batch.addRestoredLane(restore(4000)), 1u);
    EXPECT_EQ(batch.addRestoredLane(restore(3000)), 2u); // refused
    EXPECT_EQ(batch.lanes(), 2u);
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

TEST_F(SegmentedDriverTest, CheckpointWorkCountersCountEachBlobOnce)
{
    // ckpt.encoded_bytes counts every blob byte encoded and
    // ckpt.verified_bytes every payload byte hashed to verify one.
    // A resume hashes each loaded blob exactly once: the store
    // verifies it and the driver decodes it without a second pass.
    Counter &encoded =
        MetricsRegistry::instance().counter("ckpt.encoded_bytes");
    Counter &verified =
        MetricsRegistry::instance().counter("ckpt.verified_bytes");
    constexpr std::uint64_t kHeaderBytes = 32;
    // Summed .ckpt file sizes (and their count) with index in [lo, hi].
    auto stored = [&](std::uint64_t lo, std::uint64_t hi) {
        std::pair<std::uint64_t, std::uint64_t> bytes_and_files{0, 0};
        for (const auto &de :
             std::filesystem::directory_iterator(dir_ + "/checkpoints")) {
            if (de.path().extension() != ".ckpt")
                continue;
            // <spec>-<config>-<index>-<state>, 16 hex digits each.
            const std::uint64_t index = std::stoull(
                de.path().stem().string().substr(34, 16), nullptr, 16);
            if (index < lo || index > hi)
                continue;
            bytes_and_files.first += de.file_size();
            ++bytes_and_files.second;
        }
        return bytes_and_files;
    };

    const std::vector<std::string> engines = {"tms", "stems"};
    ExperimentConfig short_cfg = smallConfig(false, 20000);
    short_cfg.warmupRecords = 8000;
    SweepPlan short_plan = configPlan(short_cfg, 2);
    short_plan.checkpointEvery = 6000;
    std::uint64_t encoded_before = encoded.value();
    ExperimentDriver first;
    first.applyPlan(short_plan);
    first.setStore(std::make_shared<TraceStore>(dir_));
    first.run({"dss-qry17"}, engineSpecs(engines));
    const std::uint64_t short_size =
        makeWorkload("dss-qry17")->generate(short_cfg.seed, 20000).size();
    const auto written = stored(0, short_size);
    EXPECT_EQ(written.second, first.checkpointsWritten());
    EXPECT_EQ(encoded.value() - encoded_before, written.first);

    ExperimentConfig long_cfg = smallConfig(false, 40000);
    long_cfg.warmupRecords = 8000;
    SweepPlan long_plan = configPlan(long_cfg, 2);
    long_plan.checkpointEvery = 6000;
    encoded_before = encoded.value();
    const std::uint64_t verified_before = verified.value();
    ExperimentDriver extended;
    extended.applyPlan(long_plan);
    extended.setStore(std::make_shared<TraceStore>(dir_));
    extended.run({"dss-qry17"}, engineSpecs(engines));

    // Every cell resumed from its end-of-trace checkpoint of the
    // short run, so exactly those blobs were loaded.
    ASSERT_EQ(extended.resumedRuns(), 1u + engines.size());
    const auto loaded = stored(short_size, short_size);
    ASSERT_EQ(loaded.second, 1u + engines.size());
    EXPECT_EQ(verified.value() - verified_before,
              loaded.first - loaded.second * kHeaderBytes);
    const auto extension = stored(short_size + 1, ~std::uint64_t{0});
    EXPECT_EQ(extension.second, extended.checkpointsWritten());
    EXPECT_EQ(encoded.value() - encoded_before, extension.first);
}

TEST_F(SegmentedDriverTest, LanesResumingAtDifferentIndicesRunAsSeparatePasses)
{
    // Lanes of one pass share a front-end, so they start at one
    // index. With one lane's newest checkpoint gone, the extended
    // run resumes that lane from an older one in a pass of its own;
    // the results stay those of a storeless run.
    const std::vector<std::string> engines = {"sms", "stems"};
    ExperimentConfig short_cfg = smallConfig(false, 20000);
    short_cfg.warmupRecords = 8000;
    SweepPlan short_plan = configPlan(short_cfg, 2);
    short_plan.checkpointEvery = 6000;
    auto store = std::make_shared<TraceStore>(dir_);
    ExperimentDriver first;
    first.applyPlan(short_plan);
    first.setStore(store);
    first.run({"dss-qry17"}, engineSpecs(engines));
    const std::size_t short_size =
        makeWorkload("dss-qry17")->generate(short_cfg.seed, 20000).size();

    const std::uint64_t stems_spec =
        engineSpecDigest("stems", EngineOptions{});
    const std::uint64_t config = checkpointConfigDigest(short_cfg);
    auto keys = store->listCheckpoints(stems_spec, config);
    ASSERT_FALSE(keys.empty());
    auto newest = std::max_element(
        keys.begin(), keys.end(),
        [](const auto &a, const auto &b) { return a.index < b.index; });
    ASSERT_EQ(newest->index, short_size);
    store->dropCheckpoint(stems_spec, config, newest->index,
                          newest->stateDigest);
    ASSERT_EQ(store->listCheckpoints(stems_spec, config).size(),
              keys.size() - 1);

    ExperimentConfig long_cfg = smallConfig(false, 40000);
    long_cfg.warmupRecords = 8000;
    SweepPlan long_plan = configPlan(long_cfg, 2);
    long_plan.checkpointEvery = 6000;
    ExperimentDriver extended;
    extended.applyPlan(long_plan);
    extended.setStore(store);
    auto results = extended.run({"dss-qry17"}, engineSpecs(engines));

    // Baseline and sms resume at the short run's end; stems at its
    // last on-schedule checkpoint before it.
    EXPECT_EQ(extended.resumedRuns(), 3u);
    EXPECT_EQ(extended.resumedRecordsSkipped(),
              2 * short_size + (short_size / 6000) * 6000);

    ExperimentDriver reference(long_cfg, 2);
    expectSameResults(
        reference.run({"dss-qry17"}, engineSpecs(engines)), results);
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
