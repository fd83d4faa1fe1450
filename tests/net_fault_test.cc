/**
 * @file
 * Fault-injection battery for the distributed work units
 * (net/units.hh): decomposition properties (every cell covered
 * exactly once at every granularity, resume bookkeeping that tracks
 * the store's committed checkpoints), and the end-to-end contract
 * that a
 * coordinator plus workers — through worker churn, mid-frame
 * disconnects, duplicate completions, stalled units and
 * reconnect-resume — always produces results bitwise identical to a
 * single-process sweep. Faults may cost wall-clock (requeues,
 * re-execution); they must never cost correctness.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "net/coord.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "net/units.hh"
#include "net/worker.hh"
#include "obs/metrics.hh"
#include "sim/driver.hh"
#include "store/trace_store.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

std::uint64_t
counterDelta(const MetricsSnapshot &before,
             const MetricsSnapshot &after, const char *name)
{
    auto get = [&](const MetricsSnapshot &s) {
        auto it = s.counters.find(name);
        return it == s.counters.end() ? std::uint64_t(0)
                                      : it->second;
    };
    return get(after) - get(before);
}

class NetFaultTest : public test::TempDirTest
{
  protected:
    SweepPlan
    planFor(UnitGranularity granularity,
            std::vector<std::string> workloads) const
    {
        SweepPlan plan;
        plan.workloads = std::move(workloads);
        plan.engines = {PlanEngine{"tms", "", {}},
                        PlanEngine{"stems", "", {}}};
        plan.records = 20'000;
        plan.jobs = 2;
        plan.checkpointEvery = 5'000;
        plan.unitGranularity = granularity;
        return plan;
    }

    std::vector<WorkloadResult>
    referenceRun(const SweepPlan &plan) const
    {
        ExperimentDriver driver;
        return driver.run(plan);
    }

    struct ScenarioResult
    {
        std::vector<WorkloadResult> results;
        std::vector<WorkerReport> reports;
        std::size_t unitCount = 0;
        std::uint64_t completed = 0;
        std::uint64_t requeued = 0;
        std::uint64_t resumed = 0;
    };

    /** The store subdirectory a scenario tagged `tag` runs in. */
    std::string
    storeDir(const std::string &tag) const
    {
        return dir_ + "/" + tag;
    }

    /** A one-workload cell-unit plan whose checkpoints carry over
     *  between record counts: absolute warmup, so the simulated
     *  prefix is the same at any length. */
    SweepPlan
    resumePlan() const
    {
        SweepPlan plan = planFor(UnitGranularity::kCell, {"oltp-db2"});
        plan.warmupRecords = 5'000;
        return plan;
    }

    /** Leave `tag`'s store as an earlier sweep of the same plan at
     *  half the length does: the trace prefix's checkpoints on the
     *  shared schedule, up to the shorter trace's end. */
    void
    seedHalfLength(const SweepPlan &plan, const std::string &tag)
    {
        SweepPlan half = plan;
        half.records = plan.records / 2;
        std::filesystem::create_directories(storeDir(tag));
        ExperimentDriver driver;
        driver.setStore(std::make_shared<TraceStore>(storeDir(tag)));
        driver.run(half);
    }

    /** One distributed sweep in the store subdirectory `tag`: serve
     *  the plan's units to the given workers, merge over the warm
     *  store. */
    ScenarioResult
    runScenario(const SweepPlan &plan, const std::string &tag,
                std::vector<WorkerOptions> workers,
                double grace_seconds = 0.4,
                double unit_timeout_seconds = 0.0)
    {
        ScenarioResult out;
        const std::string store_dir = storeDir(tag);
        std::filesystem::create_directories(store_dir);
        auto store = std::make_shared<TraceStore>(store_dir);
        EXPECT_TRUE(store->usable());

        std::string error;
        SweepCoordinator coord(plan);
        EXPECT_GT(coord.unitCount(), 0u);
        coord.setResumeGraceSeconds(grace_seconds);
        coord.setUnitTimeoutSeconds(unit_timeout_seconds);
        EXPECT_TRUE(coord.listen(0, &error)) << error;

        std::vector<std::thread> threads;
        out.reports.resize(workers.size());
        std::vector<std::string> worker_errors(workers.size());
        // One byte per slot: vector<bool> packs neighbours into one
        // word, so concurrent writes from the worker threads race.
        std::vector<char> worker_ok(workers.size(), 0);
        for (std::size_t i = 0; i < workers.size(); ++i) {
            workers[i].storeDir = store_dir;
            workers[i].port = coord.port();
            threads.emplace_back([&, i] {
                worker_ok[i] =
                    runWorker(workers[i], &out.reports[i],
                              &worker_errors[i]);
            });
        }
        const bool served = coord.serve(120.0, &error);
        for (std::thread &t : threads)
            t.join();
        EXPECT_TRUE(served) << error;
        for (std::size_t i = 0; i < workers.size(); ++i)
            EXPECT_TRUE(worker_ok[i])
                << "worker " << i << ": " << worker_errors[i];

        out.unitCount = coord.unitCount();
        out.completed = coord.unitsCompleted();
        out.requeued = coord.unitsRequeued();
        out.resumed = coord.unitsResumed();
        EXPECT_EQ(out.completed, out.unitCount);

        ExperimentDriver merge;
        merge.setStore(store);
        out.results = merge.run(plan);
        return out;
    }

    /** The {clean 1-worker, abandon 2-worker, drop-resume 2-worker,
     *  mixed 4-worker} fault matrix at one granularity: every
     *  scenario must reproduce the single-process sweep bitwise. */
    void
    runFaultMatrix(UnitGranularity granularity)
    {
        const SweepPlan plan =
            planFor(granularity, {"oltp-db2", "web-apache"});
        const auto reference = referenceRun(plan);

        // Short re-connect window: a worker whose sweep finished
        // without it (coordinator no longer listening) should
        // conclude so quickly, not pad the test run.
        WorkerOptions steady;
        steady.connectTimeoutSeconds = 2.0;
        WorkerOptions quitter = steady;
        quitter.abandonAfterUnits = 1;
        WorkerOptions dropper = steady;
        dropper.dropAfterUnits = 1;
        dropper.reconnectStallSeconds = 0.5;

        {
            SCOPED_TRACE("clean one worker");
            auto got = runScenario(plan, "clean", {steady});
            EXPECT_EQ(got.requeued, 0u);
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("abandoning worker, two workers");
            auto got =
                runScenario(plan, "abandon", {quitter, steady});
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("dropping/resuming worker, two workers");
            auto got =
                runScenario(plan, "resume", {dropper, steady});
            test::expectSameResults(got.results, reference);
        }
        {
            SCOPED_TRACE("mixed faults, four workers");
            auto got = runScenario(
                plan, "mixed",
                {quitter, dropper, steady, steady});
            test::expectSameResults(got.results, reference);
        }
    }
};

// ---- decomposition properties ------------------------------------

TEST_F(NetFaultTest, WorkloadAndCellDecompositionCoverExactlyOnce)
{
    const SweepPlan base =
        planFor(UnitGranularity::kWorkload,
                {"oltp-db2", "web-apache", "em3d"});

    auto whole = decomposeSweepPlan(base);
    ASSERT_EQ(whole.size(), base.workloads.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
        EXPECT_EQ(whole[i].kind, UnitKind::kWorkload);
        EXPECT_EQ(whole[i].workload, base.workloads[i]);
    }

    SweepPlan cell_plan = base;
    cell_plan.unitGranularity = UnitGranularity::kCell;
    auto cells = decomposeSweepPlan(cell_plan);
    // One unit per (workload, column), columns = baseline + each
    // engine, each pair exactly once.
    std::map<std::pair<std::string, std::int32_t>, int> seen;
    for (const WorkUnit &u : cells) {
        EXPECT_EQ(u.kind, UnitKind::kCell);
        seen[{u.workload, u.column}]++;
    }
    EXPECT_EQ(cells.size(),
              base.workloads.size() * (1 + base.engines.size()));
    for (const std::string &w : base.workloads)
        for (std::int32_t c = -1;
             c < static_cast<std::int32_t>(base.engines.size());
             ++c)
            EXPECT_EQ((seen[{w, c}]), 1)
                << w << " column " << c;
}

TEST_F(NetFaultTest, ResumeBookkeepingTracksCommittedCheckpoints)
{
    const SweepPlan plan = resumePlan();
    const auto units = decomposeSweepPlan(plan);
    ASSERT_EQ(units.size(), 1 + plan.engines.size());
    std::filesystem::create_directories(storeDir("bookkeeping"));
    auto store = std::make_shared<TraceStore>(storeDir("bookkeeping"));

    // The worker resumes a unit it was executing, so the unit's
    // trace is already in the store by then.
    const TraceKey key{"oltp-db2", plan.records, plan.seed};
    const Trace trace =
        WorkloadRegistry::instance().make("oltp-db2")->generate(
            plan.seed, static_cast<std::size_t>(plan.records));
    ASSERT_TRUE(store->putTrace(key, trace));

    // Cold store: nothing committed, nothing to resume from.
    for (const WorkUnit &u : units)
        EXPECT_EQ(unitLastCheckpointIndex(plan, u, *store), 0u)
            << "column " << u.column;

    // A half-length sweep committed checkpoints up to its own
    // trace end, which is a prefix of this trace: every cell
    // reports exactly that end, the newest trusted checkpoint.
    seedHalfLength(plan, "bookkeeping");
    const std::size_t half_size =
        WorkloadRegistry::instance()
            .make("oltp-db2")
            ->generate(plan.seed,
                       static_cast<std::size_t>(plan.records / 2))
            .size();
    ASSERT_LT(half_size, trace.size());
    for (const WorkUnit &u : units)
        EXPECT_EQ(unitLastCheckpointIndex(plan, u, *store), half_size)
            << "column " << u.column;

    // After the full sweep the newest is the trace end, never
    // anything beyond it; a whole-workload unit spans many cells
    // and always reports 0.
    ExperimentDriver driver;
    driver.setStore(store);
    driver.run(plan);
    for (const WorkUnit &u : units)
        EXPECT_EQ(unitLastCheckpointIndex(plan, u, *store),
                  trace.size())
            << "column " << u.column;
    WorkUnit whole;
    whole.workload = "oltp-db2";
    EXPECT_EQ(unitLastCheckpointIndex(plan, whole, *store), 0u);
}

// ---- fault matrix, one granularity per test ----------------------

TEST_F(NetFaultTest, FaultMatrixWholeWorkloadUnits)
{
    runFaultMatrix(UnitGranularity::kWorkload);
}

TEST_F(NetFaultTest, FaultMatrixCellUnits)
{
    runFaultMatrix(UnitGranularity::kCell);
}

// ---- targeted fault scenarios ------------------------------------

TEST_F(NetFaultTest, ReconnectResumeSkipsCommittedPrefix)
{
    // One worker, cell units over a store an earlier half-length
    // sweep left checkpoints in: the worker completes the first
    // cell, drops the connection while holding the second, stalls,
    // reconnects under its session and resumes — from the
    // committed checkpoint, not from record 0.
    const SweepPlan plan = resumePlan();
    const auto reference = referenceRun(plan);
    seedHalfLength(plan, "resume-metrics");

    WorkerOptions dropper;
    dropper.dropAfterUnits = 1;
    dropper.reconnectStallSeconds = 0.5;

    const MetricsSnapshot before =
        MetricsRegistry::instance().snapshot();
    auto got = runScenario(plan, "resume-metrics", {dropper},
                           /*grace_seconds=*/5.0);
    const MetricsSnapshot after =
        MetricsRegistry::instance().snapshot();

    EXPECT_GE(got.reports[0].unitsResumed, 1u);
    EXPECT_GE(got.reports[0].reconnects, 1u);
    EXPECT_GE(got.resumed, 1u);
    EXPECT_GE(counterDelta(before, after, "net.unit.resumed"), 1u);
    EXPECT_GT(counterDelta(before, after,
                           "ckpt.resume.skipped_records"),
              0u);
    test::expectSameResults(got.results, reference);
}

TEST_F(NetFaultTest, MidFrameDisconnectAndGarbageAreTolerated)
{
    // A peer that dies halfway through a frame, and one that speaks
    // a different protocol entirely: both must be shed without
    // disturbing the sweep the real worker completes.
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2"});
    const auto reference = referenceRun(plan);

    const std::string store_dir = dir_ + "/midframe";
    std::filesystem::create_directories(store_dir);
    auto store = std::make_shared<TraceStore>(store_dir);
    SweepCoordinator coord(plan);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    std::thread half_frame([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        HelloMsg hello;
        const auto wire =
            encodeFrame(kMsgHello, encodeHello(hello));
        // First half of the frame, then gone mid-message.
        ::send(fd, wire.data(), wire.size() / 2, 0);
        ::close(fd);
    });
    std::thread garbage([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ::send(fd, junk, sizeof(junk) - 1, 0);
        ::close(fd);
    });

    WorkerOptions worker;
    worker.storeDir = store_dir;
    worker.port = coord.port();
    bool worker_ok = false;
    std::string worker_error;
    std::thread worker_thread([&] {
        worker_ok = runWorker(worker, nullptr, &worker_error);
    });
    EXPECT_TRUE(coord.serve(120.0, &error)) << error;
    half_frame.join();
    garbage.join();
    worker_thread.join();
    EXPECT_TRUE(worker_ok) << worker_error;
    EXPECT_EQ(coord.unitsCompleted(), coord.unitCount());

    ExperimentDriver merge;
    merge.setStore(store);
    test::expectSameResults(merge.run(plan), reference);
}

TEST_F(NetFaultTest, DuplicateUnitDoneIsIdempotent)
{
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2", "em3d"});
    const auto reference = referenceRun(plan);

    WorkerOptions chatty;
    chatty.duplicateUnitDone = true;
    // The coordinator may finish the sweep with this worker's
    // duplicate kUnitDone still unread, so the close can surface as
    // a reset rather than a kBye; the worker's graceful
    // unanswered-reconnect exit covers it — quickly.
    chatty.connectTimeoutSeconds = 2.0;
    auto got =
        runScenario(plan, "dup-done", {chatty, chatty});
    // Exactly one completion per unit despite every kUnitDone
    // arriving twice.
    EXPECT_EQ(got.completed, got.unitCount);
    test::expectSameResults(got.results, reference);
}

TEST_F(NetFaultTest, WatchdogRequeuesUnitHeldByStalledWorker)
{
    // A worker that accepts a unit and then hangs forever: the
    // slow-worker watchdog must reclaim the unit so the steady
    // worker can finish the sweep.
    const SweepPlan plan =
        planFor(UnitGranularity::kCell, {"oltp-db2"});
    const auto reference = referenceRun(plan);

    const std::string store_dir = dir_ + "/watchdog";
    std::filesystem::create_directories(store_dir);
    auto store = std::make_shared<TraceStore>(store_dir);
    SweepCoordinator coord(plan);
    coord.setUnitTimeoutSeconds(0.75);
    coord.setResumeGraceSeconds(0.2);
    std::string error;
    ASSERT_TRUE(coord.listen(0, &error)) << error;

    const MetricsSnapshot before =
        MetricsRegistry::instance().snapshot();

    std::thread staller([&] {
        int fd = connectWithRetry("127.0.0.1", coord.port(), 5.0);
        ASSERT_GE(fd, 0);
        FramedConn conn(fd);
        HelloMsg hello;
        ASSERT_TRUE(conn.sendFrame(kMsgHello, encodeHello(hello)));
        Frame frame;
        ASSERT_TRUE(conn.recvFrame(frame));
        ASSERT_EQ(frame.type, kMsgPlan);
        PlanMsg plan_msg;
        ASSERT_TRUE(decodePlanMsg(frame.payload, plan_msg));
        PlanAckMsg ack;
        ack.planDigest = plan_msg.planDigest;
        ASSERT_TRUE(
            conn.sendFrame(kMsgPlanAck, encodePlanAck(ack)));
        ASSERT_TRUE(conn.sendFrame(kMsgRequestUnit, {}));
        ASSERT_TRUE(conn.recvFrame(frame));
        ASSERT_EQ(frame.type, kMsgUnit);
        // ... and never a word again. The watchdog must cut this
        // connection; recvFrame returning false is that cut.
        Frame cut;
        EXPECT_FALSE(conn.recvFrame(cut));
    });

    // Start the steady worker only after the staller grabbed its
    // unit — retry loops in connectWithRetry keep this simple:
    // both race the same coordinator, and the watchdog sorts out
    // whichever unit the staller ends up holding.
    WorkerOptions steady;
    steady.storeDir = store_dir;
    steady.port = coord.port();
    bool worker_ok = false;
    std::string worker_error;
    std::thread worker_thread([&] {
        worker_ok = runWorker(steady, nullptr, &worker_error);
    });

    EXPECT_TRUE(coord.serve(120.0, &error)) << error;
    staller.join();
    worker_thread.join();
    EXPECT_TRUE(worker_ok) << worker_error;
    EXPECT_EQ(coord.unitsCompleted(), coord.unitCount());
    EXPECT_GE(coord.unitsRequeued(), 1u);

    const MetricsSnapshot after =
        MetricsRegistry::instance().snapshot();
    EXPECT_GE(counterDelta(before, after, "coord.units.watchdog"),
              1u);

    ExperimentDriver merge;
    merge.setStore(store);
    test::expectSameResults(merge.run(plan), reference);
}

} // namespace
} // namespace stems
