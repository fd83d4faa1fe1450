/**
 * @file
 * micro_batch — quantifies the batched-execution win: records/sec of
 * one N-engine BatchSimulator pass over a stored trace versus N
 * single-engine passes, each of which (as N independent cold runs
 * would) decodes the trace from the store format itself. This
 * documents the cost model of the repository's execution paths, not
 * a result from the paper.
 *
 * Usage: micro_batch [records] [--records N] [--seed N]
 *                    [--workloads w] [--engines x,y] [--help]
 * The first selected workload provides the trace; the engine list
 * provides the lanes (default: every registered engine plus a
 * deep-lookahead STeMS variant, 6 lanes).
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "prefetch/engine_registry.hh"
#include "sim/batch_sim.hh"
#include "sim/config.hh"
#include "trace/trace_io.hh"
#include "trace/trace_source.hh"
#include "workloads/registry.hh"

using namespace stems;

namespace {

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

struct LaneSpec
{
    std::string label;
    std::string engine;
    EngineOptions options;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 400'000);
    BenchObsSession obs(opts, "micro_batch");
    requireNoPerf(opts, "micro_batch reports its own timings; the perf snapshot comes from fig9/micro_engines");
    requireNoJson(opts, "micro_batch reports timings, not sweep "
                        "results");
    std::fputs(banner("micro_batch: 1-vs-N engine trace passes",
                      opts)
                   .c_str(),
               stdout);

    std::vector<LaneSpec> lanes;
    if (opts.engines.empty()) {
        for (const std::string &name :
             EngineRegistry::instance().names())
            lanes.push_back({name, name, {}});
        LaneSpec deep{"stems-la24", "stems", {}};
        deep.options.lookahead = 24;
        lanes.push_back(deep);
    } else {
        for (const std::string &name : opts.engines)
            lanes.push_back({name, name, {}});
    }

    const std::string workload_name =
        benchWorkloads(opts, {"oltp-db2"}).front();
    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 1;
    }

    // No driver sweep here, but --plan-out still documents the
    // invocation as a plan (one workload, the measured lanes).
    {
        std::vector<PlanEngine> columns;
        for (const LaneSpec &lane : lanes)
            columns.push_back(
                PlanEngine{lane.engine, lane.label, lane.options});
        benchPlan(opts, /*timing=*/false, {workload_name},
                  std::move(columns));
    }

    // The trace sits in the on-disk v2 store format; every pass
    // below replays it through the mmap decoder, exactly as a cold
    // run replaying a stored trace would.
    Trace trace = workload->generate(opts.seed, opts.records);
    const std::size_t n = trace.size();
    const std::size_t warmup = n / 2;
    std::string trc = (std::filesystem::temp_directory_path() /
                       ("micro_batch_" +
                        std::to_string(::getpid()) + ".trc"))
                          .string();
    if (!writeTraceFileV2(trc, trace)) {
        std::fprintf(stderr, "cannot write %s\n", trc.c_str());
        return 1;
    }
    Trace().swap(trace);

    SystemConfig system = defaultSystemConfig();
    SimParams sim_params;
    sim_params.hierarchy = system.hierarchy;

    const EngineRegistry &registry = EngineRegistry::instance();
    bool scientific =
        workload->workloadClass() == WorkloadClass::kScientific;
    auto make_engine = [&](const LaneSpec &lane) {
        EngineOptions options = lane.options;
        options.scientific = options.scientific || scientific;
        return registry.make(lane.engine, system, options);
    };

    auto open_source = [&]() {
        auto src = MmapTraceSource::open(trc);
        if (!src) {
            std::fprintf(stderr, "cannot replay %s\n", trc.c_str());
            std::exit(1);
        }
        return src;
    };

    // ---- N single-engine passes: decode + simulate, per engine ----
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> single_issued;
    for (const LaneSpec &lane : lanes) {
        auto src = open_source();
        auto engine = make_engine(lane);
        PrefetchSimulator sim(sim_params, engine.get());
        sim.run(*src, warmup);
        single_issued.push_back(sim.stats().prefetchesIssued);
    }
    auto t1 = std::chrono::steady_clock::now();
    double single_s = seconds(t0, t1);

    // ---- one batched N-engine pass: decode once ----
    auto run_batched = [&] {
        auto src = open_source();
        BatchSimulator sim;
        std::vector<std::unique_ptr<Prefetcher>> engines;
        for (const LaneSpec &lane : lanes) {
            engines.push_back(make_engine(lane));
            sim.addLane(sim_params, engines.back().get(), warmup);
        }
        auto b0 = std::chrono::steady_clock::now();
        sim.run(*src);
        auto b1 = std::chrono::steady_clock::now();
        // The batch must reproduce every single pass bitwise.
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            if (sim.stats(i).prefetchesIssued != single_issued[i]) {
                std::fprintf(stderr,
                             "lane %s diverged from its single "
                             "pass\n",
                             lanes[i].label.c_str());
                std::exit(1);
            }
        }
        return seconds(b0, b1);
    };
    double batch_s = run_batched();

    std::filesystem::remove(trc);

    double work = static_cast<double>(n) *
                  static_cast<double>(lanes.size());
    std::printf("\ntrace: %s, %zu records (v2 store format), "
                "%zu lanes\n",
                workload_name.c_str(), n, lanes.size());
    std::printf("%-34s %8.3f s  %12.0f rec/s\n",
                "single-engine passes (xN)", single_s,
                work / single_s);
    std::printf("%-34s %8.3f s  %12.0f rec/s  (%.2fx)\n",
                "batched pass", batch_s, work / batch_s,
                single_s / batch_s);
    obs.finish();
    return 0;
}
