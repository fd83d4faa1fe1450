/**
 * @file
 * micro_engines — per-component engine micro-costs.
 *
 * Times each STeMS predictor structure in isolation (AGT record +
 * end-generation, PST update/lookup, RMOB append/search, the
 * Reconstructor, StreamQueueSet advance, SVB probe, and the
 * open-addressing LruTable against the historical reference layout),
 * driven by a pinned stored trace so successive runs measure the same
 * operation sequence. These document the simulation cost of the
 * repository, not a result from the paper.
 *
 * Usage: micro_engines [records] [--records N] [--seed N]
 *                      [--workloads w] [--json FILE]
 * Each component loop runs `kRepeat` times and reports the best
 * (minimum-time) repetition, which filters scheduler noise without
 * averaging away the achievable cost. `--json FILE` writes a
 * "stems-micro-v1" snapshot (analysis/report.hh) — the format the
 * committed `bench/golden/BENCH_micro.json` baseline and the CI
 * perf-micro gate use; the optional STEMS_BENCH_COMMENT environment
 * variable lands in its comment field (hardware/compiler note).
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "../tests/reference_lru_table.hh"
#include "analysis/report.hh"
#include "bench/bench_util.hh"
#include "core/stems.hh"
#include "mem/svb.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

using namespace stems;

namespace {

/** Best-of repetitions per component (see file header). */
constexpr unsigned kRepeat = 3;

using Clock = std::chrono::steady_clock;

/** One timed component loop: best-of-kRepeat wall time for a fixed
 *  operation count. */
class Suite
{
  public:
    explicit Suite(const BenchOptions &opts) : opts_(opts) {}

    template <typename Fn>
    void
    component(const std::string &name, std::uint64_t ops, Fn &&body)
    {
        double best = 0.0;
        for (unsigned rep = 0; rep < kRepeat; ++rep) {
            auto t0 = Clock::now();
            body();
            double s =
                std::chrono::duration<double>(Clock::now() - t0)
                    .count();
            if (rep == 0 || s < best)
                best = s;
        }
        BenchComponentRow row;
        row.name = name;
        row.ops = ops;
        row.nsPerOp = ops ? best * 1e9 / static_cast<double>(ops)
                          : 0.0;
        row.opsPerSec = best > 0 ? static_cast<double>(ops) / best
                                 : 0.0;
        rows_.push_back(row);
        std::printf("%-24s %12llu ops  %10.1f ns/op  %12.0f ops/s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(ops),
                    row.nsPerOp, row.opsPerSec);
    }

    const std::vector<BenchComponentRow> &rows() const
    {
        return rows_;
    }

  private:
    BenchOptions opts_;
    std::vector<BenchComponentRow> rows_;
};

/** Defeat dead-code elimination of a computed value. */
volatile std::uint64_t g_sink;

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 200'000);
    BenchObsSession obs(opts, "micro_engines");
    std::fputs(banner("micro_engines: per-component costs", opts)
                   .c_str(),
               stdout);

    const std::string workload_name =
        benchWorkloads(opts, {"oltp-db2"}).front();

    // No driver sweep here either, but --plan-out still documents
    // the invocation (one workload, the default engine set).
    benchPlan(opts, /*timing=*/false, {workload_name},
              std::vector<std::string>{});
    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload_name.c_str());
        return 1;
    }

    // The driving events come from the stored-trace pipeline (the
    // same v2 decode a cold sweep pays), pinned by (workload, seed,
    // records) so every run times the identical sequence.
    Trace generated = workload->generate(opts.seed, opts.records);
    std::string trc = (std::filesystem::temp_directory_path() /
                       ("micro_engines_" +
                        std::to_string(::getpid()) + ".trc"))
                          .string();
    if (!writeTraceFileV2(trc, generated)) {
        std::fprintf(stderr, "cannot write %s\n", trc.c_str());
        return 1;
    }
    Trace().swap(generated);

    std::vector<MemRecord> events;
    {
        Trace stored;
        if (!readTraceFile(trc, stored)) {
            std::fprintf(stderr, "cannot read %s\n", trc.c_str());
            return 1;
        }
        for (const MemRecord &rec : stored)
            if (rec.kind == AccessKind::kRead)
                events.push_back(rec);
    }
    std::filesystem::remove(trc);
    const std::size_t n = events.size();
    if (n == 0) {
        std::fprintf(stderr, "trace produced no reads\n");
        return 1;
    }
    std::printf("driving trace: %s, %zu read records\n\n",
                workload_name.c_str(), n);

    Suite suite(opts);

    // ---- LruTable: open-addressing SoA vs reference layout -------
    // Identical keyed workload against both layouts; the ratio of
    // the two rows is the layout win.
    suite.component("lru-table", n, [&] {
        LruTable<std::uint64_t> t(4096, 8);
        std::uint64_t sum = 0;
        for (const MemRecord &e : events)
            sum += t.findOrInsert(blockNumber(e.vaddr)) += 1;
        g_sink = sum;
    });
    suite.component("lru-table-reference", n, [&] {
        ReferenceLruTable<std::uint64_t> t(4096, 8);
        std::uint64_t sum = 0;
        for (const MemRecord &e : events)
            sum += t.findOrInsert(blockNumber(e.vaddr)) += 1;
        g_sink = sum;
    });

    // ---- AGT: generation record + end ---------------------------
    suite.component("agt-record-end", n, [&] {
        StemsAgt agt;
        std::uint64_t ends = 0;
        auto on_end = [&](const StemsGeneration &) { ++ends; };
        agt.setEndCallback(on_end);
        std::uint64_t seq = 0;
        for (const MemRecord &e : events) {
            Addr region = regionBase(e.vaddr);
            unsigned off = regionOffset(e.vaddr);
            StemsGeneration *gen = agt.find(region);
            if (!gen) {
                StemsGeneration &g = agt.open(region);
                g.triggerPc16 = pc16Of(e.pc);
                g.triggerOffset = static_cast<std::uint8_t>(off);
                g.mask = 1u << off;
                g.accessMask = 1u << off;
            } else if (!gen->accessed(off)) {
                gen->sequence.push_back(
                    {static_cast<std::uint8_t>(off), 0});
                gen->mask |= 1u << off;
            }
            // Periodic evictions exercise the end-generation path.
            if ((++seq & 0x3F) == 0)
                agt.blockRemoved(events[seq % n].vaddr);
        }
        g_sink = ends;
    });

    // ---- PST: update and lookup ---------------------------------
    PatternSequenceTable pst;
    suite.component("pst-update", n, [&] {
        SpatialElement el[2];
        for (const MemRecord &e : events) {
            unsigned off = regionOffset(e.vaddr);
            el[0] = {static_cast<std::uint8_t>((off + 3) % 32), 0};
            el[1] = {static_cast<std::uint8_t>((off + 9) % 32), 1};
            pst.train(stemsPatternIndex(pc16Of(e.pc), off), el, 2,
                      (1u << off));
        }
    });
    suite.component("pst-lookup", n, [&] {
        std::uint64_t elements = 0;
        for (const MemRecord &e : events) {
            auto seq = pst.lookup(stemsPatternIndex(
                pc16Of(e.pc), regionOffset(e.vaddr)));
            if (seq)
                elements += seq->size() + 1;
        }
        g_sink = elements;
    });

    // ---- RMOB: append and search --------------------------------
    RegionMissOrderBuffer rmob(128 * 1024);
    suite.component("rmob-append", n, [&] {
        for (const MemRecord &e : events)
            rmob.append(e.vaddr, pc16Of(e.pc), 1);
    });
    suite.component("rmob-search", n, [&] {
        std::uint64_t hits = 0;
        for (const MemRecord &e : events)
            hits += rmob.lookup(e.vaddr).has_value();
        g_sink = hits;
    });

    // ---- Reconstructor ------------------------------------------
    // One window per 64 backbone entries over the RMOB/PST trained
    // above (the realistic call rate: one reconstruction per stream
    // start/refill, not per miss).
    const std::uint64_t recon_windows = n / 64 ? n / 64 : 1;
    suite.component("reconstructor", recon_windows, [&] {
        Reconstructor recon(rmob, pst);
        std::uint64_t produced = 0;
        RegionMissOrderBuffer::Position base = rmob.frontier() >
                                                       rmob.live()
                                                   ? rmob.frontier() -
                                                         rmob.live()
                                                   : 0;
        for (std::uint64_t i = 0; i < recon_windows; ++i) {
            auto w = recon.reconstruct(base + i * 64);
            produced += w.sequence.size();
        }
        g_sink = produced;
    });

    // ---- StreamQueueSet: allocate/advance -----------------------
    suite.component("stream-queues", n, [&] {
        std::uint64_t cursor = 0;
        auto refill = [&](RingQueue<Addr> &pending,
                          std::uint64_t &state) {
            for (unsigned i = 0; i < 16; ++i)
                pending.push_back(
                    events[(state + i) % n].vaddr);
            state += 16;
        };
        StreamQueueSet queues({}, refill);
        std::vector<Addr> initial(8);
        std::vector<PrefetchRequest> reqs;
        int id = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if ((i & 0xFF) == 0) {
                for (std::size_t k = 0; k < initial.size(); ++k)
                    initial[k] = events[(i + k) % n].vaddr;
                id = queues.allocate(initial.data(),
                                     initial.data() + initial.size(),
                                     /*confirmed=*/false, cursor);
            }
            queues.onHit(id);
            if ((i & 0x1F) == 0) {
                reqs.clear();
                queues.drainRequests(reqs);
            }
        }
        g_sink = queues.streamsAllocated();
    });

    // ---- SVB: insert/probe/consume ------------------------------
    suite.component("svb-probe", n, [&] {
        StreamedValueBuffer svb(64);
        std::uint64_t consumed = 0;
        for (std::size_t i = 0; i < n; ++i) {
            Addr block = blockAlign(events[i].vaddr);
            svb.insert({block, 1, 0});
            consumed += svb.contains(block);
            // Consume what an earlier insert left behind.
            consumed +=
                svb.consume(blockAlign(events[i / 2].vaddr))
                    .has_value();
        }
        g_sink = consumed;
    });

    // ---- snapshot ------------------------------------------------
    if (!opts.jsonPath.empty()) {
        BenchSnapshot snap;
        snap.schema = "stems-micro-v1";
        snap.records = opts.records;
        snap.seed = opts.seed;
        snap.repeat = kRepeat;
        snap.workloads = {workload_name};
        if (const char *c = std::getenv("STEMS_BENCH_COMMENT"))
            snap.comment = c;
        snap.components = suite.rows();
        std::string error;
        if (!writeBenchSnapshotJson(opts.jsonPath, snap, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[micro] wrote %s\n",
                     opts.jsonPath.c_str());
    }
    obs.finish();
    return 0;
}
