/**
 * @file
 * The trace-driven prefetch simulator: drives demand traffic through
 * L1 -> L2 -> (SVB) -> memory, feeds the training hooks of an attached
 * prefetch engine, materializes its prefetch requests, and accounts
 * coverage and overprediction the way the paper's Figure 9 does:
 *
 *  - covered:        a demand read that would have gone off-chip was
 *                    satisfied by a prefetched block (SVB hit or
 *                    prefetch-tagged L2 hit);
 *  - uncovered:      an off-chip demand read miss;
 *  - overpredicted:  a prefetched block discarded without use
 *                    (evicted, invalidated, or left over at the end).
 *
 * When timing is enabled, every access also flows through the
 * TimingModel, and prefetches are stamped with fetch-completion times
 * so late prefetches pay residual latency.
 *
 * The simulator is split in two. Prefetches never fill the L1, and
 * only L2-sink engines (SMS) fill the L2, so the L1 and, for every
 * other engine, the L2 are a pure function of the demand stream: a
 * DemandFrontEnd steps them once per record, and any number of lanes
 * (PrefetchSimulator: SVB, timing, statistics, engine) consume its
 * outcome. A lane reads the front-end's L2 until its engine's first
 * L2 fill, when it copies that L2 and owns the copy from then on. A
 * standalone PrefetchSimulator owns its front-end; a BatchSimulator
 * (sim/batch_sim.hh) shares one among its lanes.
 */

#ifndef STEMS_SIM_PREFETCH_SIM_HH
#define STEMS_SIM_PREFETCH_SIM_HH

#include <cassert>
#include <memory>
#include <unordered_map>

#include "mem/hierarchy.hh"
#include "mem/svb.hh"
#include "prefetch/prefetcher.hh"
#include "sim/timing.hh"
#include "trace/trace.hh"

namespace stems {

/** Simulator configuration. */
struct SimParams
{
    HierarchyParams hierarchy;
    bool enableTiming = false;
    TimingParams timing;
};

/** Aggregated simulation statistics (measured window only). */
struct SimStats
{
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t invalidates = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0; ///< ordinary L2 hits
    std::uint64_t l2PrefetchHits = 0; ///< covered via prefetch tag
    std::uint64_t svbHits = 0;        ///< covered via the SVB
    std::uint64_t offChipReads = 0;   ///< uncovered read misses
    std::uint64_t offChipWrites = 0;

    std::uint64_t prefetchesIssued = 0;
    std::uint64_t overpredictions = 0;

    double cycles = 0.0;
    std::uint64_t instructions = 0;

    /** Read misses eliminated by prefetching. */
    std::uint64_t covered() const { return svbHits + l2PrefetchHits; }

    /** Off-chip read events (baseline miss order length). */
    std::uint64_t
    offChipReadEvents() const
    {
        return covered() + offChipReads;
    }

    /** Aggregate user IPC (the paper's performance metric). */
    double
    ipc() const
    {
        return cycles > 0 ? instructions / cycles : 0.0;
    }
};

/**
 * The demand half of the hierarchy: the L1 and the demand L2,
 * stepped once per record however many lanes read them. The L2 is
 * stepped only while some lane reads it.
 */
struct DemandFrontEnd
{
    explicit DemandFrontEnd(const HierarchyParams &params)
        : hier(params)
    {
    }

    /** Step one record through the L1 and (while read) the L2. */
    DemandOutcome
    step(const MemRecord &r)
    {
        return hier.step(r.vaddr, r.isInvalidate(), l2Readers > 0);
    }

    Hierarchy hier;
    std::size_t l2Readers = 0; ///< lanes without a private L2
};

/**
 * Runs one engine (or none, for the no-prefetch baseline) over a
 * trace.
 */
class PrefetchSimulator
{
  public:
    /**
     * @param params  system configuration.
     * @param engine  attached engine; may be null (baseline). Not
     *                owned.
     */
    PrefetchSimulator(const SimParams &params, Prefetcher *engine);

    ~PrefetchSimulator();

    PrefetchSimulator(const PrefetchSimulator &) = delete;
    PrefetchSimulator &operator=(const PrefetchSimulator &) = delete;

    /** Process one record. Only a simulator that owns its
     *  front-end steps it; a batch steps its lanes itself. */
    void
    step(const MemRecord &r)
    {
        assert(ownFrontEnd_);
        advance(r, frontEnd_->step(r));
    }

    /**
     * Process a whole trace and finalize accounting.
     *
     * @param warmup_records  leading records that train state without
     *                        being measured.
     */
    void run(const Trace &trace, std::size_t warmup_records = 0);

    /** Enable/disable measurement (training always continues). */
    void setMeasuring(bool on);

    /** Flush end-of-run state (leftover prefetches become drops). */
    void finish();

    /** Statistics for the measured window. */
    const SimStats &stats() const { return stats_; }

    /** The attached engine (may be null). */
    Prefetcher *engine() const { return engine_; }

    /**
     * Serialize the complete simulator state — hierarchy, SVB,
     * timing, accounting, and the attached engine's state — so an
     * identically-constructed simulator can resume mid-trace
     * bitwise-exactly (sim/checkpoint.hh frames this into a
     * CRC-checked blob).
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState. The simulator must have
     * been constructed standalone, with the same SimParams and an
     * engine of the same specification (or none, matching the saved
     * run); structural mismatches fail the reader without touching
     * the trace contract. The restored L1 and L2 land in the
     * simulator's own front-end.
     */
    void loadState(StateReader &r);

  private:
    friend class BatchSimulator;

    /** A lane reading `shared` (a batch's front-end), or, when it
     *  is null, a standalone simulator with its own. */
    PrefetchSimulator(const SimParams &params, Prefetcher *engine,
                      DemandFrontEnd *shared);

    /** Step one record, given the front-end's outcome for it. */
    void advance(const MemRecord &r, const DemandOutcome &fe);

    /**
     * Move a restored standalone simulator onto a batch's
     * front-end: it reads the shared L2 only when its own L2 is
     * state-equal to it (Cache::stateEquals: the saveState bytes
     * would match), and keeps a private copy otherwise.
     *
     * @return false (nothing changed) when the L1s differ.
     */
    bool joinFrontEnd(DemandFrontEnd &shared);

    /** The L2 this lane reads. */
    const Cache &
    l2() const
    {
        return l2_ ? *l2_ : frontEnd_->hier.l2();
    }

    /** The lane's private L2, copied from the front-end's on the
     *  first call. */
    Cache &privateL2();

    void drainAndIssue();
    void handleSvbVictim(const StreamedValueBuffer::Entry &e);
    void handleL2Drop(Addr a);

    SimParams params_;
    std::unique_ptr<DemandFrontEnd> ownFrontEnd_; ///< standalone only
    DemandFrontEnd *frontEnd_;
    std::unique_ptr<Cache> l2_; ///< private L2; null while sharing
    std::unique_ptr<StreamedValueBuffer> svb_;
    TimingModel timing_;
    Prefetcher *engine_;

    /** Ready times of prefetch-tagged L2 blocks (timing only). */
    std::unordered_map<Addr, double> l2PrefetchReady_;

    std::uint64_t missSeq_ = 0;
    bool measuring_ = true;
    bool finished_ = false;
    double cyclesAtMeasureStart_ = 0.0;
    std::uint64_t instrAtMeasureStart_ = 0;
    SimStats stats_;
    std::vector<PrefetchRequest> reqScratch_;
};

} // namespace stems

#endif // STEMS_SIM_PREFETCH_SIM_HH
