/**
 * @file
 * Batched trace execution: one pass over a trace advances N
 * simulation lanes behind one shared demand front-end.
 *
 * Each lane is a PrefetchSimulator with its own SVB, timing model,
 * SimStats and (optionally) prefetch engine. The L1 and the demand
 * L2 are a pure function of the demand stream (prefetches never fill
 * the L1; only L2-sink engines fill the L2), so the batch simulates
 * them once per record in one DemandFrontEnd and every lane consumes
 * its outcome. A lane whose engine fills the L2 copies the shared L2
 * just before its first fill and steps its private copy from then
 * on. Every lane's statistics and checkpoint bytes are bitwise
 * identical to what a standalone PrefetchSimulator::run over the
 * same trace produces (tests/sim_test.cc and
 * tests/checkpoint_test.cc pin this).
 *
 * Records are stepped record-major: the front-end steps a record,
 * then every lane steps it, so each lane's prefetch filter reads the
 * shared L2 exactly as it stands after the current record. The trace
 * is read once per record, in chunks.
 *
 * The ExperimentDriver uses this to run a workload's baseline, stride
 * and engine cells in one traversal (see SweepPlan::batch).
 */

#ifndef STEMS_SIM_BATCH_SIM_HH
#define STEMS_SIM_BATCH_SIM_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/prefetch_sim.hh"

namespace stems {

/**
 * Advances several PrefetchSimulators from a single read and a
 * single hierarchy step of each trace record.
 */
class BatchSimulator
{
  public:
    /**
     * Add one simulation lane, starting cold.
     *
     * @param params  system configuration for this lane; every lane
     *                of a batch shares one hierarchy geometry.
     * @param engine  attached engine; may be null (the no-prefetch
     *                baseline). Not owned; must outlive run().
     * @param warmup_records  leading records that train this lane
     *                without being measured (lanes may differ).
     * @return the lane's index, for stats()/simulator().
     */
    std::size_t addLane(const SimParams &params, Prefetcher *engine,
                        std::size_t warmup_records = 0);

    /**
     * Add a lane restored from a checkpoint: `restored` is a
     * standalone simulator holding the state at the batch's start
     * index (setStart), e.g. from decodeCheckpoint. The first
     * restored lane's hierarchy becomes the batch's front-end; a
     * later lane joins only if its L1 is state-equal to it
     * (Cache::stateEquals: the saveState bytes would match), and
     * reads the shared L2 only if its own L2 is state-equal to it
     * (it keeps its L2 private otherwise). A batch's lanes are
     * either all added cold or all restored.
     *
     * @return the lane's index, or lanes() unchanged when the
     *         lane's L1 disagrees (the lane is not added).
     */
    std::size_t addRestoredLane(std::unique_ptr<PrefetchSimulator> restored,
                                std::size_t warmup_records = 0);

    /** Number of lanes added. */
    std::size_t lanes() const { return lanes_.size(); }

    /**
     * One pass over an in-memory trace: each record is stepped
     * through the front-end and every lane, honoring per-lane
     * warmup, then every lane is finalized. Call at most once per
     * BatchSimulator.
     */
    void run(const Trace &trace);

    /** Statistics of one lane's measured window (valid after run). */
    const SimStats &stats(std::size_t lane) const
    {
        return lanes_.at(lane).sim->stats();
    }

    /** The lane's underlying simulator (e.g. for probe access). */
    PrefetchSimulator &simulator(std::size_t lane)
    {
        return *lanes_.at(lane).sim;
    }

    /**
     * Start every lane at a trace position instead of record 0:
     * records before `start_index` are skipped entirely. Restored
     * lanes must hold the matching checkpointed state
     * (sim/checkpoint.hh), which bakes in any warmup flip at or
     * before the start — the skipped records' flip checks are
     * skipped with them.
     */
    void setStart(std::size_t start_index) { start_ = start_index; }

    /**
     * Checkpoint boundaries, ascending and strictly greater than the
     * start index. At each boundary index i the boundary callback
     * fires for every lane after records [0, i) were stepped and
     * before the warmup-flip check of record i (the checkpoint
     * convention of sim/checkpoint.hh); a boundary equal to the
     * trace length fires after the last record, before finish().
     */
    void
    setBoundaries(std::vector<std::size_t> boundaries)
    {
        boundaries_ = std::move(boundaries);
    }

    /** Boundary observer: (lane, record index, lane simulator). */
    using BoundaryFn = std::function<void(
        std::size_t, std::size_t, PrefetchSimulator &)>;

    /** Register the boundary observer (one per batch). */
    void setBoundaryCallback(BoundaryFn fn)
    {
        boundary_ = std::move(fn);
    }

  private:
    struct Lane
    {
        std::unique_ptr<PrefetchSimulator> sim;
        std::size_t warmup = 0;
    };

    /// Records per trace chunk: the unit of the `batch.chunk` span.
    static constexpr std::size_t kChunkRecords = 65536;

    /** Step records at trace positions [first, first+count). */
    void runChunk(const MemRecord *records, std::size_t first,
                  std::size_t count);

    /** Fire the boundary callback for every lane at `index`. */
    void fireBoundary(std::size_t index);

    /** Fire end-of-trace boundaries, then finish every lane. */
    void finishAll(std::size_t total_records);

    /// Declared before lanes_: lanes unregister from it on
    /// destruction.
    std::unique_ptr<DemandFrontEnd> frontEnd_;
    std::vector<Lane> lanes_;
    std::size_t start_ = 0;
    std::vector<std::size_t> boundaries_;
    std::size_t nextBoundary_ = 0; ///< cursor into boundaries_
    BoundaryFn boundary_;
};

} // namespace stems

#endif // STEMS_SIM_BATCH_SIM_HH
