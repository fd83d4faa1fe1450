/**
 * @file
 * Reconstruction engine — paper Section 4.2 and Figure 5.
 *
 * STeMS's key innovation: rebuilding the *total* predicted miss order
 * by interleaving the RMOB's temporal backbone with per-region PST
 * sequences. The initial miss goes to slot 0 of a 256-entry
 * reconstruction buffer; each subsequent RMOB entry advances the
 * temporal cursor by (delta + 1) slots; each PST element of a
 * predicted region advances that region's cursor by (delta + 1)
 * slots from its trigger. Collisions search up to two slots forward
 * or backward (paper: 99% of addresses place within +-2; 92% land in
 * their original slot — the displacement histogram feeds the
 * reconstruction ablation bench).
 */

#ifndef STEMS_CORE_RECONSTRUCTION_HH
#define STEMS_CORE_RECONSTRUCTION_HH

#include <vector>

#include "common/arena.hh"
#include "common/function_ref.hh"
#include "common/stats.hh"
#include "core/pst.hh"
#include "core/rmob.hh"

namespace stems {

class StateWriter;
class StateReader;

/** Reconstruction configuration (paper defaults). */
struct ReconstructionParams
{
    /// Reconstruction buffer slots.
    std::size_t bufferSlots = 256;
    /// Max displacement searched when a slot is occupied.
    unsigned displacementWindow = 2;
};

/**
 * Rebuilds windows of the predicted total miss order.
 */
class Reconstructor
{
  public:
    /**
     * @param rmob  temporal backbone (not owned).
     * @param pst   spatial sequences (not owned).
     */
    Reconstructor(const RegionMissOrderBuffer &rmob,
                  const PatternSequenceTable &pst,
                  ReconstructionParams params = {});

    /** Called with (region base, PST index) for each region whose
     *  spatial sequence a reconstruction used. */
    using RegionNote = FunctionRef<void(Addr, std::uint64_t)>;

    /** Result of reconstructing one window. */
    struct Window
    {
        /** Predicted miss order (slot 0 = the initiating miss): a
         *  view of the reconstructor's buffer, valid until its next
         *  reconstruct(). */
        Span<Addr> sequence;
        /** RMOB position to resume from for the next window. */
        RegionMissOrderBuffer::Position nextPos = 0;
        /** True when the RMOB had an entry at the start position. */
        bool valid = false;
    };

    /**
     * Reconstruct a window starting at an RMOB position.
     *
     * @param start_pos    RMOB position of the stream head.
     * @param note_region  optional: invoked with (region base, PST
     *                     index) for every region whose spatial
     *                     sequence was used — feeds the spatial-only
     *                     stream check of Section 4.2.
     */
    Window reconstruct(RegionMissOrderBuffer::Position start_pos,
                       RegionNote note_region = nullptr);

    /** Displacement histogram (0 = original slot), built from the
     *  per-displacement counts. */
    Histogram displacements() const;

    /** Addresses dropped because no free slot was within reach. */
    std::uint64_t dropped() const { return dropped_; }

    /** Windows reconstructed (diagnostics). */
    std::uint64_t windows() const { return windows_; }

    /** Serialize the reconstruction statistics (checkpointing). The
     *  RMOB/PST references are wiring; their state is saved by their
     *  owners. */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState. */
    void loadState(StateReader &r);

  private:
    /** Place an address near a slot; updates displacement stats. */
    bool place(std::vector<Addr> &slots, std::size_t slot, Addr a);

    /** Expand one RMOB entry's spatial sequence into the buffer. */
    void expandSpatial(std::vector<Addr> &slots,
                       std::size_t trigger_slot, const RmobEntry &entry,
                       RegionNote note_region);

    /** A backbone entry laid down in phase one (see reconstruct). */
    struct Placed
    {
        RmobEntry entry;
        std::size_t slot;
    };

    const RegionMissOrderBuffer &rmob_;
    const PatternSequenceTable &pst_;
    ReconstructionParams params_;
    /// The displacement search bound: the configured window, capped
    /// at the buffer length (no placement can land further away).
    std::size_t window_;
    /// Placements per displacement d in [-window_, +window_], at
    /// index d + window_. place() runs for every predicted address,
    /// so it counts in a flat array; displacements() and saveState()
    /// fold the array into Histogram form.
    std::vector<std::uint64_t> displacementCounts_;
    std::uint64_t dropped_ = 0;
    std::uint64_t windows_ = 0;
    /// Per-call scratch held as members so repeated reconstructions
    /// reuse capacity instead of reallocating (reconstruct() is on
    /// the per-miss hot path). Between calls only the last window's
    /// compacted prefix of slotScratch_ is live (Window::sequence).
    std::vector<Addr> slotScratch_;
    std::vector<Placed> backboneScratch_;
};

} // namespace stems

#endif // STEMS_CORE_RECONSTRUCTION_HH
