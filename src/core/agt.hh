/**
 * @file
 * STeMS Active Generation Table (AGT) — paper Sections 4.1 and 4.3.
 *
 * Unlike the SMS AGT (a bit vector per active region), the STeMS AGT
 * accumulates the *sequence* of misses within each active generation
 * together with their reconstruction deltas, and remembers the PST
 * snapshot taken at the trigger (used to filter spatially predicted
 * misses out of the RMOB). 64 entries of a 40-byte sequence = 2.5 KB
 * of SRAM (paper Section 4.3).
 */

#ifndef STEMS_CORE_AGT_HH
#define STEMS_CORE_AGT_HH

#include "common/arena.hh"
#include "common/function_ref.hh"
#include "common/lru_table.hh"
#include "core/pst.hh"

namespace stems {

class StateWriter;
class StateReader;

/** One active STeMS generation. */
struct StemsGeneration
{
    Addr regionBase = 0;
    std::uint16_t triggerPc16 = 0;
    std::uint8_t triggerOffset = 0;
    std::uint64_t index = 0; ///< stemsPatternIndex of the trigger
    std::uint32_t mask = 0;  ///< offsets missed this generation
    /** Offsets touched by any L1 access this generation. Counters
     *  train from this (hysteresis must not erode on L2 hits); the
     *  sequence/deltas come from the misses only. */
    std::uint32_t accessMask = 0;
    /** Non-trigger misses in first-access order, with deltas. At
     *  most one element per block offset, so the hard cap is
     *  kBlocksPerRegion — inline storage keeps a generation heap-free
     *  and the whole entry memcpy-copyable. */
    InlineVec<SpatialElement, kBlocksPerRegion> sequence;
    /** Global miss sequence number of the last access recorded. */
    std::uint64_t lastSeq = 0;
    /** PST snapshot at trigger time: offsets predicted spatially. */
    std::uint32_t predictedMask = 0;
    /** Spatial-only stream check already performed. */
    bool spatialChecked = false;

    bool
    accessed(unsigned offset) const
    {
        return ((mask | accessMask) >> offset) & 1u;
    }
};

/** AGT configuration. */
struct StemsAgtParams
{
    std::size_t entries = 64;
};

/**
 * The STeMS active generation table.
 */
class StemsAgt
{
  public:
    /** Called with generations as they end (feeds PST training).
     *  Non-owning: the callable must outlive the table's use. */
    using EndCallback = FunctionRef<void(const StemsGeneration &)>;

    explicit StemsAgt(StemsAgtParams params = {});

    /** Register the generation-end observer. */
    void setEndCallback(EndCallback cb) { onEnd_ = cb; }

    /** Active generation for a region, or nullptr. */
    StemsGeneration *find(Addr region_base);

    /**
     * Open a generation for a region (capacity eviction ends the
     * victim's generation via the callback).
     *
     * @return the fresh generation.
     */
    StemsGeneration &open(Addr region_base);

    /**
     * A block left the L1; ends the covering generation when the
     * block was missed during it.
     */
    void blockRemoved(Addr a);

    /** Active generation count (diagnostics). */
    std::size_t active() const { return table_.occupancy(); }

    /** Serialize every active generation (checkpointing). The end
     *  callback is wiring; the owner re-registers it. */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an identical geometry. */
    void loadState(StateReader &r);

  private:
    LruTable<StemsGeneration> table_; ///< keyed by region number
    EndCallback onEnd_;
};

} // namespace stems

#endif // STEMS_CORE_AGT_HH
