/**
 * @file
 * Streamed Value Buffer (SVB).
 *
 * Prefetched blocks are placed in a small fully-associative buffer
 * rather than the caches (paper Section 4.2): a demand hit consumes the
 * entry (the block then moves into the caches and the owning stream
 * advances); an entry evicted or invalidated without being consumed is
 * an overprediction. The paper uses 64 entries for TMS/STeMS and a
 * 32-entry buffer for the baseline stride prefetcher.
 */

#ifndef STEMS_MEM_SVB_HH
#define STEMS_MEM_SVB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/**
 * Fully-associative prefetch buffer with LRU replacement.
 */
class StreamedValueBuffer
{
  public:
    /** One buffered prefetched block. */
    struct Entry
    {
        Addr addr = 0;       ///< block-aligned address
        int streamId = -1;   ///< owning stream queue (engine-defined)
        Cycles readyTime = 0; ///< when the fetch completes (timing)
    };

    /** Construct with a fixed entry count. */
    explicit StreamedValueBuffer(std::size_t capacity);

    /**
     * Insert a prefetched block.
     *
     * A re-insert of a resident address refreshes its recency. When the
     * buffer is full, the LRU entry is evicted.
     *
     * @return the evicted (never-consumed) entry, if any.
     */
    std::optional<Entry> insert(const Entry &e);

    /**
     * Demand lookup; the entry is removed (consumed) on hit.
     *
     * @return the consumed entry, if present.
     */
    std::optional<Entry> consume(Addr a);

    /** Presence check without consuming. */
    bool contains(Addr a) const;

    /**
     * Coherence invalidation; the entry is dropped.
     *
     * @return the dropped entry, if present.
     */
    std::optional<Entry> invalidate(Addr a);

    /**
     * Remove and return an arbitrary resident entry (end-of-run
     * drain). @return std::nullopt when the buffer is empty.
     */
    std::optional<Entry> consumeAny();

    /** Current number of buffered blocks. */
    std::size_t occupancy() const;

    /** Number of buffered blocks belonging to one stream. */
    std::size_t occupancyForStream(int stream_id) const;

    /** Fixed capacity. */
    std::size_t capacity() const { return lru_.size(); }

    /** Serialize the full buffer state (checkpointing). */
    void saveState(StateWriter &w) const;

    /** Restore state saved from an equal-capacity buffer; fails the
     *  reader on a capacity mismatch, and on slots no live buffer
     *  holds: an unaligned or duplicate address, or a stamp of 0 or
     *  above the saved clock. */
    void loadState(StateReader &r);

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    /// Address lane value of a free slot: unaligned, so it never
    /// equals a buffered block and a probe reads the address lane
    /// alone.
    static constexpr Addr kFreeAddr = 1;

    /** Slot holding block `key`, or kNone. */
    std::size_t find(Addr key) const;

    /** Take slot `i`'s entry and free the slot. */
    Entry release(std::size_t i);

    std::uint64_t clock_ = 0;
    /// Parallel slot lanes (structure-of-arrays). A free slot holds
    /// kFreeAddr and stamp 0, which the victim scan reads as older
    /// than any live slot, as in LruTable.
    std::vector<Addr> addr_;
    std::vector<std::uint64_t> lru_;
    std::vector<int> streamId_;
    std::vector<Cycles> readyTime_;
};

} // namespace stems

#endif // STEMS_MEM_SVB_HH
