/**
 * @file
 * Stream queues — paper Sections 4.2 and 4.3.
 *
 * Eight LRU-managed queues hold predicted address sequences. A new
 * stream fetches a single block (confidence ramp); once a prefetched
 * block is consumed the stream is confirmed and keeps `lookahead`
 * blocks in flight. When a queue runs low it asks its refill source
 * (the reconstruction engine, for temporal streams) for more
 * addresses. A demand miss matching the head of a queue
 * re-synchronizes that stream instead of allocating a new one.
 */

#ifndef STEMS_CORE_STREAM_HH
#define STEMS_CORE_STREAM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/circular_buffer.hh"
#include "common/function_ref.hh"
#include "prefetch/prefetcher.hh"

namespace stems {

/** Stream-engine configuration (paper defaults). */
struct StreamParams
{
    std::size_t numStreams = 8;
    /// Blocks kept in flight per confirmed stream (8 commercial, 12
    /// scientific, Section 4.3).
    unsigned lookahead = 8;
    /// Refill the queue below this many pending addresses.
    std::size_t refillLowWater = 8;
    /// A miss matching one of the first N pending addresses of a
    /// stream re-synchronizes it.
    std::size_t resyncWindow = 4;
    /// Total outstanding prefetches across all streams (must stay
    /// below the SVB capacity; see TmsParams::maxGlobalInFlight).
    unsigned maxGlobalInFlight = 48;
};

/**
 * The set of stream queues feeding the SVB.
 */
class StreamQueueSet
{
  public:
    /**
     * Refill source: append more predicted addresses to the queue;
     * appending nothing marks the stream exhausted.
     *
     * The second argument is the stream's persistent refill cursor
     * (for temporal streams: the RMOB position to resume
     * reconstruction from). It lives in the queue, not in the
     * source, so one stateless source serves every refilling stream
     * of the set and the queue set can serialize the cursor at a
     * checkpoint.
     */
    using RefillFn = FunctionRef<void(RingQueue<Addr> &,
                                      std::uint64_t &)>;

    /**
     * @param refill  the refill source of every stream allocated
     *                with a cursor (may be null: all streams are
     *                finite). Not owned; it must outlive the set.
     */
    explicit StreamQueueSet(StreamParams params = {},
                            RefillFn refill = nullptr);

    /**
     * Allocate a stream (victimizing an idle or the LRU queue).
     *
     * @param first, last    predicted addresses, in order; copied
     *                       into the queue before anything else
     *                       runs (issuing the first prefetch may
     *                       refill).
     * @param confirmed      start past the confidence ramp
     *                       (spatial-only streams trust the pattern
     *                       immediately).
     * @param refill_cursor  present: the stream refills from the
     *                       set's refill source, starting from this
     *                       cursor; absent: a finite stream.
     * @return the stream id.
     */
    int allocate(const Addr *first, const Addr *last,
                 bool confirmed = false,
                 std::optional<std::uint64_t> refill_cursor =
                     std::nullopt);

    /**
     * Demand miss resync: when the address sits near the head of a
     * queue, skip to it and stream on.
     *
     * @return true when a stream claimed the miss.
     */
    bool resync(Addr a);

    /** A prefetched block of this stream was consumed. */
    void onHit(int stream_id);

    /** A prefetched block of this stream was discarded unused. */
    void onDrop(int stream_id);

    /** A request of this stream was filtered as already resident. */
    void onFiltered(int stream_id);

    /** Move pending prefetch requests into out. */
    void drainRequests(std::vector<PrefetchRequest> &out);

    /** Streams allocated so far (diagnostics). */
    std::uint64_t streamsAllocated() const { return allocated_; }

    /** Serialize the full queue-set state (checkpointing). A
     *  stream's refill state is its has-refill flag plus its
     *  cursor; the refill source itself belongs to the owner. */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState. */
    void loadState(StateReader &r);

  private:
    struct Stream
    {
        bool active = false;
        bool confirmed = false;
        bool exhausted = false; ///< refill produced nothing
        /// Flat ring, not std::deque: reset() keeps its storage, so
        /// steady-state stream turnover allocates nothing.
        RingQueue<Addr> pending;
        bool refills = false; ///< draws on the set's refill source
        /** Persistent cursor passed to the source (see RefillFn). */
        std::uint64_t refillState = 0;
        std::uint64_t lru = 0;
        int inFlight = 0;
        /** Reallocation tag: SVB entries issued by a previous owner
         *  of this queue must not credit the new one. */
        std::uint32_t generation = 0;

        /** Back to the idle state, retaining the ring's storage
         *  (the allocation-free turnover path; `*this = Stream{}`
         *  would free it). The generation tag survives so stale ids
         *  keep failing decodeId. */
        void
        reset()
        {
            active = false;
            confirmed = false;
            exhausted = false;
            pending.clear();
            refills = false;
            refillState = 0;
            lru = 0;
            inFlight = 0;
        }
    };

    /** Public stream id: queue index tagged with its generation. */
    static int
    encodeId(std::size_t index, std::uint32_t generation)
    {
        return static_cast<int>((generation << 4) |
                                static_cast<std::uint32_t>(index));
    }

    /** @return the stream, or null when the id is stale/invalid. */
    Stream *decodeId(int stream_id, std::size_t *index_out = nullptr);

    void issueFrom(Stream &s, int id);
    void maybeRefill(Stream &s);

    StreamParams params_;
    RefillFn refill_;
    int globalInFlight_ = 0;
    std::vector<Stream> streams_;
    std::uint64_t clock_ = 0;
    std::uint64_t allocated_ = 0;
    std::vector<PrefetchRequest> pendingReqs_;
};

} // namespace stems

#endif // STEMS_CORE_STREAM_HH
