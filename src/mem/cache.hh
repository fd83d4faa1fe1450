/**
 * @file
 * Set-associative cache model with LRU replacement, prefetch tagging
 * and eviction/invalidation callbacks.
 *
 * This is a functional (hit/miss) model: it tracks tags and metadata,
 * not data. Timing is layered on separately by src/sim/timing. The
 * lines live in an LruTable (common/lru_table.hh) keyed by block
 * number, indexed modulo the set count, with a one-byte flags value
 * per line.
 */

#ifndef STEMS_MEM_CACHE_HH
#define STEMS_MEM_CACHE_HH

#include <cstddef>
#include <optional>
#include <string>

#include "common/lru_table.hh"
#include "common/types.hh"

namespace stems {

class StateWriter;
class StateReader;

/**
 * A single-level, set-associative, LRU-replaced cache of 64 B blocks.
 */
class Cache
{
  public:
    /** Information about a block displaced by an insertion. */
    struct Victim
    {
        Addr addr = 0;        ///< block-aligned address evicted
        bool prefetched = false; ///< block was filled by a prefetch
        bool referenced = false; ///< block was demand-referenced

        /** A prefetched block leaving unused: an overprediction. */
        bool unusedPrefetch() const { return prefetched && !referenced; }
    };

    /**
     * Construct a cache.
     *
     * @param name        label used in statistics output.
     * @param size_bytes  total capacity; must be a multiple of the
     *                    block size times the associativity.
     * @param ways        associativity.
     */
    Cache(std::string name, std::size_t size_bytes, std::size_t ways);

    /** Outcome of a demand lookup. */
    enum class Lookup : std::uint8_t
    {
        kMiss,
        kHit,
        /** Hit on a block a prefetch filled that was never demand
         *  referenced before: the prefetch covered this access. */
        kPrefetchHit,
    };

    /**
     * Demand lookup, in one probe of the set. Promotes the block to
     * MRU and marks it referenced on hit. Does not allocate.
     */
    Lookup lookup(Addr a);

    /** Demand lookup (see lookup). @return true on hit. */
    bool access(Addr a) { return lookup(a) != Lookup::kMiss; }

    /** Non-destructive presence check (no LRU update). */
    bool contains(Addr a) const;

    /**
     * Insert a block (fill). Evicts the set's LRU block when needed.
     *
     * @param a           address of the block to fill.
     * @param prefetched  mark the block as a prefetch fill.
     * @return the displaced victim, if any.
     */
    std::optional<Victim> insert(Addr a, bool prefetched = false);

    /**
     * Invalidate a block if present.
     *
     * @return metadata of the invalidated block, if it was present.
     */
    std::optional<Victim> invalidate(Addr a);

    /**
     * Number of resident blocks filled by prefetches and never
     * demand-referenced (end-of-run overprediction sweep).
     */
    std::size_t unreferencedPrefetches() const;

    /** Number of sets. */
    std::size_t numSets() const { return lines_.sets(); }

    /** Associativity. */
    std::size_t numWays() const { return lines_.ways(); }

    /** Name given at construction. */
    const std::string &name() const { return name_; }

    /** Demand accesses observed. */
    std::uint64_t accesses() const { return accesses_; }

    /** Demand misses observed. */
    std::uint64_t misses() const { return misses_; }

    /** Serialize the full cache state (checkpointing). */
    void saveState(StateWriter &w) const;

    /**
     * Whether saveState would write the same bytes for both caches,
     * compared directly: geometry, clock, demand counters and every
     * line's validity, key, stamp and flags. Invalid lines compare
     * only their validity (a stale key is ignored); the name is not
     * part of the state.
     */
    bool stateEquals(const Cache &other) const;

    /** Restore state saved from an identically-shaped cache; fails
     *  the reader on a geometry mismatch. */
    void loadState(StateReader &r);

  private:
    /// Per-line flag bits (the table's value lane).
    static constexpr std::uint8_t kPrefetched = 1;
    static constexpr std::uint8_t kReferenced = 2;

    std::string name_;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    LruTable<std::uint8_t, ModuloSetIndex> lines_; ///< block number -> flags
};

} // namespace stems

#endif // STEMS_MEM_CACHE_HH
