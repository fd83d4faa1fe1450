/**
 * @file
 * Set-associative, LRU-replaced lookup table.
 *
 * The finite predictor structures in this repository (SMS PHT, STeMS
 * PST, AGT, stride table) are all bounded set-associative tables with
 * LRU replacement; this template captures that discipline once.
 *
 * Layout: structure-of-arrays. Keys, LRU stamps and values live in
 * three parallel arrays indexed by slot (set * ways + way). A lookup
 * probes the set's key lane — one contiguous cache line of keys for
 * typical associativities — and touches the value lane just on a
 * hit; the hot miss path never drags value bytes (40-byte PST
 * entries, AGT generations) through the cache. There is no validity
 * lane: a slot is invalid exactly when its stamp is 0, because
 * touch() stamps from 1 and erase() zeroes the stamp. That makes the
 * victim scan a branchless running-min over the set's contiguous
 * stamp lane (conditional moves, no data-dependent branches to
 * mispredict on random recency order) which picks the first free way
 * or the first-index LRU way in one pass.
 *
 * Replacement semantics are identical to the historical
 * array-of-structs implementation (kept as the property-test oracle
 * in tests/reference_lru_table.hh): first invalid way, else the
 * lowest-stamp way, first-index tie-break; the serialized state is
 * byte-identical as well.
 *
 * The set-index policy is a template parameter: predictor tables
 * hash their structured keys (HashedSetIndex, the default), while
 * the cache model (mem/cache.hh) indexes by block number modulo the
 * set count (ModuloSetIndex), as a hardware cache does.
 */

#ifndef STEMS_COMMON_LRU_TABLE_HH
#define STEMS_COMMON_LRU_TABLE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stems {

/** `x mod sets`, with a mask when the set count is a power of two
 *  (the common geometry; the branch is perfectly predicted). */
inline std::size_t
reduceToSet(std::uint64_t x, std::size_t sets)
{
    return (sets & (sets - 1)) == 0
               ? static_cast<std::size_t>(x & (sets - 1))
               : static_cast<std::size_t>(x % sets);
}

/** Set index of a multiplicatively hashed key: spreads structured
 *  keys (PC+offset concatenations) across sets. */
struct HashedSetIndex
{
    static std::size_t
    index(std::uint64_t key, std::size_t sets)
    {
        return reduceToSet((key * 0x9e3779b97f4a7c15ULL) >> 32, sets);
    }
};

/** Set index of a block number: its low bits, as in a cache. */
struct ModuloSetIndex
{
    static std::size_t
    index(std::uint64_t key, std::size_t sets)
    {
        return reduceToSet(key, sets);
    }
};

/**
 * A set-associative table mapping a 64-bit key to a value, with
 * per-set LRU replacement.
 *
 * @tparam V         value type; must be default-constructible.
 * @tparam SetIndex  set-index policy (HashedSetIndex or
 *                   ModuloSetIndex).
 */
template <typename V, typename SetIndex = HashedSetIndex>
class LruTable
{
  public:
    /**
     * Construct a table.
     *
     * @param entries  total entry count (rounded up to a multiple of
     *                 the associativity).
     * @param ways     associativity (> 0).
     */
    LruTable(std::size_t entries, std::size_t ways)
        : ways_(ways)
    {
        assert(ways > 0 && entries > 0);
        sets_ = (entries + ways - 1) / ways;
        std::size_t slots = sets_ * ways_;
        keys_.assign(slots, 0);
        lru_.assign(slots, 0);
        values_.resize(slots);
    }

    /**
     * Find a value, promoting it to MRU on hit.
     *
     * @return pointer to the value, or nullptr on miss.
     */
    V *
    find(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNone)
            return nullptr;
        touch(i);
        return &values_[i];
    }

    /** Find without updating recency. @return nullptr on miss. */
    const V *
    peek(std::uint64_t key) const
    {
        std::size_t i = findIndex(key);
        return i == kNone ? nullptr : &values_[i];
    }

    /** Where emplace() left a key. */
    struct Emplaced
    {
        V &value;
        bool inserted; ///< false: the key was already resident
    };

    /**
     * Find or insert (default-constructed) a value; promotes to MRU.
     * One pass over the set finds the key or, failing that, the
     * victim way.
     *
     * When insertion evicts a valid victim, the callback is invoked
     * with the victim's key and value before it is destroyed. The
     * callback is a template parameter (not std::function) so the
     * common empty/lambda cases inline.
     */
    template <typename OnEvict>
    Emplaced
    emplace(std::uint64_t key, OnEvict &&on_evict)
    {
        Probe p = probe(key);
        if (!p.hit) {
            if (lru_[p.slot])
                on_evict(keys_[p.slot], values_[p.slot]);
            keys_[p.slot] = key;
            values_[p.slot] = V();
        }
        touch(p.slot);
        return {values_[p.slot], !p.hit};
    }

    /** emplace(), returning just the (possibly new) value. */
    template <typename OnEvict>
    V &
    findOrInsert(std::uint64_t key, OnEvict &&on_evict)
    {
        return emplace(key, on_evict).value;
    }

    /** findOrInsert without an eviction observer. */
    V &
    findOrInsert(std::uint64_t key)
    {
        return findOrInsert(key, [](std::uint64_t, V &) {});
    }

    /** Remove an entry if present. Only its stamp is cleared: the
     *  value stays readable through a pointer taken before the erase
     *  until the slot is filled again. @return true when removed. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = findIndex(key);
        if (i == kNone)
            return false;
        lru_[i] = 0;
        return true;
    }

    /** Number of valid entries across all sets. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (std::uint64_t s : lru_)
            n += s != 0;
        return n;
    }

    /** Total capacity. */
    std::size_t capacity() const { return sets_ * ways_; }

    /**
     * Visit every valid entry (key, value). The visitor is a template
     * parameter so it inlines.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < lru_.size(); ++i)
            if (lru_[i])
                fn(keys_[i], values_[i]);
    }

    /** forEach over a const table. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < lru_.size(); ++i)
            if (lru_[i])
                fn(keys_[i], values_[i]);
    }

    /** Number of sets. */
    std::size_t sets() const { return sets_; }

    /** Associativity. */
    std::size_t ways() const { return ways_; }

    /** The recency clock (the newest stamp handed out). */
    std::uint64_t clock() const { return clock_; }

    /**
     * Serialize the full table state (checkpointing): geometry, clock
     * and saveSlots().
     *
     * @param save_value  (Writer &, const V &) serializer for values.
     */
    template <typename Writer, typename SaveFn>
    void
    saveState(Writer &w, SaveFn &&save_value) const
    {
        w.u64(ways_);
        w.u64(sets_);
        w.u64(clock_);
        saveSlots(w, save_value);
    }

    /**
     * Whether saveState would write the same bytes for both tables,
     * without serializing either: same geometry and clock, and slot
     * for slot the same validity and, for a valid slot, the same key,
     * stamp and value. An invalid slot compares only its validity;
     * its stale key and value are ignored, as saveSlots skips them.
     *
     * @param same_value  (const V &, const V &) -> bool: whether the
     *                    two values serialize to the same bytes.
     */
    template <typename SameValue>
    bool
    stateEquals(const LruTable &other, SameValue &&same_value) const
    {
        if (ways_ != other.ways_ || sets_ != other.sets_ ||
            clock_ != other.clock_)
            return false;
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            if (lru_[i] != other.lru_[i])
                return false;
            if (lru_[i] && (keys_[i] != other.keys_[i] ||
                            !same_value(values_[i], other.values_[i])))
                return false;
        }
        return true;
    }

    /**
     * Restore state written by saveState into a table of identical
     * geometry (fails the reader otherwise, or on any slot that
     * loadSlots() rejects).
     *
     * @param load_value  (Reader &, V &) deserializer for values.
     */
    template <typename Reader, typename LoadFn>
    void
    loadState(Reader &r, LoadFn &&load_value)
    {
        if (r.u64() != ways_ || r.u64() != sets_) {
            r.fail();
            return;
        }
        std::uint64_t clock = r.u64();
        loadSlots(r, clock, load_value);
    }

    /**
     * Serialize every slot, without geometry or clock (owners that
     * frame the table in their own header use this). Slot positions
     * are preserved exactly: which way of a set holds an entry
     * decides future victim scans, so positional identity is part of
     * the behavioural state. Per slot: a validity flag, then for a
     * valid slot its key, its stamp and the value.
     */
    template <typename Writer, typename SaveFn>
    void
    saveSlots(Writer &w, SaveFn &&save_value) const
    {
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            w.boolean(lru_[i] != 0);
            if (lru_[i]) {
                w.u64(keys_[i]);
                w.u64(lru_[i]);
                save_value(w, values_[i]);
            }
        }
    }

    /**
     * Restore slots written by saveSlots, with `clock` as the saved
     * recency clock. A payload no live table could have produced
     * fails the reader instead of being misdecoded: a valid slot
     * whose key belongs to another set, a key resident twice in one
     * set, or a stamp of 0 (the invalid marker) or above the clock.
     */
    template <typename Reader, typename LoadFn>
    void
    loadSlots(Reader &r, std::uint64_t clock, LoadFn &&load_value)
    {
        clock_ = clock;
        for (std::size_t i = 0; i < lru_.size(); ++i) {
            bool valid = r.boolean();
            keys_[i] = 0;
            lru_[i] = 0;
            values_[i] = V();
            if (valid) {
                keys_[i] = r.u64();
                lru_[i] = r.u64();
                load_value(r, values_[i]);
                if (!validSlot(i))
                    r.fail();
            }
            if (!r.ok())
                return;
        }
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    std::size_t
    setBase(std::uint64_t key) const
    {
        return SetIndex::index(key, sets_) * ways_;
    }

    std::size_t
    findIndex(std::uint64_t key) const
    {
        std::size_t base = setBase(key);
        for (std::size_t w = 0; w < ways_; ++w) {
            std::size_t i = base + w;
            if (keys_[i] == key && lru_[i])
                return i;
        }
        return kNone;
    }

    /** The slot holding `key` (hit), else the slot an insert of it
     *  would fill. */
    struct Probe
    {
        std::size_t slot;
        bool hit;
    };

    Probe
    probe(std::uint64_t key) const
    {
        // An invalid way holds stamp 0, strictly older than any valid
        // entry (touch() stamps from 1), so one strict-< min scan
        // selects the first invalid way when one exists and the
        // first-index LRU way otherwise — the oracle's semantics. The
        // ternaries compile to conditional moves; a branching
        // running-min mispredicts on random recency order, which
        // measured 3-4x slower on full sets.
        std::size_t base = setBase(key);
        std::size_t victim = base;
        std::uint64_t victim_stamp = lru_[base];
        for (std::size_t w = 0; w < ways_; ++w) {
            std::size_t i = base + w;
            std::uint64_t stamp = lru_[i];
            if (keys_[i] == key && stamp)
                return {i, true};
            bool older = stamp < victim_stamp;
            victim = older ? i : victim;
            victim_stamp = older ? stamp : victim_stamp;
        }
        return {victim, false};
    }

    /** Whether freshly loaded valid slot `i` is one a live table
     *  could hold (see loadSlots). */
    bool
    validSlot(std::size_t i) const
    {
        if (lru_[i] == 0 || lru_[i] > clock_)
            return false;
        std::size_t base = i - i % ways_;
        if (setBase(keys_[i]) != base)
            return false;
        for (std::size_t j = base; j < i; ++j)
            if (lru_[j] && keys_[j] == keys_[i])
                return false;
        return true;
    }

    void touch(std::size_t i) { lru_[i] = ++clock_; }

    std::size_t ways_;
    std::size_t sets_ = 0;
    std::uint64_t clock_ = 0;
    /// Parallel slot lanes (structure-of-arrays); index = set * ways
    /// + way. Stamp 0 in lru_ marks the slot invalid (keys_/values_
    /// are then stale and ignored).
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lru_;
    std::vector<V> values_;
};

} // namespace stems

#endif // STEMS_COMMON_LRU_TABLE_HH
