/**
 * @file
 * Flat open-addressing index from block address to buffer position.
 *
 * Both miss-order buffers (the TMS buffer and the STeMS RMOB) keep
 * an address index mapping each block to its most recent append
 * position, modelled after the main-memory hash table of the TMS
 * work. The index is probed once per off-chip miss, so its layout is
 * the cost: a node-based hash map pays a bucket load plus a node
 * load per probe and a heap allocation per new block.
 *
 * Layout: one power-of-two array of 16-byte slots {key, position},
 * linear probing, Fibonacci hashing (the high bits of key * 2^64/phi
 * pick the home slot). An empty slot holds kEmptyKey, the all-ones
 * address: its low bits are set, so no block-aligned key can take it
 * (keys must be block-aligned; loadState rejects any other). The
 * table doubles before an insert would push the load above 3/4.
 *
 * Logical contents match the node-based map this replaced, stale
 * entries included: an entry is only ever overwritten, never erased,
 * so the index holds every distinct block ever appended, and owners
 * detect a stale position by reading the buffer. saveState writes
 * the entries key-sorted, so the bytes depend only on the logical
 * contents, not on the slot layout or insertion history.
 */

#ifndef STEMS_COMMON_ADDR_INDEX_HH
#define STEMS_COMMON_ADDR_INDEX_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace stems {

class AddrIndex
{
  public:
    using Position = std::uint64_t;

    /** Marks an empty slot; never a block-aligned address. */
    static constexpr Addr kEmptyKey = ~Addr{0};

    /** The position findOrInsert gives a fresh key. No buffer ever
     *  holds it, so a read there finds nothing. */
    static constexpr Position kNoPosition = ~Position{0};

    /** Construct sized to hold `expected` keys without growing. */
    explicit AddrIndex(std::size_t expected = 0)
    {
        rehash(slotsFor(expected));
    }

    /** The position recorded for a key, or null. */
    const Position *
    find(Addr key) const
    {
        assert(key != kEmptyKey);
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.pos;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    /**
     * The position slot of a key, inserting it with kNoPosition when
     * absent. The reference is valid until the next insert.
     */
    Position &
    findOrInsert(Addr key)
    {
        assert(key != kEmptyKey);
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.size() * 2);
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return s.pos;
            if (s.key == kEmptyKey)
                break;
        }
        ++size_;
        slots_[i] = {key, kNoPosition};
        return slots_[i].pos;
    }

    /** Number of keys. */
    std::size_t size() const { return size_; }

    /** Slot count (tests/diagnostics). */
    std::size_t capacity() const { return slots_.size(); }

    /** Remove every key; the slot array is kept. */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

    /** Visit every (key, position) pair, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.pos);
    }

    /** Serialize: key count, then (key, position) in key order. */
    template <typename Writer>
    void
    saveState(Writer &w) const
    {
        std::vector<Slot> entries;
        entries.reserve(size_);
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                entries.push_back(s);
        sortByKey(entries);
        w.u64(entries.size());
        for (const Slot &s : entries) {
            w.u64(s.key);
            w.u64(s.pos);
        }
    }

    /**
     * Restore state written by saveState for a buffer whose next
     * append position is `frontier`. An entry no live index could
     * hold fails the reader instead of being misdecoded: a key that
     * is not block-aligned (which covers kEmptyKey), keys out of
     * ascending order (which covers a duplicate), or a position at
     * or past the frontier (never appended).
     */
    template <typename Reader>
    void
    loadState(Reader &r, Position frontier)
    {
        clear();
        std::uint64_t entries = r.u64();
        Addr last = 0;
        for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
            Addr key = r.u64();
            Position pos = r.u64();
            if (!r.ok())
                return;
            if (key != blockAlign(key) || (i > 0 && key <= last) ||
                pos >= frontier) {
                r.fail();
                return;
            }
            findOrInsert(key) = pos;
            last = key;
        }
    }

  private:
    struct Slot
    {
        Addr key = kEmptyKey;
        Position pos = 0;
    };

    static constexpr std::size_t kMinSlots = 16;

    /**
     * Sort entries by key: an LSD radix sort over the key's eight
     * bytes that skips every byte position all keys share (block
     * alignment fixes the low bits and the address space the high
     * ones, so most are skipped). Keys are unique, so the order is
     * the one a comparison sort gives.
     */
    static void
    sortByKey(std::vector<Slot> &entries)
    {
        const std::size_t n = entries.size();
        if (n < 2)
            return;
        std::array<std::array<std::size_t, 256>, 8> counts{};
        for (const Slot &s : entries)
            for (unsigned d = 0; d < 8; ++d)
                ++counts[d][(s.key >> (8 * d)) & 0xFF];
        std::vector<Slot> sorted(n);
        for (unsigned d = 0; d < 8; ++d) {
            std::array<std::size_t, 256> &next = counts[d];
            if (next[(entries[0].key >> (8 * d)) & 0xFF] == n)
                continue;
            std::size_t offset = 0;
            for (std::size_t &c : next) {
                const std::size_t bucket = c;
                c = offset;
                offset += bucket;
            }
            for (const Slot &s : entries)
                sorted[next[(s.key >> (8 * d)) & 0xFF]++] = s;
            entries.swap(sorted);
        }
    }

    /** Smallest power-of-two slot count holding n keys at <= 3/4
     *  load. */
    static std::size_t
    slotsFor(std::size_t n)
    {
        std::size_t slots = kMinSlots;
        while (n * 4 > slots * 3)
            slots *= 2;
        return slots;
    }

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old(slots, Slot{});
        old.swap(slots_);
        mask_ = slots - 1;
        shift_ = 64;
        for (std::size_t s = slots; s > 1; s >>= 1)
            --shift_;
        for (const Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace stems

#endif // STEMS_COMMON_ADDR_INDEX_HH
