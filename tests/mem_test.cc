/**
 * @file
 * Unit tests for the cache model, the two-level hierarchy and the
 * streamed value buffer.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/state_codec.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/svb.hh"

namespace stems {
namespace {

// A tiny cache keeps the tests deterministic: 4 blocks, 2 ways = 2 sets.
Cache
tinyCache()
{
    return Cache("tiny", 4 * kBlockBytes, 2);
}

TEST(Cache, MissThenHit)
{
    Cache c = tinyCache();
    EXPECT_FALSE(c.access(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameBlockDifferentBytes)
{
    Cache c = tinyCache();
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1004));
    EXPECT_TRUE(c.access(0x103f));
    EXPECT_FALSE(c.contains(0x1040));
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache c = tinyCache(); // 2 sets: block number parity selects set
    // Three blocks mapping to set 0 (even block numbers).
    Addr a = 0 * kBlockBytes;
    Addr b = 4 * kBlockBytes;
    Addr d = 8 * kBlockBytes;
    c.insert(a);
    c.insert(b);
    c.access(a); // b becomes LRU
    auto victim = c.insert(d);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, ReinsertResidentDoesNotEvict)
{
    Cache c = tinyCache();
    c.insert(0x0);
    c.insert(0x100); // same set (block numbers 0 and 4)
    auto victim = c.insert(0x0);
    EXPECT_FALSE(victim.has_value());
    EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache c = tinyCache();
    c.insert(0x2000);
    auto v = c.invalidate(0x2000);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->addr, 0x2000u);
    EXPECT_FALSE(c.contains(0x2000));
    EXPECT_FALSE(c.invalidate(0x2000).has_value());
}

TEST(Cache, PrefetchTagLifecycle)
{
    Cache c = tinyCache();
    c.insert(0x3000, /*prefetched=*/true);
    // The first demand reference is the one the prefetch covered.
    EXPECT_EQ(c.lookup(0x3000), Cache::Lookup::kPrefetchHit);
    EXPECT_EQ(c.lookup(0x3000), Cache::Lookup::kHit);
}

TEST(Cache, VictimReportsPrefetchMetadata)
{
    Cache c = tinyCache();
    Addr a = 0 * kBlockBytes;
    Addr b = 4 * kBlockBytes;
    Addr d = 8 * kBlockBytes;
    c.insert(a, true); // prefetched, never referenced
    c.insert(b);
    c.access(b);
    auto victim = c.insert(d); // evicts a (LRU)
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, a);
    EXPECT_TRUE(victim->prefetched);
    EXPECT_FALSE(victim->referenced);
}

// ---- hostile checkpoint payloads ----

/** One valid line of a hand-built Cache payload. */
struct PayloadLine
{
    std::size_t slot;   ///< set * ways + way
    std::uint64_t tag;  ///< block number
    std::uint64_t lru;
};

/** A tinyCache() (2 sets x 2 ways) state payload holding `lines`,
 *  with recency clock `clock`, in Cache::saveState's layout. */
std::vector<std::uint8_t>
cachePayload(const std::vector<PayloadLine> &lines, std::uint64_t clock)
{
    StateWriter w;
    w.tag(stateTag('C', 'A', 'C', 'H'));
    w.u64(2); // sets
    w.u64(2); // ways
    w.u64(clock);
    w.u64(0); // accesses
    w.u64(0); // misses
    for (std::size_t slot = 0; slot < 4; ++slot) {
        const PayloadLine *line = nullptr;
        for (const PayloadLine &l : lines)
            if (l.slot == slot)
                line = &l;
        w.boolean(line != nullptr);
        if (!line)
            continue;
        w.u64(line->tag);
        w.u64(line->lru);
        w.boolean(false); // prefetched
        w.boolean(true);  // referenced
    }
    return w.take();
}

bool
cacheLoads(const std::vector<std::uint8_t> &payload)
{
    Cache c = tinyCache();
    StateReader r(payload.data(), payload.size());
    c.loadState(r);
    return r.atEnd();
}

TEST(Cache, LoadAcceptsConsistentPayload)
{
    // Blocks 2 and 4 in set 0, block 3 in set 1.
    EXPECT_TRUE(cacheLoads(
        cachePayload({{0, 2, 1}, {1, 4, 3}, {2, 3, 2}}, 3)));

    Cache c = tinyCache();
    c.insert(0x0);
    c.insert(0x40, /*prefetched=*/true);
    c.access(0x0);
    StateWriter w;
    c.saveState(w);
    EXPECT_TRUE(cacheLoads(w.bytes()));
}

TEST(Cache, LoadRejectsLineInWrongSet)
{
    // Block 3 is odd, so it belongs to set 1, not slot 0's set 0.
    EXPECT_FALSE(cacheLoads(cachePayload({{0, 3, 1}}, 1)));
}

TEST(Cache, LoadRejectsDuplicateTagInSet)
{
    EXPECT_FALSE(cacheLoads(cachePayload({{0, 2, 1}, {1, 2, 2}}, 2)));
}

TEST(Cache, LoadRejectsValidLineWithZeroStamp)
{
    // Stamp 0 marks a free way: a "valid" line carrying it would be
    // silently dropped instead of restored.
    EXPECT_FALSE(cacheLoads(cachePayload({{0, 2, 0}}, 1)));
}

TEST(Cache, LoadRejectsStampAboveClock)
{
    EXPECT_FALSE(cacheLoads(cachePayload({{0, 2, 5}}, 4)));
}

// ---- state equality: exactly "the saveState bytes are equal" ----

std::vector<std::uint8_t>
cacheBytes(const Cache &c)
{
    StateWriter w;
    c.saveState(w);
    return w.take();
}

/** stateEquals agrees with a byte comparison, in both directions. */
::testing::AssertionResult
equalityMatchesBytes(const Cache &a, const Cache &b)
{
    const bool bytes_equal = cacheBytes(a) == cacheBytes(b);
    if (a.stateEquals(b) != bytes_equal || b.stateEquals(a) != bytes_equal)
        return ::testing::AssertionFailure()
               << "stateEquals disagrees with saveState bytes (bytes "
               << (bytes_equal ? "equal" : "differ") << ")";
    return ::testing::AssertionSuccess() << bytes_equal;
}

TEST(Cache, StateEqualsIgnoresStaleKeyInInvalidSlot)
{
    // Blocks 0 and 2 map to set 0: each cache fills way 0 and
    // invalidates it, leaving a different stale key behind.
    Cache a = tinyCache(), b = tinyCache();
    a.insert(0 * kBlockBytes);
    a.invalidate(0 * kBlockBytes);
    b.insert(2 * kBlockBytes);
    b.invalidate(2 * kBlockBytes);
    EXPECT_EQ(cacheBytes(a), cacheBytes(b));
    EXPECT_TRUE(a.stateEquals(b));
}

TEST(Cache, StateEqualsSeesFlagsAndStamps)
{
    Cache a = tinyCache(), b = tinyCache();
    a.insert(0, /*prefetched=*/true);
    b.insert(0, /*prefetched=*/false);
    EXPECT_TRUE(equalityMatchesBytes(a, b));
    EXPECT_FALSE(a.stateEquals(b));

    // Referenced flag only: same hit, one lane saw a prefetch fill.
    Cache c = tinyCache(), d = tinyCache();
    c.insert(0, true);
    d.insert(0, true);
    c.access(0);
    d.access(kBlockBytes); // a miss: same counters, no flag change
    EXPECT_TRUE(equalityMatchesBytes(c, d));
    EXPECT_FALSE(c.stateEquals(d));

    // Same lines, same clock, swapped recency.
    Cache e = tinyCache(), f = tinyCache();
    for (Cache *x : {&e, &f}) {
        x->insert(0);
        x->insert(2 * kBlockBytes);
    }
    e.access(0);
    f.access(2 * kBlockBytes);
    EXPECT_TRUE(equalityMatchesBytes(e, f));
    EXPECT_FALSE(e.stateEquals(f));
}

TEST(Cache, StateEqualsSeesClockAndCounters)
{
    // Clocks differ, every line the same: the extra fill is gone.
    Cache a = tinyCache(), b = tinyCache();
    a.insert(0);
    b.insert(0);
    a.insert(kBlockBytes);
    a.invalidate(kBlockBytes);
    EXPECT_TRUE(equalityMatchesBytes(a, b));
    EXPECT_FALSE(a.stateEquals(b));

    // A miss counts an access and a miss and changes nothing else.
    Cache c = tinyCache(), d = tinyCache();
    c.access(0);
    EXPECT_TRUE(equalityMatchesBytes(c, d));
    EXPECT_FALSE(c.stateEquals(d));

    // Accesses alone: a hit on one side, a refill of the same
    // (already referenced) line on the other. Both stamp the line
    // and keep its flags; only the hit counts an access.
    Cache e = tinyCache(), f = tinyCache();
    for (Cache *x : {&e, &f}) {
        x->insert(0);
        x->access(0);
    }
    e.access(0);
    f.insert(0);
    EXPECT_TRUE(equalityMatchesBytes(e, f));
    EXPECT_FALSE(e.stateEquals(f));
}

TEST(Cache, StateEqualsMatchesBytesOnRandomPairs)
{
    // Both caches replay one random op stream; with some probability
    // an op on the second is swapped for a different one. Small
    // geometry and a small block pool make stale keys, refills and
    // equal-after-divergence states common.
    std::mt19937_64 rng(17);
    std::size_t equal = 0, unequal = 0;
    for (int pair = 0; pair < 2000; ++pair) {
        Cache a("a", 8 * kBlockBytes, 2), b("b", 8 * kBlockBytes, 2);
        const unsigned diverge = pair % 4 == 0 ? 0 : 1 + rng() % 20;
        auto op = [&](Cache &c, std::uint64_t r) {
            const Addr block = (r >> 8) % 12 * kBlockBytes;
            switch (r % 4) {
            case 0: c.insert(block, (r >> 4) & 1); break;
            case 1: c.access(block); break;
            case 2: c.invalidate(block); break;
            default: c.insert(block); break;
            }
        };
        for (int i = 0; i < 24; ++i) {
            const std::uint64_t r = rng();
            op(a, r);
            op(b, diverge && rng() % diverge == 0 ? rng() : r);
        }
        ASSERT_TRUE(equalityMatchesBytes(a, b)) << "pair " << pair;
        ++(a.stateEquals(b) ? equal : unequal);
    }
    EXPECT_GT(equal, 100u);
    EXPECT_GT(unequal, 100u);
}

/** One valid slot of a hand-built SVB payload. */
struct PayloadEntry
{
    std::size_t slot;
    std::uint64_t lru;
    Addr addr;
};

/** A 4-entry SVB state payload in StreamedValueBuffer::saveState's
 *  layout. */
std::vector<std::uint8_t>
svbPayload(const std::vector<PayloadEntry> &entries, std::uint64_t clock)
{
    StateWriter w;
    w.tag(stateTag('S', 'V', 'B', '1'));
    w.u64(4); // capacity
    w.u64(clock);
    for (std::size_t slot = 0; slot < 4; ++slot) {
        const PayloadEntry *entry = nullptr;
        for (const PayloadEntry &e : entries)
            if (e.slot == slot)
                entry = &e;
        w.boolean(entry != nullptr);
        if (!entry)
            continue;
        w.u64(entry->lru);
        w.u64(entry->addr);
        w.i64(0); // stream
        w.u64(0); // ready time
    }
    return w.take();
}

bool
svbLoads(const std::vector<std::uint8_t> &payload)
{
    StreamedValueBuffer svb(4);
    StateReader r(payload.data(), payload.size());
    svb.loadState(r);
    return r.atEnd();
}

TEST(Svb, LoadAcceptsConsistentPayload)
{
    EXPECT_TRUE(svbLoads(svbPayload({{0, 2, 0x40}, {3, 1, 0x80}}, 2)));
}

TEST(Svb, LoadRejectsDuplicateAddress)
{
    EXPECT_FALSE(svbLoads(svbPayload({{0, 1, 0x40}, {2, 2, 0x40}}, 2)));
}

TEST(Svb, LoadRejectsUnalignedAddress)
{
    EXPECT_FALSE(svbLoads(svbPayload({{0, 1, 0x44}}, 1)));
}

TEST(Svb, LoadRejectsZeroStamp)
{
    EXPECT_FALSE(svbLoads(svbPayload({{0, 0, 0x40}}, 1)));
}

TEST(Svb, LoadRejectsStampAboveClock)
{
    EXPECT_FALSE(svbLoads(svbPayload({{0, 3, 0x40}}, 2)));
}

TEST(Hierarchy, L1ThenL2ThenMemory)
{
    HierarchyParams p;
    p.l1Bytes = 4 * kBlockBytes;
    p.l1Ways = 2;
    p.l2Bytes = 16 * kBlockBytes;
    p.l2Ways = 4;
    Hierarchy h(p);

    EXPECT_FALSE(h.accessL1(0x1000));
    EXPECT_FALSE(h.accessL2(0x1000).hit);
    h.fill(0x1000);
    EXPECT_TRUE(h.accessL1(0x1000));

    // Push 0x1000 out of tiny L1 with same-set fills.
    h.fill(0x1000 + 4 * kBlockBytes);
    h.fill(0x1000 + 8 * kBlockBytes);
    EXPECT_FALSE(h.accessL1(0x1000));
    EXPECT_TRUE(h.accessL2(0x1000).hit);
}

TEST(Hierarchy, L1EvictCallbackFires)
{
    HierarchyParams p;
    p.l1Bytes = 4 * kBlockBytes;
    p.l1Ways = 2;
    p.l2Bytes = 64 * kBlockBytes;
    p.l2Ways = 4;
    Hierarchy h(p);

    std::vector<Addr> evicted;
    h.setL1EvictCallback([&](Addr a) { evicted.push_back(a); });

    h.fill(0x0);
    h.fill(0x100);
    h.fill(0x200); // evicts 0x0 from L1 set 0
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x0u);

    h.invalidate(0x100);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[1], 0x100u);
}

TEST(Hierarchy, PrefetchCoverageDetection)
{
    HierarchyParams p;
    p.l1Bytes = 4 * kBlockBytes;
    p.l1Ways = 2;
    p.l2Bytes = 64 * kBlockBytes;
    p.l2Ways = 4;
    Hierarchy h(p);

    h.fillPrefetchL2(0x5000);
    auto r = h.accessL2(0x5000);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.coveredByPrefetch);

    // Second touch is an ordinary hit.
    r = h.accessL2(0x5000);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.coveredByPrefetch);
}

TEST(Hierarchy, UnusedPrefetchDropCallback)
{
    HierarchyParams p;
    p.l1Bytes = 4 * kBlockBytes;
    p.l1Ways = 2;
    p.l2Bytes = 4 * kBlockBytes;
    p.l2Ways = 2;
    Hierarchy h(p);

    std::vector<Addr> dropped;
    h.setL2PrefetchDropCallback([&](Addr a) { dropped.push_back(a); });

    h.fillPrefetchL2(0x0);
    h.fill(0x100);
    h.fill(0x200); // evicts 0x0 (prefetched, unreferenced) from L2
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0], 0x0u);

    // Invalidation of an unused prefetch also reports a drop.
    h.fillPrefetchL2(0x300);
    h.invalidate(0x300);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[1], 0x300u);
}

TEST(Svb, InsertConsume)
{
    StreamedValueBuffer svb(4);
    svb.insert({0x1000, 3, 100});
    EXPECT_TRUE(svb.contains(0x1000));
    EXPECT_TRUE(svb.contains(0x1004)); // same block
    auto e = svb.consume(0x1004);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->addr, 0x1000u);
    EXPECT_EQ(e->streamId, 3);
    EXPECT_EQ(e->readyTime, 100u);
    EXPECT_FALSE(svb.contains(0x1000));
}

TEST(Svb, LruEvictionReturnsUnused)
{
    StreamedValueBuffer svb(2);
    EXPECT_FALSE(svb.insert({0x0, 0, 0}).has_value());
    EXPECT_FALSE(svb.insert({0x40, 0, 0}).has_value());
    auto victim = svb.insert({0x80, 1, 0});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, 0x0u);
    EXPECT_EQ(svb.occupancy(), 2u);
}

TEST(Svb, ReinsertRefreshesInsteadOfEvicting)
{
    StreamedValueBuffer svb(2);
    svb.insert({0x0, 0, 0});
    svb.insert({0x40, 0, 0});
    EXPECT_FALSE(svb.insert({0x0, 5, 9}).has_value());
    auto e = svb.consume(0x0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->streamId, 5);
}

TEST(Svb, StreamOccupancy)
{
    StreamedValueBuffer svb(8);
    svb.insert({0x0, 1, 0});
    svb.insert({0x40, 1, 0});
    svb.insert({0x80, 2, 0});
    EXPECT_EQ(svb.occupancyForStream(1), 2u);
    EXPECT_EQ(svb.occupancyForStream(2), 1u);
    EXPECT_EQ(svb.occupancyForStream(3), 0u);
    EXPECT_EQ(svb.occupancy(), 3u);
}

TEST(Svb, InvalidateDrops)
{
    StreamedValueBuffer svb(4);
    svb.insert({0x1000, 0, 0});
    auto e = svb.invalidate(0x1000);
    EXPECT_TRUE(e.has_value());
    EXPECT_FALSE(svb.contains(0x1000));
}

} // namespace
} // namespace stems
