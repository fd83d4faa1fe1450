/**
 * @file
 * Property tests for the hot-path data structures rewritten in the
 * engine performance program: the structure-of-arrays LruTable is
 * pinned against the frozen array-of-structs reference
 * (tests/reference_lru_table.hh) under seeded random workloads, the
 * flat AddrIndex against std::unordered_map, the per-entry cached
 * PST predictions against the frozen sort-at-lookup PST
 * (tests/reference_pst.hh), the RingQueue against std::deque, and
 * every refactored structure's state codec round-trips. Behavioural equivalence to the historical
 * layouts is the contract that keeps sweep output bitwise identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/addr_index.hh"
#include "common/arena.hh"
#include "common/circular_buffer.hh"
#include "common/function_ref.hh"
#include "common/lru_table.hh"
#include "common/state_codec.hh"
#include "core/pst.hh"
#include "core/stream.hh"
#include "reference_lru_table.hh"
#include "reference_pst.hh"

using namespace stems;

namespace {

/**
 * Drive the SoA table and the reference with an identical op mix
 * (findOrInsert / find / peek / erase / occupancy) and require the
 * same observable result at every step, plus byte-identical
 * serialized state at the end.
 */
void
lruEquivalenceRun(std::uint64_t seed, std::size_t entries,
                  std::size_t ways, std::uint64_t key_span,
                  std::size_t ops)
{
    std::mt19937_64 rng(seed);
    LruTable<std::uint64_t> table(entries, ways);
    ReferenceLruTable<std::uint64_t> oracle(entries, ways);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> evTable;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> evOracle;
    for (std::size_t i = 0; i < ops; ++i) {
        std::uint64_t key = rng() % key_span;
        switch (rng() % 8) {
        case 0: { // find
            std::uint64_t *a = table.find(key);
            std::uint64_t *b = oracle.find(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
            break;
        }
        case 1: { // peek
            const std::uint64_t *a = table.peek(key);
            const std::uint64_t *b = oracle.peek(key);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
            break;
        }
        case 2: // erase
            ASSERT_EQ(table.erase(key), oracle.erase(key))
                << "op " << i;
            break;
        case 3: // occupancy
            ASSERT_EQ(table.occupancy(), oracle.occupancy())
                << "op " << i;
            break;
        default: { // findOrInsert with eviction observers
            evTable.clear();
            evOracle.clear();
            std::uint64_t &a = table.findOrInsert(
                key, [&](std::uint64_t k, std::uint64_t &v) {
                    evTable.emplace_back(k, v);
                });
            std::uint64_t &b = oracle.findOrInsert(
                key, [&](std::uint64_t k, std::uint64_t &v) {
                    evOracle.emplace_back(k, v);
                });
            ASSERT_EQ(evTable, evOracle) << "op " << i;
            ASSERT_EQ(a, b) << "op " << i;
            a += key + 1;
            b += key + 1;
            break;
        }
        }
    }

    // Same victims, same slots: the serialized state (which encodes
    // slot positions, keys, stamps and values) must match byte for
    // byte.
    StateWriter wa, wb;
    auto save = [](StateWriter &w, const std::uint64_t &v) {
        w.u64(v);
    };
    table.saveState(wa, save);
    oracle.saveState(wb, save);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

TEST(HotpathLruTable, MatchesReferenceHitHeavy)
{
    // Key span well inside capacity: mostly hits, no evictions.
    lruEquivalenceRun(1, 256, 4, 100, 20000);
}

TEST(HotpathLruTable, MatchesReferenceEvictHeavy)
{
    // Key span far beyond capacity: the victim scan dominates.
    lruEquivalenceRun(2, 64, 4, 5000, 20000);
}

TEST(HotpathLruTable, MatchesReferenceFullyAssociative)
{
    lruEquivalenceRun(3, 16, 16, 300, 20000);
}

TEST(HotpathLruTable, MatchesReferenceDirectMapped)
{
    lruEquivalenceRun(4, 128, 1, 1000, 20000);
}

TEST(HotpathLruTable, MatchesReferenceManySeeds)
{
    for (std::uint64_t seed = 10; seed < 20; ++seed)
        lruEquivalenceRun(seed, 96, 3, 700, 5000);
}

TEST(HotpathLruTable, StateRoundTripRestoresBehaviour)
{
    LruTable<std::uint64_t> a(64, 4);
    std::mt19937_64 rng(99);
    for (int i = 0; i < 5000; ++i)
        a.findOrInsert(rng() % 400) += 1;
    a.erase(rng() % 400);

    StateWriter w;
    auto save = [](StateWriter &wr, const std::uint64_t &v) {
        wr.u64(v);
    };
    a.saveState(w, save);

    LruTable<std::uint64_t> b(64, 4);
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, [](StateReader &rd, std::uint64_t &v) {
        v = rd.u64();
    });
    ASSERT_TRUE(r.atEnd());
    ASSERT_EQ(a.occupancy(), b.occupancy());

    // Identical continuations: drive both further and compare the
    // serialized end states (victim choices depend on the restored
    // stamps, so divergence would show up here).
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng() % 400;
        a.findOrInsert(key) += 2;
        b.findOrInsert(key) += 2;
    }
    StateWriter wa, wb;
    a.saveState(wa, save);
    b.saveState(wb, save);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

TEST(HotpathLruTable, LoadRejectsGeometryMismatch)
{
    LruTable<std::uint64_t> a(64, 4);
    StateWriter w;
    a.saveState(w,
                [](StateWriter &wr, const std::uint64_t &v) {
                    wr.u64(v);
                });
    LruTable<std::uint64_t> b(64, 8);
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, [](StateReader &rd, std::uint64_t &v) {
        v = rd.u64();
    });
    ASSERT_FALSE(r.ok());
}

TEST(HotpathLruTable, ForEachVisitsExactlyValidEntries)
{
    LruTable<std::uint64_t> t(32, 4);
    ReferenceLruTable<std::uint64_t> o(32, 4);
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t key = rng() % 100;
        if (rng() % 4 == 0) {
            t.erase(key);
            o.erase(key);
        } else {
            t.findOrInsert(key) = key * 3;
            o.findOrInsert(key) = key * 3;
        }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want;
    t.forEach([&](std::uint64_t k, std::uint64_t &v) {
        got.emplace_back(k, v);
    });
    o.forEach([&](std::uint64_t k, std::uint64_t &v) {
        want.emplace_back(k, v);
    });
    ASSERT_EQ(got, want);
}

// ---- AddrIndex vs std::unordered_map --------------------------

using IndexPairs = std::vector<std::pair<Addr, AddrIndex::Position>>;

/**
 * Drive the flat index and a std::unordered_map with the same
 * seeded find / find-or-insert-then-overwrite sequence (the TMS
 * one-probe pattern) from the minimum size, so the run crosses
 * several rehashes. Keys are block-aligned: `stride` apart from a
 * random span, so both dense and page-strided (clustering) key sets
 * are probed.
 */
void
addrIndexEquivalenceRun(std::uint64_t seed, std::uint64_t key_span,
                        Addr stride, std::size_t ops)
{
    std::mt19937_64 rng(seed);
    AddrIndex index;
    std::unordered_map<Addr, AddrIndex::Position> oracle;
    std::size_t initial_capacity = index.capacity();
    for (std::size_t i = 0; i < ops; ++i) {
        Addr key = (rng() % key_span) * stride;
        if (rng() % 3 == 0) {
            const AddrIndex::Position *got = index.find(key);
            auto it = oracle.find(key);
            ASSERT_EQ(got != nullptr, it != oracle.end()) << "op " << i;
            if (got) {
                ASSERT_EQ(*got, it->second) << "op " << i;
            }
        } else {
            AddrIndex::Position &slot = index.findOrInsert(key);
            auto it = oracle.find(key);
            ASSERT_EQ(slot, it == oracle.end() ? AddrIndex::kNoPosition
                                               : it->second)
                << "op " << i;
            slot = i;
            oracle[key] = i;
        }
        ASSERT_EQ(index.size(), oracle.size()) << "op " << i;
        ASSERT_LE(index.size() * 4, index.capacity() * 3) << "op " << i;
    }
    EXPECT_GE(index.capacity(), initial_capacity * 16)
        << "the run should cross several rehashes";

    IndexPairs got, want(oracle.begin(), oracle.end());
    index.forEach([&](Addr k, AddrIndex::Position p) {
        got.emplace_back(k, p);
    });
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want);
}

TEST(HotpathAddrIndex, MatchesUnorderedMapDenseKeys)
{
    addrIndexEquivalenceRun(1, 5000, kBlockBytes, 30000);
}

TEST(HotpathAddrIndex, MatchesUnorderedMapPageStridedKeys)
{
    addrIndexEquivalenceRun(2, 5000, 4096, 30000);
}

TEST(HotpathAddrIndex, MatchesUnorderedMapManySeeds)
{
    for (std::uint64_t seed = 10; seed < 20; ++seed)
        addrIndexEquivalenceRun(seed, 300 + seed * 50,
                                kBlockBytes << (seed % 8), 4000);
}

TEST(HotpathAddrIndex, StateRoundTripIsKeySortedAndExact)
{
    AddrIndex a;
    std::mt19937_64 rng(5);
    for (AddrIndex::Position pos = 0; pos < 3000; ++pos)
        a.findOrInsert(blockAlign(rng())) = pos;

    StateWriter w;
    a.saveState(w);
    StateReader keys(w.bytes().data(), w.bytes().size());
    std::uint64_t n = keys.u64();
    ASSERT_EQ(n, a.size());
    Addr prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr k = keys.u64();
        keys.u64();
        ASSERT_TRUE(i == 0 || k > prev);
        prev = k;
    }

    AddrIndex b(8); // a different slot layout, same logical contents
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r, 3000);
    ASSERT_TRUE(r.atEnd());
    StateWriter wb;
    b.saveState(wb);
    ASSERT_EQ(w.bytes(), wb.bytes());
}

TEST(HotpathAddrIndex, SaveOrderMatchesComparisonSort)
{
    // The radix sort skips byte positions every key shares; key sets
    // that share all but one, some, or none of them must still save
    // in exactly std::sort order.
    std::mt19937_64 rng(23);
    const std::vector<std::vector<Addr>> key_sets = [&] {
        std::vector<std::vector<Addr>> sets(5);
        for (int i = 0; i < 2000; ++i) {
            sets[0].push_back(blockAlign(rng()));
            sets[1].push_back(0x7f00'0000'0000ull +
                              blockAlign(rng() % (1ull << 40)));
            sets[2].push_back(((rng() & 1) ? 0xffff'0000'0000'0000ull
                                           : 0x1000ull) +
                              (rng() % 256) * kBlockBytes);
            sets[3].push_back((rng() % 4) * kBlockBytes);
        }
        sets[4] = {0x40};
        return sets;
    }();
    for (const auto &keys : key_sets) {
        AddrIndex index;
        IndexPairs want;
        for (Addr k : keys) {
            AddrIndex::Position &pos = index.findOrInsert(k);
            if (pos == AddrIndex::kNoPosition)
                want.emplace_back(k, 0);
            pos = rng() % 1000;
        }
        for (auto &kv : want)
            kv.second = *index.find(kv.first);
        std::sort(want.begin(), want.end());

        StateWriter w;
        index.saveState(w);
        StateReader r(w.bytes().data(), w.bytes().size());
        ASSERT_EQ(r.u64(), want.size());
        for (const auto &kv : want) {
            ASSERT_EQ(r.u64(), kv.first);
            ASSERT_EQ(r.u64(), kv.second);
        }
        EXPECT_TRUE(r.atEnd());
    }
}

// ---- PST: cached predictions vs sort-at-lookup reference ------

/** Whether the live table and the reference predict the same
 *  elements, in the same order, for an index. */
::testing::AssertionResult
samePrediction(const PatternSequenceTable &pst, const ReferencePst &ref,
               std::uint64_t index)
{
    auto live = pst.lookup(index);
    std::vector<SpatialElement> want;
    if (live.has_value() != ref.lookup(index, want))
        return ::testing::AssertionFailure()
               << "entry presence differs at index " << index;
    if (!live)
        return ::testing::AssertionSuccess();
    if (live->size() != want.size())
        return ::testing::AssertionFailure()
               << live->size() << " vs " << want.size()
               << " elements at index " << index;
    for (std::size_t i = 0; i < want.size(); ++i)
        if ((*live)[i].offset != want[i].offset ||
            (*live)[i].delta != want[i].delta)
            return ::testing::AssertionFailure()
                   << "element " << i << " differs at index " << index;
    return ::testing::AssertionSuccess();
}

void
expectSamePredictions(const PatternSequenceTable &pst,
                      const ReferencePst &ref, std::uint64_t index_span,
                      const char *where)
{
    for (std::uint64_t idx = 0; idx < index_span; ++idx)
        ASSERT_TRUE(samePrediction(pst, ref, idx)) << where;
}

/**
 * Train both tables with the same random generations — sequences
 * that repeat offsets (so stored orders collide and the offset
 * tie-break decides) over a small table (so entries are evicted and
 * re-inserted) — and require identical predictions after every
 * operation. Every `round_trip_every` operations the live table is
 * replaced by one restored from its own blob, and the reference by
 * one restored from the live blob, so predictions are also pinned
 * across saveState/loadState.
 */
void
pstEquivalenceRun(std::uint64_t seed, std::size_t ops,
                  std::size_t round_trip_every)
{
    PstParams params;
    params.entries = 64;
    params.ways = 4;
    const std::uint64_t index_span = 96;
    std::mt19937_64 rng(seed);
    auto pst = std::make_unique<PatternSequenceTable>(params);
    auto ref = std::make_unique<ReferencePst>(params);
    std::vector<SpatialElement> seq;
    for (std::size_t i = 0; i < ops; ++i) {
        std::uint64_t idx = rng() % index_span;
        if (rng() % 4 != 0) {
            // Offsets from a narrow pool repeat within a sequence.
            unsigned pool = 1 + static_cast<unsigned>(rng() % 32);
            seq.resize(rng() % 40);
            for (SpatialElement &el : seq) {
                el.offset = static_cast<std::uint8_t>(rng() % pool);
                el.delta = static_cast<std::uint8_t>(rng() % 256);
            }
            auto mask = static_cast<std::uint32_t>(rng());
            if (rng() % 2)
                mask = 0;
            pst->train(idx, seq.data(), seq.size(), mask);
            ref->train(idx, seq.data(), seq.size(), mask);
        }
        ASSERT_TRUE(samePrediction(*pst, *ref, idx)) << "op " << i;

        if ((i + 1) % round_trip_every == 0) {
            StateWriter live, frozen;
            pst->saveState(live);
            ref->saveState(frozen);
            ASSERT_EQ(live.bytes(), frozen.bytes()) << "op " << i;
            auto pst2 = std::make_unique<PatternSequenceTable>(params);
            auto ref2 = std::make_unique<ReferencePst>(params);
            StateReader r1(live.bytes().data(), live.bytes().size());
            pst2->loadState(r1);
            StateReader r2(live.bytes().data(), live.bytes().size());
            ref2->loadState(r2);
            ASSERT_TRUE(r1.atEnd() && r2.atEnd());
            expectSamePredictions(*pst2, *ref2, index_span,
                                  "after round trip");
            // Loading over a table whose cache is warm must not keep
            // a stale list.
            StateReader r3(live.bytes().data(), live.bytes().size());
            pst->loadState(r3);
            ASSERT_TRUE(r3.atEnd());
            expectSamePredictions(*pst, *ref2, index_span,
                                  "after reload");
            pst = std::move(pst2);
            ref = std::move(ref2);
        }
    }
}

TEST(HotpathPst, CachedPredictionsMatchSortAtLookupReference)
{
    pstEquivalenceRun(1, 20000, 1000000);
}

TEST(HotpathPst, CachedPredictionsMatchReferenceAcrossRoundTrips)
{
    for (std::uint64_t seed = 2; seed < 8; ++seed)
        pstEquivalenceRun(seed, 3000, 250);
}

TEST(HotpathPst, ViewIsStableUntilTheNextTrain)
{
    PatternSequenceTable pst;
    SpatialElement seq[2] = {{3, 0}, {1, 2}};
    pst.train(7, seq, 2, 0);
    pst.train(7, seq, 2, 0);
    auto first = pst.lookup(7);
    auto again = pst.lookup(7);
    ASSERT_TRUE(first && again);
    // Repeated lookups share one cached list.
    EXPECT_EQ(first->begin(), again->begin());
    ASSERT_EQ(first->size(), 2u);
    EXPECT_EQ((*first)[0].offset, 3);
    EXPECT_EQ((*first)[1].offset, 1);
    // Training the entry rebuilds the list on the next lookup.
    pst.train(7, seq, 1, 0);
    pst.train(7, seq, 1, 0);
    auto after = pst.lookup(7);
    ASSERT_TRUE(after.has_value());
    ASSERT_EQ(after->size(), 1u);
    EXPECT_EQ((*after)[0].offset, 3);
}

// ---- FunctionRef ---------------------------------------------

TEST(HotpathFunctionRef, CopyRefersToTheCallableNotTheSourceRef)
{
    int first = 0, second = 0;
    auto add_first = [&](int x) { first += x; };
    auto add_second = [&](int x) { second += x; };
    FunctionRef<void(int)> a = add_first;
    FunctionRef<void(int)> copy = a; // non-const lvalue source
    a = add_second;
    // A copy that wrapped `a` itself would now call add_second.
    copy(1);
    a(10);
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 10);

    FunctionRef<void(int)> outlives;
    {
        FunctionRef<void(int)> scoped = add_first;
        outlives = scoped;
    }
    outlives(2); // ASan reports a use-after-scope if it wrapped `scoped`
    EXPECT_EQ(first, 3);
}

TEST(HotpathFunctionRef, BindCallsTheMemberAndNullIsFalse)
{
    struct Counter
    {
        int total = 0;
        void add(int x) { total += x; }
    };
    Counter c;
    auto f = FunctionRef<void(int)>::bind<&Counter::add>(&c);
    f(4);
    f(5);
    EXPECT_EQ(c.total, 9);
    EXPECT_TRUE(static_cast<bool>(f));
    EXPECT_FALSE(static_cast<bool>(FunctionRef<void(int)>()));
    EXPECT_FALSE(static_cast<bool>(FunctionRef<void(int)>(nullptr)));
}

// ---- RingQueue vs std::deque ----------------------------------

TEST(HotpathRingQueue, MatchesDequeUnderRandomOps)
{
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::mt19937_64 rng(seed);
        RingQueue<std::uint64_t> ring;
        std::deque<std::uint64_t> oracle;
        for (int i = 0; i < 30000; ++i) {
            switch (rng() % 5) {
            case 0:
            case 1:
            case 2: { // push (biased: queues grow in bursts)
                std::uint64_t v = rng();
                ring.push_back(v);
                oracle.push_back(v);
                break;
            }
            case 3:
                if (!oracle.empty()) {
                    ASSERT_EQ(ring.front(), oracle.front());
                    ring.pop_front();
                    oracle.pop_front();
                }
                break;
            case 4: { // dropFront of a random prefix
                std::size_t k = oracle.empty()
                                    ? 0
                                    : rng() % oracle.size();
                ring.dropFront(k);
                oracle.erase(oracle.begin(), oracle.begin() + k);
                break;
            }
            }
            ASSERT_EQ(ring.size(), oracle.size());
            ASSERT_EQ(ring.empty(), oracle.empty());
            if (!oracle.empty()) {
                std::size_t probe = rng() % oracle.size();
                ASSERT_EQ(ring[probe], oracle[probe]);
            }
        }
    }
}

TEST(HotpathRingQueue, ClearRetainsCapacity)
{
    RingQueue<std::uint64_t> ring;
    for (int i = 0; i < 1000; ++i)
        ring.push_back(i);
    std::size_t cap = ring.capacity();
    ASSERT_GE(cap, 1000u);
    ring.clear();
    ASSERT_TRUE(ring.empty());
    ASSERT_EQ(ring.capacity(), cap);
    for (int i = 0; i < 1000; ++i)
        ring.push_back(i * 2);
    ASSERT_EQ(ring.capacity(), cap);
    ASSERT_EQ(ring[999], 1998u);
}

TEST(HotpathRingQueue, AssignReplacesContents)
{
    RingQueue<std::uint64_t> ring;
    ring.push_back(1);
    ring.push_back(2);
    std::vector<std::uint64_t> src{7, 8, 9};
    ring.assign(src.begin(), src.end());
    ASSERT_EQ(ring.size(), 3u);
    ASSERT_EQ(ring[0], 7u);
    ASSERT_EQ(ring[2], 9u);
}

TEST(HotpathRingQueue, WrapAroundGrowthRelinearizes)
{
    // Force head_ far from zero, then grow: the re-linearization
    // must preserve order across the old wrap point.
    RingQueue<std::uint64_t> ring;
    for (std::uint64_t i = 0; i < 12; ++i)
        ring.push_back(i);
    for (std::uint64_t i = 0; i < 10; ++i)
        ring.pop_front();
    for (std::uint64_t i = 12; i < 40; ++i)
        ring.push_back(i); // wraps, then grows
    ASSERT_EQ(ring.size(), 30u);
    for (std::size_t k = 0; k < ring.size(); ++k)
        ASSERT_EQ(ring[k], k + 10);
}

// ---- InlineVec -----------------------------------------------

TEST(HotpathInlineVec, BasicInvariants)
{
    InlineVec<int, 4> v;
    ASSERT_TRUE(v.empty());
    ASSERT_EQ(v.capacity(), 4u);
    v.push_back(1);
    v.emplace_back(2);
    ASSERT_EQ(v.size(), 2u);
    ASSERT_FALSE(v.full());
    ASSERT_EQ(v[0], 1);
    ASSERT_EQ(v.back(), 2);
    int sum = 0;
    for (int x : v)
        sum += x;
    ASSERT_EQ(sum, 3);
    v.push_back(3);
    v.push_back(4);
    ASSERT_TRUE(v.full());
    v.clear();
    ASSERT_TRUE(v.empty());
}

// ---- StreamQueueSet round-trip with ring-backed pending -------

TEST(HotpathStreamQueues, StateRoundTripPreservesPending)
{
    std::uint64_t refills = 0;
    auto refill = [&](RingQueue<Addr> &pending, std::uint64_t &pos) {
        for (int i = 0; i < 4; ++i)
            pending.push_back(0x1000 * (++pos));
        ++refills;
    };
    StreamQueueSet a({}, refill);
    std::vector<Addr> initial{0x40, 0x80, 0xC0, 0x100, 0x140};
    int id = a.allocate(initial.data(),
                        initial.data() + initial.size(),
                        /*confirmed=*/false, /*refill_cursor=*/1);
    for (int i = 0; i < 3; ++i)
        a.onHit(id);
    std::vector<PrefetchRequest> reqs;
    a.drainRequests(reqs);

    StateWriter w;
    a.saveState(w);

    StreamQueueSet b({}, refill);
    StateReader r(w.bytes().data(), w.bytes().size());
    b.loadState(r);
    ASSERT_TRUE(r.ok());

    // Identical continuations must emit identical request streams.
    std::vector<PrefetchRequest> ra, rb;
    for (int i = 0; i < 20; ++i) {
        a.onHit(id);
        b.onHit(id);
    }
    a.drainRequests(ra);
    b.drainRequests(rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i)
        ASSERT_EQ(ra[i].addr, rb[i].addr);

    StateWriter wa, wb;
    a.saveState(wa);
    b.saveState(wb);
    ASSERT_EQ(wa.bytes(), wb.bytes());
}

} // namespace
