/**
 * @file
 * Unit tests for the STeMS core: PST, RMOB, AGT, reconstruction
 * (including the paper's Figure 5 example), stream queues and the
 * assembled engine.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/state_codec.hh"
#include "common/stats.hh"
#include "core/agt.hh"
#include "core/pst.hh"
#include "core/reconstruction.hh"
#include "core/rmob.hh"
#include "core/stems.hh"
#include "core/stream.hh"
#include "sim/prefetch_sim.hh"
#include "test_util.hh"

namespace stems {
namespace {

// ---- PST ----

TEST(Pst, TrainLookupRoundTrip)
{
    PatternSequenceTable pst;
    std::vector<SpatialElement> seq = {{4, 0}, {2, 1}, {31, 1}};
    std::uint32_t mask = (1u << 4) | (1u << 2) | (1u << 31);
    pst.train(7, seq, mask);
    pst.train(7, seq, mask); // counters reach the threshold

    auto found = pst.lookup(7);
    ASSERT_TRUE(found.has_value());
    const SpatialSpan &out = *found;
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].offset, 4);
    EXPECT_EQ(out[0].delta, 0);
    EXPECT_EQ(out[1].offset, 2);
    EXPECT_EQ(out[1].delta, 1);
    EXPECT_EQ(out[2].offset, 31);
}

TEST(Pst, SingleTrainingBelowThreshold)
{
    PatternSequenceTable pst;
    pst.train(7, {{4, 0}}, 1u << 4);
    auto out = pst.lookup(7);
    ASSERT_TRUE(out.has_value()); // entry exists...
    EXPECT_TRUE(out->empty());    // ...but nothing predicts yet
    EXPECT_EQ(pst.predictedMask(7), 0u);
}

TEST(Pst, CountersDecayForAbsentOffsets)
{
    PatternSequenceTable pst;
    std::uint32_t m49 = (1u << 4) | (1u << 9);
    pst.train(7, {{4, 0}, {9, 0}}, m49);
    pst.train(7, {{4, 0}, {9, 0}}, m49);
    pst.train(7, {{4, 0}}, 1u << 4);
    pst.train(7, {{4, 0}}, 1u << 4);
    // Offset 9 trained twice then decayed twice: back below
    // threshold; offset 4 saturated.
    EXPECT_EQ(pst.predictedMask(7), 1u << 4);
}

TEST(Pst, UnknownIndexFails)
{
    PatternSequenceTable pst;
    EXPECT_FALSE(pst.lookup(99).has_value());
    EXPECT_EQ(pst.predictedMask(99), 0u);
}

TEST(Pst, AccessMaskTrainsCountersWithoutSequence)
{
    PatternSequenceTable pst;
    // Blocks 5 and 6 touched but only 5 missed (6 was cache
    // resident): both counters must rise.
    pst.train(3, {{5, 0}}, (1u << 5) | (1u << 6));
    pst.train(3, {{5, 0}}, (1u << 5) | (1u << 6));
    EXPECT_EQ(pst.predictedMask(3), (1u << 5) | (1u << 6));
}

// ---- RMOB ----

TEST(Rmob, AppendLookup)
{
    RegionMissOrderBuffer rmob(16);
    auto p0 = rmob.append(0x1000, 0xAA, 0);
    auto p1 = rmob.append(0x2000, 0xBB, 3);
    EXPECT_EQ(p0, 0u);
    EXPECT_EQ(p1, 1u);
    auto e = rmob.at(p1);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->addr, 0x2000u);
    EXPECT_EQ(e->pc16, 0xBB);
    EXPECT_EQ(e->delta, 3);
    EXPECT_EQ(rmob.lookup(0x1000).value(), p0);
}

TEST(Rmob, LookupReturnsMostRecent)
{
    RegionMissOrderBuffer rmob(16);
    rmob.append(0x1000, 1, 0);
    rmob.append(0x2000, 2, 0);
    auto p = rmob.append(0x1000, 3, 0);
    EXPECT_EQ(rmob.lookup(0x1000).value(), p);
}

TEST(Rmob, StaleIndexDetectedAfterWrap)
{
    RegionMissOrderBuffer rmob(4);
    rmob.append(0x1000, 1, 0);
    for (int i = 0; i < 4; ++i)
        rmob.append(0x9000 + Addr(i) * 64, 2, 0);
    // 0x1000's position was overwritten.
    EXPECT_FALSE(rmob.lookup(0x1000).has_value());
    EXPECT_FALSE(rmob.at(0).has_value());
}

TEST(Rmob, DeltaClamps)
{
    RegionMissOrderBuffer rmob(4);
    auto p = rmob.append(0x1000, 1, 10000);
    EXPECT_EQ(rmob.at(p)->delta, 255);
}

/** Saved state of a 3-entry RMOB (positions 0..2, frontier 3) and
 *  the byte offset of its address index: tag, capacity, frontier,
 *  then 13 bytes per live entry. */
struct RmobBlob
{
    std::vector<std::uint8_t> bytes;
    std::size_t indexOffset;
};

RmobBlob
threeEntryRmobBlob()
{
    RegionMissOrderBuffer rmob(8);
    rmob.append(0x1000, 1, 0);
    rmob.append(0x2000, 2, 0);
    rmob.append(0x3000, 3, 0);
    StateWriter w;
    rmob.saveState(w);
    return {w.take(), 4 + 8 + 8 + 3 * 13};
}

/** Whether an RMOB of the blob's capacity decodes these bytes. */
bool
rmobLoads(const std::vector<std::uint8_t> &bytes)
{
    RegionMissOrderBuffer rmob(8);
    StateReader r(bytes.data(), bytes.size());
    rmob.loadState(r);
    return r.atEnd();
}

TEST(Rmob, SplicedOriginalIndexIsTheSavedBlob)
{
    // Anchors the splice offset: re-writing the saved index
    // verbatim reproduces the blob, which decodes.
    RmobBlob b = threeEntryRmobBlob();
    auto same = test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2000, 1}, {0x3000, 2}});
    EXPECT_EQ(same, b.bytes);
    EXPECT_TRUE(rmobLoads(same));
}

TEST(Rmob, LoadRejectsUnalignedIndexKey)
{
    RmobBlob b = threeEntryRmobBlob();
    EXPECT_FALSE(rmobLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2008, 1}, {0x3000, 2}})));
    // The flat index's empty-slot sentinel is one such key.
    EXPECT_FALSE(rmobLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {~Addr{0}, 1}})));
}

TEST(Rmob, LoadRejectsDuplicateIndexKey)
{
    RmobBlob b = threeEntryRmobBlob();
    EXPECT_FALSE(rmobLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x1000, 1}, {0x3000, 2}})));
}

TEST(Rmob, LoadRejectsIndexPositionAtOrPastFrontier)
{
    RmobBlob b = threeEntryRmobBlob();
    EXPECT_FALSE(rmobLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2000, 3}})));
}

// ---- AGT ----

TEST(StemsAgtTest, OpenAccumulateEnd)
{
    StemsAgt agt;
    std::vector<StemsGeneration> ended;
    auto on_end = [&](const StemsGeneration &g) { ended.push_back(g); };
    agt.setEndCallback(on_end);

    Addr region = 0x40000;
    StemsGeneration &g = agt.open(region);
    g.mask = 1u << 3;
    g.accessMask = 1u << 3;
    g.sequence.push_back({7, 0});
    g.mask |= 1u << 7;

    // Removing an untouched block: nothing.
    agt.blockRemoved(addrFromRegionOffset(region, 20));
    EXPECT_TRUE(ended.empty());

    agt.blockRemoved(addrFromRegionOffset(region, 7));
    ASSERT_EQ(ended.size(), 1u);
    EXPECT_EQ(ended[0].sequence.size(), 1u);
    EXPECT_EQ(agt.find(region), nullptr);
}

TEST(StemsAgtTest, CapacityEvictionEndsVictim)
{
    StemsAgtParams p;
    p.entries = 2;
    StemsAgt agt(p);
    int ended = 0;
    auto on_end = [&](const StemsGeneration &) { ++ended; };
    agt.setEndCallback(on_end);
    agt.open(0x10000).mask = 1;
    agt.open(0x20000).mask = 1;
    agt.open(0x30000).mask = 1; // evicts one of the first two
    EXPECT_EQ(ended, 1);
}

// ---- Reconstruction ----

/**
 * The paper's Figure 5 example: RMOB holds A,B,C,D with deltas such
 * that the reconstruction interleaves each region's spatial sequence
 * into the total order. We build the same structure with our delta
 * semantics (delta = elements strictly between; see DESIGN.md) and
 * verify the reconstructed order.
 *
 * Target order: A A+4 A+2 B B+6 A-1 C D D+1 D+2
 * Positions:    0  1   2  3  4   5  6 7  8   9
 */
TEST(Reconstruction, Figure5Example)
{
    Addr region_a = 0x100000 + kRegionBytes; // room for A-1
    Addr region_b = 0x200000;
    Addr region_c = 0x300000;
    Addr region_d = 0x400000;
    Addr a = addrFromRegionOffset(region_a, 8);
    Addr b = addrFromRegionOffset(region_b, 4);
    Addr c = addrFromRegionOffset(region_c, 2);
    Addr d = addrFromRegionOffset(region_d, 1);

    // Spatial sequences (offset, delta) relative to each trigger,
    // with deltas counting interleaved misses:
    // A: +4 at pos1 (delta 0), +2 at pos2 (delta 0), -1 at pos5
    //    (delta 2: B and B+6 intervene).
    // B: +6 at pos4 (delta 0).
    // D: +1 (delta 0), +2 (delta 0).
    PatternSequenceTable pst;
    auto train = [&](std::uint16_t pc, unsigned trig_off,
                     std::vector<SpatialElement> seq) {
        std::uint32_t mask = 0;
        for (auto &el : seq)
            mask |= 1u << el.offset;
        std::uint64_t idx = stemsPatternIndex(pc, trig_off);
        pst.train(idx, seq, mask);
        pst.train(idx, seq, mask);
    };
    train(0x1, 8, {{12, 0}, {10, 0}, {7, 2}});  // A+4, A+2, A-1
    train(0x2, 4, {{10, 0}});                   // B+6
    train(0x4, 1, {{2, 0}, {3, 0}});            // D+1, D+2

    // RMOB deltas: number of misses strictly between consecutive
    // RMOB entries in the target order:
    // A@0, B@3 (A+4, A+2 between: delta 2), C@6 (B+6, A-1: delta 2),
    // D@7 (delta 0).
    RegionMissOrderBuffer rmob(16);
    auto pos_a = rmob.append(a, 0x1, 0);
    rmob.append(b, 0x2, 2);
    rmob.append(c, 0x3, 2);
    rmob.append(d, 0x4, 0);

    Reconstructor recon(rmob, pst);
    auto w = recon.reconstruct(pos_a);
    ASSERT_TRUE(w.valid);

    std::vector<Addr> expect = {
        a,
        addrFromRegionOffset(region_a, 12), // A+4
        addrFromRegionOffset(region_a, 10), // A+2
        b,
        addrFromRegionOffset(region_b, 10), // B+6
        addrFromRegionOffset(region_a, 7),  // A-1
        c,
        d,
        addrFromRegionOffset(region_d, 2), // D+1
        addrFromRegionOffset(region_d, 3), // D+2
    };
    EXPECT_EQ(std::vector<Addr>(w.sequence.begin(), w.sequence.end()),
              expect);
    // Everything fit in its original slot.
    EXPECT_EQ(recon.displacements().count(0),
              recon.displacements().total());
    EXPECT_EQ(recon.dropped(), 0u);
}

TEST(Reconstruction, DisplacementSearchResolvesCollisions)
{
    // Two regions whose spatial elements collide on the same slot.
    PatternSequenceTable pst;
    std::vector<SpatialElement> seq = {{5, 0}};
    pst.train(stemsPatternIndex(0x1, 0), seq, 1u << 5);
    pst.train(stemsPatternIndex(0x1, 0), seq, 1u << 5);
    pst.train(stemsPatternIndex(0x2, 0), seq, 1u << 5);
    pst.train(stemsPatternIndex(0x2, 0), seq, 1u << 5);

    RegionMissOrderBuffer rmob(8);
    Addr r1 = 0x100000, r2 = 0x200000;
    // Both entries delta 0: entry2 lands at slot 1, but region 1's
    // spatial element also wants slot 1.
    auto p = rmob.append(addrFromRegionOffset(r1, 0), 0x1, 0);
    rmob.append(addrFromRegionOffset(r2, 0), 0x2, 0);

    Reconstructor recon(rmob, pst);
    auto w = recon.reconstruct(p);
    ASSERT_TRUE(w.valid);
    // All four addresses must be present despite the collision.
    EXPECT_EQ(w.sequence.size(), 4u);
    EXPECT_GT(recon.displacements().fractionWithin(2), 0.99);
}

TEST(Reconstruction, InvalidStartPosition)
{
    PatternSequenceTable pst;
    RegionMissOrderBuffer rmob(4);
    Reconstructor recon(rmob, pst);
    auto w = recon.reconstruct(0);
    EXPECT_FALSE(w.valid);
    EXPECT_TRUE(w.sequence.empty());
}

TEST(Reconstruction, WindowEndsAtBufferSlots)
{
    PatternSequenceTable pst;
    RegionMissOrderBuffer rmob(1024);
    for (int i = 0; i < 600; ++i)
        rmob.append(0x100000 + Addr(i) * kRegionBytes, 0x1, 0);
    ReconstructionParams rp;
    rp.bufferSlots = 64;
    Reconstructor recon(rmob, pst, rp);
    auto w = recon.reconstruct(0);
    ASSERT_TRUE(w.valid);
    EXPECT_EQ(w.sequence.size(), 64u);
    EXPECT_EQ(w.nextPos, 64u);
    // Resuming covers the next window.
    auto w2 = recon.reconstruct(w.nextPos);
    ASSERT_TRUE(w2.valid);
    EXPECT_EQ(w2.sequence.front(),
              0x100000 + Addr(64) * kRegionBytes);
}

/** A reconstructor blob: its displacement buckets as given, then
 *  the dropped and window counters. */
std::vector<std::uint8_t>
reconBlob(const std::vector<std::pair<std::int64_t, std::uint64_t>>
              &buckets)
{
    StateWriter w;
    w.tag(stateTag('R', 'C', 'O', 'N'));
    w.u64(buckets.size());
    for (const auto &kv : buckets) {
        w.i64(kv.first);
        w.u64(kv.second);
    }
    w.u64(1); // dropped
    w.u64(9); // windows
    return w.take();
}

TEST(Reconstruction, DisplacementCountsRoundTripAsHistogram)
{
    RegionMissOrderBuffer rmob(16);
    PatternSequenceTable pst;
    Reconstructor recon(rmob, pst); // displacement window 2
    auto blob = reconBlob({{-2, 1}, {0, 40}, {1, 3}});
    StateReader r(blob.data(), blob.size());
    recon.loadState(r);
    ASSERT_TRUE(r.atEnd());
    Histogram h = recon.displacements();
    EXPECT_EQ(h.total(), 44u);
    EXPECT_EQ(h.count(-2), 1u);
    EXPECT_EQ(h.count(0), 40u);
    EXPECT_EQ(h.count(1), 3u);
    EXPECT_EQ(h.buckets().size(), 3u);
    StateWriter w;
    recon.saveState(w);
    EXPECT_EQ(w.bytes(), blob);
}

TEST(Reconstruction, LoadRejectsImpossibleDisplacementBuckets)
{
    auto loads = [](const std::vector<std::uint8_t> &blob) {
        RegionMissOrderBuffer rmob(16);
        PatternSequenceTable pst;
        Reconstructor recon(rmob, pst); // displacement window 2
        StateReader r(blob.data(), blob.size());
        recon.loadState(r);
        return r.atEnd();
    };
    EXPECT_TRUE(loads(reconBlob({{-1, 2}, {0, 5}})));
    EXPECT_FALSE(loads(reconBlob({{0, 5}, {3, 1}})));  // past +window
    EXPECT_FALSE(loads(reconBlob({{-3, 1}, {0, 5}}))); // past -window
    EXPECT_FALSE(loads(reconBlob({{0, 0}})));           // zero count
    EXPECT_FALSE(loads(reconBlob({{1, 2}, {0, 5}})));   // descending
    EXPECT_FALSE(loads(reconBlob({{0, 2}, {0, 5}})));   // duplicate
}

// ---- Stream queues ----

int
allocateList(StreamQueueSet &s, const std::vector<Addr> &initial,
             bool confirmed = false,
             std::optional<std::uint64_t> refill_cursor = std::nullopt)
{
    return s.allocate(initial.data(), initial.data() + initial.size(),
                      confirmed, refill_cursor);
}

std::vector<PrefetchRequest>
drainStreams(StreamQueueSet &s)
{
    std::vector<PrefetchRequest> out;
    s.drainRequests(out);
    return out;
}

TEST(StreamQueues, ConfidenceRamp)
{
    StreamQueueSet s;
    int id = allocateList(s, {0x1000, 0x2000, 0x3000});
    auto reqs = drainStreams(s);
    ASSERT_EQ(reqs.size(), 1u); // ramp: one block
    EXPECT_EQ(reqs[0].addr, 0x1000u);
    EXPECT_EQ(reqs[0].streamId, id);

    s.onHit(id); // confirmed: opens to the lookahead
    reqs = drainStreams(s);
    EXPECT_EQ(reqs.size(), 2u);
}

TEST(StreamQueues, ConfirmedAllocationSkipsRamp)
{
    StreamParams p;
    p.lookahead = 4;
    StreamQueueSet s(p);
    allocateList(s, {0x1000, 0x2000, 0x3000, 0x4000, 0x5000},
                 /*confirmed=*/true);
    EXPECT_EQ(drainStreams(s).size(), 4u);
}

TEST(StreamQueues, ResyncSkipsAhead)
{
    StreamQueueSet s;
    int id = allocateList(s, {0x1000, 0x2000, 0x3000, 0x4000});
    drainStreams(s); // 0x1000 issued
    // Demand missed 0x3000: within the resync window.
    EXPECT_TRUE(s.resync(0x3000));
    auto reqs = drainStreams(s);
    ASSERT_FALSE(reqs.empty());
    EXPECT_EQ(reqs[0].addr, 0x4000u);
    EXPECT_EQ(reqs[0].streamId, id);
    EXPECT_FALSE(s.resync(0x77777000)); // unknown address
}

TEST(StreamQueues, StaleIdIgnoredAfterReallocation)
{
    StreamParams p;
    p.numStreams = 1;
    StreamQueueSet s(p);
    int id1 = allocateList(s, {0x1000, 0x2000});
    drainStreams(s);
    int id2 = allocateList(s, {0x9000, 0xA000});
    EXPECT_NE(id1, id2);
    drainStreams(s);
    // A hit for the dead stream must not advance the new one.
    s.onHit(id1);
    EXPECT_TRUE(drainStreams(s).empty());
    // The live stream still works.
    s.onHit(id2);
    EXPECT_FALSE(drainStreams(s).empty());
}

TEST(StreamQueues, AllocateCopiesBeforeFirstRefill)
{
    // A temporal stream start hands allocate() a view of the
    // reconstructor's buffer, which the stream's first refill
    // reconstructs over: the queue must own a copy by then.
    std::vector<Addr> window = {0x1000, 0x2000};
    StreamParams p;
    p.refillLowWater = 4; // refills before the first prefetch
    int refills = 0;
    auto refill = [&](RingQueue<Addr> &, std::uint64_t &) {
        ++refills;
        window.assign({0xdead000, 0xbeef000}); // same storage
    };
    StreamQueueSet s(p, refill);
    s.allocate(window.data(), window.data() + window.size(),
               /*confirmed=*/true, /*refill_cursor=*/0);
    auto reqs = drainStreams(s);
    EXPECT_GE(refills, 1);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].addr, 0x1000u);
    EXPECT_EQ(reqs[1].addr, 0x2000u);
}

TEST(StreamQueues, RefillExtendsStream)
{
    StreamParams p;
    p.lookahead = 2;
    p.refillLowWater = 2;
    int calls = 0;
    auto refill = [&](RingQueue<Addr> &pending, std::uint64_t &) {
        if (calls++ < 3)
            for (int i = 0; i < 4; ++i)
                pending.push_back(0x100000 + Addr(calls) * 0x1000 +
                                  Addr(i) * 64);
    };
    StreamQueueSet s(p, refill);
    int id = allocateList(s, {0x1000}, /*confirmed=*/false,
                          /*refill_cursor=*/0);
    drainStreams(s);
    for (int i = 0; i < 12; ++i)
        s.onHit(id);
    drainStreams(s);
    EXPECT_GE(calls, 3);
}

// ---- Assembled engine ----

SimParams
tinySystem()
{
    SimParams p;
    p.hierarchy.l1Bytes = 16 * kBlockBytes;
    p.hierarchy.l1Ways = 2;
    p.hierarchy.l2Bytes = 64 * kBlockBytes;
    p.hierarchy.l2Ways = 4;
    return p;
}

TEST(StemsEngine, CoversRepeatedTemporalSequence)
{
    TraceBuilder b;
    for (int it = 0; it < 8; ++it)
        for (int i = 0; i < 400; ++i)
            b.read(0x1000000 + Addr(i) * 0x10000, 0x40, 0, true);
    Trace t = b.take();

    StemsPrefetcher engine;
    PrefetchSimulator sim(tinySystem(), &engine);
    sim.run(t, 800);
    const SimStats &s = sim.stats();
    EXPECT_GT(ratio(s.covered(), s.offChipReadEvents()), 0.9);
}

TEST(StemsEngine, SpatialOnlyStreamsCoverCompulsoryRegions)
{
    // DSS-style scan: fresh regions, same dense pattern, same code.
    TraceBuilder b;
    for (int page = 0; page < 400; ++page) {
        Addr base = 0x4000000 + Addr(page) * kRegionBytes;
        for (unsigned off = 0; off < 10; ++off)
            b.read(addrFromRegionOffset(base, off),
                   0x900 + off * 4, 0, false);
    }
    Trace t = b.take();

    StemsPrefetcher engine;
    PrefetchSimulator sim(tinySystem(), &engine);
    sim.run(t, t.size() / 2);
    const SimStats &s = sim.stats();
    // Triggers are compulsory; the other 9 blocks per page are
    // spatially predictable via spatial-only streams.
    EXPECT_GT(ratio(s.covered(), s.offChipReadEvents()), 0.7);
    EXPECT_GT(engine.spatialOnlyStreams(), 100u);
}

TEST(StemsEngine, FiltersSpatiallyPredictedMissesFromRmob)
{
    TraceBuilder b;
    for (int page = 0; page < 300; ++page) {
        Addr base = 0x4000000 + Addr(page) * kRegionBytes;
        for (unsigned off = 0; off < 8; ++off)
            b.read(addrFromRegionOffset(base, off),
                   0x900 + off * 4, 0, false);
    }
    Trace t = b.take();

    StemsPrefetcher engine;
    PrefetchSimulator sim(tinySystem(), &engine);
    sim.run(t);
    // Once the pattern trains, the 7 non-trigger misses per page stop
    // entering the RMOB (paper Section 4.1).
    EXPECT_GT(engine.filteredMisses(), 1000u);
    EXPECT_LT(engine.rmob().frontier(),
              sim.stats().offChipReadEvents());
}

TEST(StemsEngine, UncorrelatedTrafficStaysQuiet)
{
    Rng rng(5);
    TraceBuilder b;
    for (int i = 0; i < 3000; ++i)
        b.read((Addr{1} << 33) + Addr(rng.next()) * kBlockBytes,
               0x10 + rng.below(64) * 4, 0, false);
    Trace t = b.take();

    StemsPrefetcher engine;
    PrefetchSimulator sim(tinySystem(), &engine);
    sim.run(t);
    const SimStats &s = sim.stats();
    EXPECT_EQ(s.covered(), 0u);
    // No spurious prefetch storms on random traffic.
    EXPECT_LT(s.prefetchesIssued, 600u);
}

} // namespace
} // namespace stems
