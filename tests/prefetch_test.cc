/**
 * @file
 * Unit tests for the stride, SMS, TMS and naive-hybrid engines,
 * exercised both directly (hook-level) and through the simulator on
 * crafted traces.
 */

#include <gtest/gtest.h>

#include "common/state_codec.hh"
#include "common/stats.hh"
#include "prefetch/hybrid.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"
#include "prefetch/tms.hh"
#include "sim/prefetch_sim.hh"
#include "test_util.hh"

namespace stems {
namespace {

std::vector<PrefetchRequest>
drain(Prefetcher &p)
{
    std::vector<PrefetchRequest> out;
    p.drainRequests(out);
    return out;
}

/** Tiny hierarchy so crafted traces miss deterministically. */
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

// ---- stride ----

TEST(Stride, DetectsUnitStride)
{
    StridePrefetcher s;
    // Three accesses with stride 1 block train the confidence.
    for (int i = 0; i < 6; ++i)
        s.onL1Access(0x1000 + i * kBlockBytes, 0x400, false);
    auto reqs = drain(s);
    ASSERT_FALSE(reqs.empty());
    // The last prediction targets the blocks after the last access.
    Addr last = 0x1000 + 5 * kBlockBytes;
    EXPECT_EQ(reqs[reqs.size() - 2].addr, last + 1 * kBlockBytes);
    EXPECT_EQ(reqs[reqs.size() - 1].addr, last + 2 * kBlockBytes);
}

TEST(Stride, DetectsNegativeStride)
{
    StridePrefetcher s;
    for (int i = 0; i < 6; ++i)
        s.onL1Access(0x100000 - i * kBlockBytes, 0x400, false);
    auto reqs = drain(s);
    ASSERT_FALSE(reqs.empty());
    Addr last = 0x100000 - 5 * kBlockBytes;
    EXPECT_EQ(blockNumber(reqs[reqs.size() - 2].addr),
              blockNumber(last) - 1);
}

TEST(Stride, IgnoresRandomPattern)
{
    StridePrefetcher s;
    Addr addrs[] = {0x1000, 0x88000, 0x3040, 0x910000, 0x5280,
                    0x66000, 0x10c0, 0x72980};
    for (Addr a : addrs)
        s.onL1Access(a, 0x400, false);
    EXPECT_TRUE(drain(s).empty());
}

TEST(Stride, SameBlockDoesNotTrain)
{
    StridePrefetcher s;
    for (int i = 0; i < 10; ++i)
        s.onL1Access(0x2000 + (i % 2) * 4, 0x400, false);
    EXPECT_TRUE(drain(s).empty());
}

TEST(Stride, PerPcTracking)
{
    StridePrefetcher s;
    // Two interleaved streams with different PCs and strides.
    for (int i = 0; i < 6; ++i) {
        s.onL1Access(0x10000 + i * kBlockBytes, 0xA, false);
        s.onL1Access(0x900000 + i * 4 * kBlockBytes, 0xB, false);
    }
    auto reqs = drain(s);
    ASSERT_GE(reqs.size(), 4u);
    bool saw_unit = false;
    bool saw_four = false;
    for (const auto &r : reqs) {
        if (r.addr > 0x900000 &&
            (blockNumber(r.addr) - blockNumber(Addr{0x900000})) % 4 ==
                0) {
            saw_four = true;
        }
        if (r.addr < 0x900000)
            saw_unit = true;
    }
    EXPECT_TRUE(saw_unit);
    EXPECT_TRUE(saw_four);
}

TEST(Stride, BufferCapacityMatchesTable1)
{
    StridePrefetcher s;
    EXPECT_EQ(s.bufferCapacity(), 32u);
}

// ---- SMS ----

constexpr Addr kRegionX = 0x400000;

Addr
blk(Addr region, unsigned off)
{
    return addrFromRegionOffset(region, off);
}

/** Train one generation with the given offsets and end it. */
void
trainGeneration(SmsPrefetcher &sms, Addr region, Pc pc,
                const std::vector<unsigned> &offsets)
{
    for (unsigned off : offsets)
        sms.onL1Access(blk(region, off), pc + off * 4, false);
    // Evicting the trigger block ends the generation.
    sms.onL1BlockRemoved(blk(region, offsets[0]));
}

TEST(Sms, PredictsLearnedPatternInNewRegion)
{
    SmsPrefetcher sms;
    std::vector<unsigned> pattern = {3, 7, 12, 20};

    // Two training generations bring the counters to threshold.
    trainGeneration(sms, kRegionX, 0x500, pattern);
    drain(sms);
    trainGeneration(sms, kRegionX + kRegionBytes, 0x500, pattern);
    drain(sms);

    // A fresh region touched by the same code at the same offset.
    Addr fresh = kRegionX + 64 * kRegionBytes;
    sms.onL1Access(blk(fresh, 3), 0x500 + 3 * 4, false);
    auto reqs = drain(sms);
    ASSERT_EQ(reqs.size(), 3u); // pattern minus the trigger block
    std::set<Addr> want = {blk(fresh, 7), blk(fresh, 12),
                           blk(fresh, 20)};
    std::set<Addr> got;
    for (const auto &r : reqs) {
        EXPECT_EQ(r.sink, PrefetchSink::kL2);
        got.insert(r.addr);
    }
    EXPECT_EQ(got, want);
}

TEST(Sms, SingleTrainingIsBelowThreshold)
{
    SmsPrefetcher sms;
    trainGeneration(sms, kRegionX, 0x500, {3, 7, 12});
    drain(sms);
    Addr fresh = kRegionX + 64 * kRegionBytes;
    sms.onL1Access(blk(fresh, 3), 0x500 + 12, false);
    EXPECT_TRUE(drain(sms).empty());
}

TEST(Sms, CountersForgiveOneUnstableMiss)
{
    SmsPrefetcher sms;
    // Offset 9 appears in 3 of 4 generations: its counter stays at
    // or above threshold.
    trainGeneration(sms, kRegionX, 0x500, {3, 9});
    trainGeneration(sms, kRegionX + kRegionBytes, 0x500, {3, 9});
    trainGeneration(sms, kRegionX + 2 * kRegionBytes, 0x500, {3});
    trainGeneration(sms, kRegionX + 3 * kRegionBytes, 0x500, {3, 9});
    drain(sms);

    Addr fresh = kRegionX + 64 * kRegionBytes;
    sms.onL1Access(blk(fresh, 3), 0x500 + 3 * 4, false);
    auto reqs = drain(sms);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, blk(fresh, 9));
}

TEST(Sms, BitVectorModeForgetsInstantly)
{
    SmsParams p;
    p.useCounters = false;
    SmsPrefetcher sms(p);
    trainGeneration(sms, kRegionX, 0x500, {3, 9});
    trainGeneration(sms, kRegionX + kRegionBytes, 0x500, {3});
    drain(sms);

    // The last generation replaced the pattern: only offset 3 set,
    // and the trigger is 3 itself, so nothing is predicted.
    Addr fresh = kRegionX + 64 * kRegionBytes;
    sms.onL1Access(blk(fresh, 3), 0x500 + 3 * 4, false);
    EXPECT_TRUE(drain(sms).empty());
}

TEST(Sms, DifferentPcDifferentPattern)
{
    SmsPrefetcher sms;
    for (int rep = 0; rep < 2; ++rep) {
        trainGeneration(sms, kRegionX + rep * kRegionBytes, 0x500,
                        {3, 7});
        trainGeneration(sms,
                        kRegionX + (rep + 8) * kRegionBytes, 0x900,
                        {3, 25});
    }
    drain(sms);

    Addr fresh = kRegionX + 64 * kRegionBytes;
    sms.onL1Access(blk(fresh, 3), 0x900 + 3 * 4, false);
    auto reqs = drain(sms);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].addr, blk(fresh, 25));
}

TEST(Sms, GenerationEndsOnlyOnTouchedBlockRemoval)
{
    SmsPrefetcher sms;
    sms.onL1Access(blk(kRegionX, 3), 0x500, false);
    sms.onL1Access(blk(kRegionX, 7), 0x504, false);
    // Removing an untouched block does not end the generation.
    sms.onL1BlockRemoved(blk(kRegionX, 30));
    EXPECT_EQ(sms.trainedPatterns(), 0u);
    sms.onL1BlockRemoved(blk(kRegionX, 7));
    EXPECT_EQ(sms.trainedPatterns(), 1u);
}

// ---- TMS ----

TEST(Tms, StreamsRepeatedMissSequence)
{
    // Repeating loop over blocks that always miss (tiny caches).
    TraceBuilder b;
    for (int it = 0; it < 8; ++it)
        for (int i = 0; i < 500; ++i)
            b.read(0x100000 + Addr(i) * 0x10000, 0x400, 0, true);
    Trace t = b.take();

    TmsPrefetcher tms;
    PrefetchSimulator sim(tinySystem(), &tms);
    sim.run(t, 1000); // warm the first two iterations
    const SimStats &s = sim.stats();
    // All measured misses are covered after training.
    EXPECT_GT(ratio(s.covered(), s.offChipReadEvents()), 0.95);
    EXPECT_EQ(tms.streamsStarted(), 1u);
}

TEST(Tms, NoRepetitionNoCoverage)
{
    TraceBuilder b;
    for (int i = 0; i < 4000; ++i)
        b.read(0x100000 + Addr(i) * 0x10000, 0x400, 0, false);
    Trace t = b.take();

    TmsPrefetcher tms;
    PrefetchSimulator sim(tinySystem(), &tms);
    sim.run(t);
    EXPECT_EQ(sim.stats().covered(), 0u);
}

TEST(Tms, ResyncSurvivesSkippedElement)
{
    // Train a sequence, then replay it with one element missing: the
    // stream must resynchronize rather than die.
    std::vector<Addr> seq;
    for (int i = 0; i < 40; ++i)
        seq.push_back(0x200000 + Addr(i) * 0x10000);

    TraceBuilder b;
    for (int it = 0; it < 8; ++it) {
        for (std::size_t i = 0; i < seq.size(); ++i) {
            if (it > 0 && i == 20)
                continue; // skip one element in replays
            b.read(seq[i], 0x400, 0, true);
        }
    }
    Trace t = b.take();

    TmsPrefetcher tms;
    PrefetchSimulator sim(tinySystem(), &tms);
    sim.run(t, seq.size() * 2);
    const SimStats &s = sim.stats();
    EXPECT_GT(ratio(s.covered(), s.offChipReadEvents()), 0.8);
}

TEST(Tms, ConfidenceRampIssuesOneBlockFirst)
{
    TmsPrefetcher tms;
    // Record a sequence A B C D, then miss on A again.
    Addr a = 0x1000000, step = 0x10000;
    for (int i = 0; i < 4; ++i)
        tms.onOffChipRead({a + i * step, 0x1, std::uint64_t(i),
                           false, -1});
    std::vector<PrefetchRequest> out;
    tms.drainRequests(out);
    out.clear();
    tms.onOffChipRead({a, 0x1, 4, false, -1});
    tms.drainRequests(out);
    // New stream: exactly one block (the ramp).
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, a + step);
    int stream_id = out[0].streamId;

    // Consuming it opens the stream up to the lookahead.
    out.clear();
    tms.onPrefetchHit(a + step, stream_id);
    tms.drainRequests(out);
    EXPECT_GE(out.size(), 2u);
}

/** TMS with a 3-miss history (positions 0..2, frontier 3), saved.
 *  Its address index follows the tag, three counters and the
 *  buffer (capacity, frontier, 8 bytes per live entry). */
struct TmsBlob
{
    std::vector<std::uint8_t> bytes;
    std::size_t indexOffset;
};

TmsParams
smallTms()
{
    TmsParams p;
    p.bufferEntries = 8;
    return p;
}

TmsBlob
threeMissTmsBlob()
{
    TmsPrefetcher tms(smallTms());
    for (int i = 0; i < 3; ++i)
        tms.onOffChipRead({0x1000 * Addr(i + 1), 0x1,
                           std::uint64_t(i), false, -1});
    StateWriter w;
    tms.saveState(w);
    return {w.take(), 4 + 3 * 8 + 8 + 8 + 3 * 8};
}

bool
tmsLoads(const std::vector<std::uint8_t> &bytes)
{
    TmsPrefetcher tms(smallTms());
    StateReader r(bytes.data(), bytes.size());
    tms.loadState(r);
    return r.atEnd();
}

TEST(Tms, SplicedOriginalIndexIsTheSavedBlob)
{
    TmsBlob b = threeMissTmsBlob();
    auto same = test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2000, 1}, {0x3000, 2}});
    EXPECT_EQ(same, b.bytes);
    EXPECT_TRUE(tmsLoads(same));
}

TEST(Tms, LoadRejectsUnalignedIndexKey)
{
    TmsBlob b = threeMissTmsBlob();
    EXPECT_FALSE(tmsLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2008, 1}, {0x3000, 2}})));
    EXPECT_FALSE(tmsLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {~Addr{0}, 1}})));
}

TEST(Tms, LoadRejectsDuplicateIndexKey)
{
    TmsBlob b = threeMissTmsBlob();
    EXPECT_FALSE(tmsLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x1000, 1}, {0x3000, 2}})));
}

TEST(Tms, LoadRejectsIndexPositionAtOrPastFrontier)
{
    TmsBlob b = threeMissTmsBlob();
    EXPECT_FALSE(tmsLoads(test::spliceAddrIndex(
        b.bytes, b.indexOffset, {{0x1000, 0}, {0x2000, 3}})));
}

// ---- hybrid ----

TEST(Hybrid, MergesBothEnginesRequests)
{
    NaiveHybridPrefetcher h;
    // SMS side: train a pattern over two generations.
    std::vector<unsigned> pattern = {2, 6, 11};
    for (int g = 0; g < 2; ++g) {
        Addr region = kRegionX + g * kRegionBytes;
        for (unsigned off : pattern)
            h.onL1Access(blk(region, off), 0x700 + off * 4, false);
        h.onL1BlockRemoved(blk(region, 2));
    }
    std::vector<PrefetchRequest> out;
    h.drainRequests(out);
    out.clear();

    // TMS side: record a miss sequence and revisit it; SMS side:
    // trigger a fresh region.
    Addr a = 0x3000000, step = 0x20000;
    for (int i = 0; i < 4; ++i)
        h.onOffChipRead({a + i * step, 0x9, std::uint64_t(i), false,
                         -1});
    h.drainRequests(out);
    out.clear();

    Addr fresh = kRegionX + 64 * kRegionBytes;
    h.onL1Access(blk(fresh, 2), 0x700 + 2 * 4, false);
    h.onOffChipRead({a, 0x9, 4, false, -1});
    h.drainRequests(out);

    bool saw_l2_sink = false;
    bool saw_buffer_sink = false;
    for (const auto &r : out) {
        if (r.sink == PrefetchSink::kL2)
            saw_l2_sink = true;
        if (r.sink == PrefetchSink::kBuffer)
            saw_buffer_sink = true;
    }
    EXPECT_TRUE(saw_l2_sink);
    EXPECT_TRUE(saw_buffer_sink);
}

} // namespace
} // namespace stems
