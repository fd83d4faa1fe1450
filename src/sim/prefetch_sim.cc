#include "sim/prefetch_sim.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace stems {

PrefetchSimulator::PrefetchSimulator(const SimParams &params,
                                     Prefetcher *engine)
    : PrefetchSimulator(params, engine, nullptr)
{
}

PrefetchSimulator::PrefetchSimulator(const SimParams &params,
                                     Prefetcher *engine,
                                     DemandFrontEnd *shared)
    : params_(params),
      ownFrontEnd_(shared ? nullptr
                          : std::make_unique<DemandFrontEnd>(
                                params.hierarchy)),
      frontEnd_(shared ? shared : ownFrontEnd_.get()),
      timing_(params.timing),
      engine_(engine)
{
    ++frontEnd_->l2Readers;
    if (engine_ != nullptr && engine_->bufferCapacity() > 0) {
        svb_ = std::make_unique<StreamedValueBuffer>(
            engine_->bufferCapacity());
    }
}

PrefetchSimulator::~PrefetchSimulator()
{
    if (!l2_)
        --frontEnd_->l2Readers;
}

Cache &
PrefetchSimulator::privateL2()
{
    if (!l2_) {
        l2_ = std::make_unique<Cache>(frontEnd_->hier.l2());
        --frontEnd_->l2Readers;
    }
    return *l2_;
}

bool
PrefetchSimulator::joinFrontEnd(DemandFrontEnd &shared)
{
    const Hierarchy &own = frontEnd_->hier;
    if (!own.l1().stateEquals(shared.hier.l1()))
        return false;
    if (!l2_) {
        if (shared.l2Readers > 0 &&
            own.l2().stateEquals(shared.hier.l2()))
            ++shared.l2Readers;
        else
            l2_ = std::make_unique<Cache>(own.l2());
    }
    frontEnd_ = &shared;
    ownFrontEnd_.reset();
    return true;
}

void
PrefetchSimulator::setMeasuring(bool on)
{
    if (on && !measuring_) {
        cyclesAtMeasureStart_ = timing_.totalCycles();
        instrAtMeasureStart_ = timing_.instructions();
    }
    measuring_ = on;
}

void
PrefetchSimulator::handleSvbVictim(const StreamedValueBuffer::Entry &e)
{
    if (measuring_)
        ++stats_.overpredictions;
    if (engine_)
        engine_->onPrefetchDrop(e.addr, e.streamId);
}

void
PrefetchSimulator::handleL2Drop(Addr a)
{
    if (measuring_)
        ++stats_.overpredictions;
    l2PrefetchReady_.erase(blockAlign(a));
    if (engine_)
        engine_->onPrefetchDrop(a, -1);
}

void
PrefetchSimulator::advance(const MemRecord &r, const DemandOutcome &fe)
{
    // A private L2 is stepped here exactly as the front-end steps
    // the shared one; from then on both kinds of lane run one path.
    L2Outcome own;
    if (l2_ && (r.isInvalidate() || !fe.l1Hit))
        own = stepL2(*l2_, r.vaddr, r.isInvalidate());
    const L2Outcome &l2 = l2_ ? own : fe.l2;
    // Callbacks in the order the hierarchy's fills produce them.
    auto l1_removed = [&] {
        if (fe.l1Evicted && engine_)
            engine_->onL1BlockRemoved(fe.l1Victim);
    };
    auto l2_dropped = [&] {
        if (l2.dropped)
            handleL2Drop(l2.dropAddr);
    };

    if (measuring_)
        ++stats_.records;

    if (r.isInvalidate()) {
        if (measuring_)
            ++stats_.invalidates;
        l1_removed();
        l2_dropped();
        if (svb_) {
            if (auto e = svb_->invalidate(r.vaddr))
                handleSvbVictim(*e);
        }
        if (engine_)
            engine_->onInvalidate(r.vaddr);
        drainAndIssue();
        return;
    }

    if (measuring_) {
        if (r.isRead())
            ++stats_.reads;
        else
            ++stats_.writes;
    }

    if (engine_)
        engine_->onL1Access(r.vaddr, r.pc, fe.l1Hit);

    AccessLevel level = AccessLevel::kL1;
    double ready = 0.0;

    if (fe.l1Hit) {
        if (measuring_)
            ++stats_.l1Hits;
    } else if (l2.hit) {
        l1_removed();
        if (l2.covered) {
            level = AccessLevel::kL2Prefetch;
            auto it = l2PrefetchReady_.find(blockAlign(r.vaddr));
            if (it != l2PrefetchReady_.end()) {
                ready = it->second;
                l2PrefetchReady_.erase(it);
            }
            if (r.isRead()) {
                if (measuring_)
                    ++stats_.l2PrefetchHits;
                if (engine_) {
                    engine_->onPrefetchHit(r.vaddr, -1);
                    engine_->onOffChipRead({blockAlign(r.vaddr), r.pc,
                                            missSeq_++, true, -1});
                }
            } else {
                // A write consuming a prefetched block is still a
                // successful prefetch (it clears the prefetch tag, so
                // the block can never be swept as an
                // overprediction): advance the owning stream,
                // mirroring the SVB write path below. Like that path
                // it does not count toward covered() -- coverage
                // measures eliminated *read* misses.
                if (measuring_)
                    ++stats_.l2Hits;
                if (engine_)
                    engine_->onPrefetchHit(r.vaddr, -1);
            }
        } else {
            level = AccessLevel::kL2;
            if (measuring_)
                ++stats_.l2Hits;
        }
    } else {
        // A hit consumes the SVB entry. It is copied out of the
        // optional into a plain local, which every path initializes.
        StreamedValueBuffer::Entry svb_entry;
        bool svb_hit = false;
        if (svb_) {
            if (auto e = svb_->consume(r.vaddr)) {
                svb_entry = *e;
                svb_hit = true;
            }
        }
        // The demand fill: L2 victim first, then L1 victim.
        l2_dropped();
        l1_removed();
        if (svb_hit) {
            level = AccessLevel::kSvb;
            ready = static_cast<double>(svb_entry.readyTime);
            if (r.isRead()) {
                if (measuring_)
                    ++stats_.svbHits;
                if (engine_) {
                    engine_->onPrefetchHit(r.vaddr, svb_entry.streamId);
                    engine_->onOffChipRead({blockAlign(r.vaddr), r.pc,
                                            missSeq_++, true,
                                            svb_entry.streamId});
                }
            } else if (engine_) {
                // A write consuming a prefetched block still
                // advances the owning stream.
                engine_->onPrefetchHit(r.vaddr, svb_entry.streamId);
            }
        } else {
            level = AccessLevel::kMemory;
            if (r.isRead()) {
                if (measuring_)
                    ++stats_.offChipReads;
                if (engine_)
                    engine_->onOffChipRead({blockAlign(r.vaddr), r.pc,
                                            missSeq_++, false, -1});
            } else if (measuring_) {
                ++stats_.offChipWrites;
            }
        }
    }

    if (params_.enableTiming)
        timing_.demandAccess(r, level, ready);

    drainAndIssue();
}

void
PrefetchSimulator::drainAndIssue()
{
    if (!engine_)
        return;
    reqScratch_.clear();
    engine_->drainRequests(reqScratch_);
    for (const PrefetchRequest &req : reqScratch_) {
        Addr addr = blockAlign(req.addr);
        if (req.sink == PrefetchSink::kBuffer) {
            if (!svb_ || svb_->contains(addr) ||
                l2().contains(addr)) {
                // Redundant prefetch: filtered. The owning stream
                // must still learn its request completed, or its
                // in-flight accounting leaks and the stream stalls.
                engine_->onPrefetchFiltered(addr, req.streamId);
                continue;
            }
            double ready = params_.enableTiming
                               ? timing_.prefetchIssued()
                               : 0.0;
            StreamedValueBuffer::Entry e;
            e.addr = addr;
            e.streamId = req.streamId;
            e.readyTime = static_cast<Cycles>(ready);
            if (measuring_)
                ++stats_.prefetchesIssued;
            if (auto victim = svb_->insert(e))
                handleSvbVictim(*victim);
        } else {
            if (l2().contains(addr))
                continue;
            double ready = params_.enableTiming
                               ? timing_.prefetchIssued()
                               : 0.0;
            if (params_.enableTiming)
                l2PrefetchReady_[addr] = ready;
            if (measuring_)
                ++stats_.prefetchesIssued;
            if (auto v = privateL2().insert(addr, /*prefetched=*/true);
                v && v->unusedPrefetch())
                handleL2Drop(v->addr);
        }
    }
}

void
PrefetchSimulator::finish()
{
    if (finished_)
        return;
    finished_ = true;

    // Anything still unconsumed was fetched in vain.
    if (svb_) {
        while (auto e = svb_->consumeAny())
            handleSvbVictim(*e);
    }
    if (measuring_) {
        stats_.overpredictions += l2().unreferencedPrefetches();
    }

    stats_.cycles = timing_.totalCycles() - cyclesAtMeasureStart_;
    stats_.instructions =
        timing_.instructions() - instrAtMeasureStart_;
}

void
PrefetchSimulator::run(const Trace &trace, std::size_t warmup_records)
{
    if (warmup_records > 0)
        setMeasuring(false);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i == warmup_records)
            setMeasuring(true);
        step(trace[i]);
    }
    finish();
}

namespace {
constexpr std::uint32_t kSimTag = stateTag('P', 'S', 'I', 'M');
} // namespace

void
PrefetchSimulator::saveState(StateWriter &w) const
{
    w.tag(kSimTag);
    w.boolean(params_.enableTiming);
    w.boolean(svb_ != nullptr);
    w.boolean(engine_ != nullptr);
    frontEnd_->hier.l1().saveState(w);
    l2().saveState(w);
    if (svb_)
        svb_->saveState(w);
    timing_.saveState(w);
    // Serialized state must be a pure function of logical state
    // (kCheckpointVersion), and unordered_map iteration order is
    // history-dependent, so emit the map key-sorted.
    std::vector<std::pair<Addr, double>> ready(l2PrefetchReady_.begin(),
                                               l2PrefetchReady_.end());
    std::sort(ready.begin(), ready.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    w.u64(ready.size());
    for (const auto &kv : ready) {
        w.u64(kv.first);
        w.f64(kv.second);
    }
    w.u64(missSeq_);
    w.boolean(measuring_);
    w.boolean(finished_);
    w.f64(cyclesAtMeasureStart_);
    w.u64(instrAtMeasureStart_);
    w.u64(stats_.records);
    w.u64(stats_.reads);
    w.u64(stats_.writes);
    w.u64(stats_.invalidates);
    w.u64(stats_.l1Hits);
    w.u64(stats_.l2Hits);
    w.u64(stats_.l2PrefetchHits);
    w.u64(stats_.svbHits);
    w.u64(stats_.offChipReads);
    w.u64(stats_.offChipWrites);
    w.u64(stats_.prefetchesIssued);
    w.u64(stats_.overpredictions);
    w.f64(stats_.cycles);
    w.u64(stats_.instructions);
    if (engine_)
        engine_->saveState(w);
}

void
PrefetchSimulator::loadState(StateReader &r)
{
    r.tag(kSimTag);
    // Construction-time structure must match the saved run exactly:
    // a timing/SVB/engine mismatch means the caller keyed the
    // checkpoint wrong.
    if (r.boolean() != params_.enableTiming ||
        r.boolean() != (svb_ != nullptr) ||
        r.boolean() != (engine_ != nullptr) || !ownFrontEnd_) {
        r.fail();
        return;
    }
    // The restored L2 replaces any private copy: read it in place.
    if (l2_) {
        l2_.reset();
        ++frontEnd_->l2Readers;
    }
    frontEnd_->hier.loadState(r);
    if (svb_)
        svb_->loadState(r);
    timing_.loadState(r);
    std::uint64_t ready = r.u64();
    l2PrefetchReady_.clear();
    for (std::uint64_t i = 0; i < ready && r.ok(); ++i) {
        Addr a = r.u64();
        double t = r.f64();
        l2PrefetchReady_[a] = t;
    }
    missSeq_ = r.u64();
    measuring_ = r.boolean();
    finished_ = r.boolean();
    cyclesAtMeasureStart_ = r.f64();
    instrAtMeasureStart_ = r.u64();
    stats_.records = r.u64();
    stats_.reads = r.u64();
    stats_.writes = r.u64();
    stats_.invalidates = r.u64();
    stats_.l1Hits = r.u64();
    stats_.l2Hits = r.u64();
    stats_.l2PrefetchHits = r.u64();
    stats_.svbHits = r.u64();
    stats_.offChipReads = r.u64();
    stats_.offChipWrites = r.u64();
    stats_.prefetchesIssued = r.u64();
    stats_.overpredictions = r.u64();
    stats_.cycles = r.f64();
    stats_.instructions = r.u64();
    if (engine_)
        engine_->loadState(r);
}

} // namespace stems
