#include "sim/batch_sim.hh"

#include <algorithm>
#include <chrono>

#include "common/log.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace stems {

namespace {

/** Registry instruments, resolved once (stable for process life). */
struct BatchMetrics
{
    LatencyHistogram &chunkNs;
    Counter &recordSteps;
    Counter &hierarchySteps;
    Counter &privateL2Lanes;

    BatchMetrics()
        : chunkNs(
              MetricsRegistry::instance().histogram("batch.chunk_ns")),
          recordSteps(
              MetricsRegistry::instance().counter("batch.record_steps")),
          hierarchySteps(MetricsRegistry::instance().counter(
              "batch.hierarchy_steps")),
          privateL2Lanes(MetricsRegistry::instance().counter(
              "batch.private_l2_lanes"))
    {
    }
};

BatchMetrics &
batchMetrics()
{
    static BatchMetrics metrics;
    return metrics;
}

bool
sameGeometry(const HierarchyParams &a, const HierarchyParams &b)
{
    return a.l1Bytes == b.l1Bytes && a.l1Ways == b.l1Ways &&
           a.l2Bytes == b.l2Bytes && a.l2Ways == b.l2Ways;
}

} // namespace

std::size_t
BatchSimulator::addLane(const SimParams &params, Prefetcher *engine,
                        std::size_t warmup_records)
{
    if (!frontEnd_)
        frontEnd_ = std::make_unique<DemandFrontEnd>(params.hierarchy);
    else if (!sameGeometry(params.hierarchy,
                           lanes_.front().sim->params_.hierarchy))
        fatal("batch lanes must share one hierarchy geometry");
    Lane lane;
    lane.sim.reset(
        new PrefetchSimulator(params, engine, frontEnd_.get()));
    lane.warmup = warmup_records;
    if (lane.warmup > 0)
        lane.sim->setMeasuring(false);
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
}

std::size_t
BatchSimulator::addRestoredLane(
    std::unique_ptr<PrefetchSimulator> restored,
    std::size_t warmup_records)
{
    if (!frontEnd_)
        frontEnd_ = std::move(restored->ownFrontEnd_);
    else if (!restored->joinFrontEnd(*frontEnd_))
        return lanes_.size();
    lanes_.push_back(Lane{std::move(restored), warmup_records});
    return lanes_.size() - 1;
}

void
BatchSimulator::fireBoundary(std::size_t index)
{
    if (boundary_)
        for (std::size_t li = 0; li < lanes_.size(); ++li)
            boundary_(li, index, *lanes_[li].sim);
}

void
BatchSimulator::runChunk(const MemRecord *records, std::size_t first,
                         std::size_t count)
{
    // Mirrors PrefetchSimulator::run exactly: the measuring flip at
    // index == warmup is a no-op for warmup == 0 lanes (already on),
    // so each lane's step sequence matches a standalone run bitwise.
    // A resumed batch skips everything below its start index — flip
    // included, since the checkpointed state already contains it.
    if (first + count <= start_)
        return; // whole chunk inside the resumed prefix
    ScopedSpan span("batch.chunk", "batch");
    if (span.active()) {
        span.arg("first", static_cast<std::uint64_t>(first));
        span.arg("records", static_cast<std::uint64_t>(count));
        span.arg("lanes", static_cast<std::uint64_t>(lanes_.size()));
    }
    const auto chunk_start = std::chrono::steady_clock::now();
    std::size_t skip = start_ > first ? start_ - first : 0;
    for (std::size_t i = skip; i < count; ++i) {
        std::size_t global = first + i;
        if (nextBoundary_ < boundaries_.size() &&
            boundaries_[nextBoundary_] == global) {
            fireBoundary(global);
            ++nextBoundary_;
        }
        const MemRecord &r = records[i];
        const DemandOutcome outcome = frontEnd_->step(r);
        for (Lane &lane : lanes_) {
            if (global == lane.warmup)
                lane.sim->setMeasuring(true);
            lane.sim->advance(r, outcome);
        }
    }
    batchMetrics().hierarchySteps.add(count - skip);
    batchMetrics().recordSteps.add((count - skip) * lanes_.size());
    batchMetrics().chunkNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - chunk_start)
            .count()));
}

void
BatchSimulator::finishAll(std::size_t total_records)
{
    // An end-of-trace boundary captures the pre-finish state, so a
    // resumed run re-executes finish() exactly once, like the
    // continuous run it mirrors.
    for (; nextBoundary_ < boundaries_.size() &&
           boundaries_[nextBoundary_] <= total_records;
         ++nextBoundary_)
        if (boundaries_[nextBoundary_] == total_records)
            fireBoundary(total_records);
    for (Lane &lane : lanes_) {
        if (lane.sim->l2_)
            batchMetrics().privateL2Lanes.add();
        lane.sim->finish();
    }
}

void
BatchSimulator::run(const Trace &trace)
{
    if (lanes_.empty())
        return;
    for (std::size_t first = 0; first < trace.size();
         first += kChunkRecords) {
        std::size_t count =
            std::min(trace.size() - first, kChunkRecords);
        runChunk(trace.data() + first, first, count);
    }
    finishAll(trace.size());
}

} // namespace stems
