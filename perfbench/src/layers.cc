#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/mini_json.hh"
#include "prefetch/engine_registry.hh"
#include "scenarios.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/timing.hh"
#include "workloads/registry.hh"

using namespace stems;
using Clock = std::chrono::steady_clock;

namespace perfbench {

namespace {

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/** Process-wide tally of one engine's hooks. */
struct HookTally
{
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> sampledCalls{0};
    std::atomic<std::uint64_t> sampledNs{0};
};

std::mutex tallyMutex;
std::map<std::string, std::unique_ptr<HookTally>> hookTallies;

HookTally &
hookTally(const std::string &engine)
{
    std::lock_guard<std::mutex> lock(tallyMutex);
    auto &slot = hookTallies[engine];
    if (!slot)
        slot = std::make_unique<HookTally>();
    return *slot;
}

/**
 * Cost of the clock reads a sampled hook adds to its own interval:
 * the median of back-to-back steady_clock differences. Subtracted
 * from every sample.
 */
std::uint64_t
clockOverheadNs()
{
    static const std::uint64_t overhead = [] {
        std::vector<std::uint64_t> deltas(1001);
        for (std::uint64_t &d : deltas)
            d = nanosSince(Clock::now());
        std::nth_element(deltas.begin(),
                         deltas.begin() + deltas.size() / 2,
                         deltas.end());
        return deltas[deltas.size() / 2];
    }();
    return overhead;
}

std::atomic<std::uint64_t> genRecords{0};
std::atomic<std::uint64_t> genNs{0};

/**
 * Forwarding engine. Counts land in plain members on the lane's own
 * thread and reach the shared tally once, at destruction. A sampled
 * call is chosen by a countdown of random length (mean 64), so hook
 * kinds with different costs are sampled in proportion to their
 * calls.
 */
class TimedEngine : public Prefetcher
{
  public:
    TimedEngine(std::unique_ptr<Prefetcher> inner, HookTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    ~TimedEngine() override
    {
        tally_.calls.fetch_add(calls_, std::memory_order_relaxed);
        tally_.sampledCalls.fetch_add(sampledCalls_,
                                      std::memory_order_relaxed);
        tally_.sampledNs.fetch_add(sampledNs_,
                                   std::memory_order_relaxed);
    }

    TimedEngine(const TimedEngine &) = delete;
    TimedEngine &operator=(const TimedEngine &) = delete;

    std::string name() const override { return inner_->name(); }

    std::size_t
    bufferCapacity() const override
    {
        return inner_->bufferCapacity();
    }

    void
    onL1Access(Addr a, Pc pc, bool l1_hit) override
    {
        hook([&] { inner_->onL1Access(a, pc, l1_hit); });
    }

    void
    onL1BlockRemoved(Addr a) override
    {
        hook([&] { inner_->onL1BlockRemoved(a); });
    }

    void
    onOffChipRead(const OffChipRead &ev) override
    {
        hook([&] { inner_->onOffChipRead(ev); });
    }

    void
    onPrefetchHit(Addr a, int stream_id) override
    {
        hook([&] { inner_->onPrefetchHit(a, stream_id); });
    }

    void
    onPrefetchDrop(Addr a, int stream_id) override
    {
        hook([&] { inner_->onPrefetchDrop(a, stream_id); });
    }

    void
    onPrefetchFiltered(Addr a, int stream_id) override
    {
        hook([&] { inner_->onPrefetchFiltered(a, stream_id); });
    }

    void
    onInvalidate(Addr a) override
    {
        hook([&] { inner_->onInvalidate(a); });
    }

    void
    drainRequests(std::vector<PrefetchRequest> &out) override
    {
        hook([&] { inner_->drainRequests(out); });
    }

    void saveState(StateWriter &w) const override { inner_->saveState(w); }

    void loadState(StateReader &r) override { inner_->loadState(r); }

  private:
    template <typename Fn>
    void
    hook(Fn &&fn)
    {
        ++calls_;
        if (--countdown_ != 0) {
            fn();
            return;
        }
        // xorshift64: the next gap is uniform in [1, 127].
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        countdown_ = 1 + static_cast<unsigned>(rng_ % 127);
        const auto start = Clock::now();
        fn();
        sampledNs_ += nanosSince(start);
        ++sampledCalls_;
    }

    std::unique_ptr<Prefetcher> inner_;
    HookTally &tally_;
    std::uint64_t calls_ = 0;
    std::uint64_t sampledCalls_ = 0;
    std::uint64_t sampledNs_ = 0;
    unsigned countdown_ = 1;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

/** Forwarding workload that times generate(). */
class TimedWorkload : public Workload
{
  public:
    explicit TimedWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    WorkloadClass
    workloadClass() const override
    {
        return inner_->workloadClass();
    }

    Trace
    generate(std::uint64_t seed,
             std::size_t target_records) const override
    {
        const auto start = Clock::now();
        Trace t = inner_->generate(seed, target_records);
        genNs.fetch_add(nanosSince(start));
        genRecords.fetch_add(t.size());
        return t;
    }

  private:
    std::unique_ptr<Workload> inner_;
};

std::unique_ptr<Prefetcher>
makeEngine(const std::string &engine, const SystemConfig &system,
           bool scientific)
{
    if (engine.empty())
        return nullptr;
    EngineOptions options;
    options.scientific = scientific;
    auto e = EngineRegistry::instance().make(engine, system, options);
    if (!e)
        throw std::runtime_error("unknown engine " + engine);
    return e;
}

} // namespace

void
registerWrappers(const std::vector<std::string> &engines,
                 const std::vector<std::string> &workloads)
{
    clockOverheadNs(); // measured once, before any lane runs
    EngineRegistry &er = EngineRegistry::instance();
    for (const std::string &e : engines) {
        HookTally &tally = hookTally(e);
        er.add(kWrapPrefix + e, 1000, er.stateVersion(e),
               [e, &tally](const SystemConfig &system,
                           const EngineOptions &options)
                   -> std::unique_ptr<Prefetcher> {
                   auto inner =
                       EngineRegistry::instance().make(e, system,
                                                       options);
                   if (!inner)
                       return nullptr;
                   return std::make_unique<TimedEngine>(
                       std::move(inner), tally);
               });
    }
    WorkloadRegistry &wr = WorkloadRegistry::instance();
    for (const std::string &w : workloads) {
        wr.add(kWrapPrefix + w, 1000,
               [w]() -> std::unique_ptr<Workload> {
                   auto inner = WorkloadRegistry::instance().make(w);
                   if (!inner)
                       return nullptr;
                   return std::make_unique<TimedWorkload>(
                       std::move(inner));
               });
    }
}

std::map<std::string, HookTotals>
hookTotals()
{
    std::lock_guard<std::mutex> lock(tallyMutex);
    std::map<std::string, HookTotals> out;
    for (const auto &kv : hookTallies) {
        HookTotals t;
        t.calls = kv.second->calls.load();
        const std::uint64_t sampled = kv.second->sampledCalls.load();
        const std::uint64_t clock_ns = sampled * clockOverheadNs();
        const std::uint64_t ns = kv.second->sampledNs.load();
        if (sampled > 0 && ns > clock_ns)
            t.seconds = 1e-9 * static_cast<double>(ns - clock_ns) *
                        static_cast<double>(t.calls) /
                        static_cast<double>(sampled);
        out[kv.first] = t;
    }
    return out;
}

GenerateTotals
generateTotals()
{
    GenerateTotals t;
    t.records = genRecords.load();
    t.seconds = 1e-9 * static_cast<double>(genNs.load());
    return t;
}

void
resetWrapperTotals()
{
    {
        std::lock_guard<std::mutex> lock(tallyMutex);
        for (auto &kv : hookTallies) {
            kv.second->calls = 0;
            kv.second->sampledCalls = 0;
            kv.second->sampledNs = 0;
        }
    }
    genRecords = 0;
    genNs = 0;
}

bool
sumSpans(const std::string &chrome_json, SpanSums &out)
{
    JsonParser parser(chrome_json);
    JsonValue doc;
    if (!parser.parseValue(doc))
        return false;
    const JsonValue *events = doc.get("traceEvents");
    if (!events || events->kind != JsonValue::Kind::kArray)
        return false;
    for (const JsonValue &ev : events->items) {
        if (ev.str("ph") != "X")
            continue;
        const std::string name = ev.str("name");
        out.seconds[name] += 1e-6 * ev.num("dur"); // Chrome: µs
    }
    return true;
}

void
calibrateHierarchyAndTiming(const SimParams &params, const Trace &trace,
                            Calibration &out)
{
    // Demand order of PrefetchSimulator::step with no engine and no
    // SVB: L1, then L2, then the fills a miss makes.
    std::vector<AccessLevel> levels(trace.size());
    Hierarchy hier(params.hierarchy);
    auto start = Clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const MemRecord &r = trace[i];
        if (r.isInvalidate()) {
            hier.invalidate(r.vaddr);
            continue;
        }
        AccessLevel level = AccessLevel::kL1;
        if (!hier.accessL1(r.vaddr)) {
            if (hier.accessL2(r.vaddr).hit) {
                hier.fillL1(r.vaddr);
                level = AccessLevel::kL2;
            } else {
                hier.fill(r.vaddr);
                level = AccessLevel::kMemory;
            }
        }
        levels[i] = level;
    }
    out.hierarchySeconds += 1e-9 * static_cast<double>(nanosSince(start));

    TimingModel timing(params.timing);
    start = Clock::now();
    for (std::size_t i = 0; i < trace.size(); ++i)
        if (!trace[i].isInvalidate())
            timing.demandAccess(trace[i], levels[i], 0.0);
    out.timingSeconds += 1e-9 * static_cast<double>(nanosSince(start));
    out.records += trace.size();
}

CheckpointCalibration
calibrateCheckpoints(const SimParams &params, const Trace &trace,
                     std::size_t records,
                     const std::vector<std::string> &engines,
                     bool scientific)
{
    const SystemConfig system = defaultSystemConfig();
    CheckpointCalibration out;
    records = std::min(records, trace.size());
    for (const std::string &engine : engines) {
        auto e = makeEngine(engine, system, scientific);
        PrefetchSimulator sim(params, e.get());
        for (std::size_t i = 0; i < records; ++i)
            sim.step(trace[i]);

        auto start = Clock::now();
        std::vector<std::uint8_t> blob = encodeCheckpoint(sim, records);
        out.encodeSeconds += 1e-9 * static_cast<double>(nanosSince(start));

        auto e2 = makeEngine(engine, system, scientific);
        PrefetchSimulator restored(params, e2.get());
        std::uint64_t index = 0;
        start = Clock::now();
        const bool ok = decodeCheckpoint(blob, restored, &index);
        out.decodeSeconds += 1e-9 * static_cast<double>(nanosSince(start));
        if (!ok || index != records)
            throw std::runtime_error("checkpoint calibration: blob of " +
                                     (engine.empty() ? "baseline" : engine) +
                                     " did not decode");
        ++out.blobs;
        out.bytes += blob.size();
    }
    return out;
}

SimStats
runSingleLane(const SimParams &params, const Trace &trace,
              std::size_t warmup, const std::string &engine,
              bool scientific)
{
    auto e = makeEngine(kWrapPrefix + engine, defaultSystemConfig(),
                        scientific);
    PrefetchSimulator sim(params, e.get());
    sim.run(trace, warmup);
    SimStats stats = sim.stats();
    e.reset(); // flush the wrapper's tally
    return stats;
}

} // namespace perfbench
