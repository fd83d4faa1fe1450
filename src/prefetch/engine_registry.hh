/**
 * @file
 * Open registry of prefetch engines: name -> factory.
 *
 * Each engine translation unit self-registers a factory (via a static
 * EngineRegistrar), so adding an engine never touches the experiment
 * driver: drop in a new .cc, register a name, and every bench, example
 * and tool that enumerates the registry picks it up. Factories receive
 * the full SystemConfig plus per-instance EngineOptions overrides (the
 * knobs the ablation benches sweep), letting one registered engine
 * serve many parameterizations.
 *
 * The library is built as a CMake OBJECT library specifically so these
 * registrar objects survive static-archive dead stripping.
 */

#ifndef STEMS_PREFETCH_ENGINE_REGISTRY_HH
#define STEMS_PREFETCH_ENGINE_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace stems {

struct SystemConfig; // sim/config.hh; taken by reference only

/// Most stream queues a TMS/STeMS engine can run: stream ids pack
/// the queue index into 4 bits (encodeId in prefetch/tms.hh and
/// core/stream.hh).
inline constexpr std::size_t kMaxStreamQueues = 16;

/**
 * Per-instance engine overrides. Every field is optional; unset
 * fields keep the SystemConfig (Table 1) defaults. Fields a given
 * engine has no use for are ignored by its factory.
 */
struct EngineOptions
{
    /// Apply the scientific-workload stream lookahead of 12 (paper
    /// Section 4.3). An explicit `lookahead` below wins over this.
    bool scientific = false;
    /// Stream lookahead (TMS/STeMS).
    std::optional<unsigned> lookahead;
    /// Temporal-buffer entries: TMS miss-order buffer / STeMS RMOB
    /// (at least 1).
    std::optional<std::size_t> bufferEntries;
    /// Stream-queue count (TMS/STeMS), 1..kMaxStreamQueues.
    std::optional<std::size_t> streamQueues;
    /// 2-bit counters vs bit vectors in the SMS history.
    std::optional<bool> smsUseCounters;
    /// Reconstruction-buffer displacement search window (STeMS).
    std::optional<unsigned> displacementWindow;
};

/** Builds one engine instance from the system config and overrides. */
using EngineFactory = std::function<std::unique_ptr<Prefetcher>(
    const SystemConfig &, const EngineOptions &)>;

/**
 * Stable, human-readable description of an engine instantiation:
 * the registered name plus every EngineOptions field (unset fields
 * included explicitly, so adding a field changes every description)
 * and an optional probe identity, plus the engine's registered
 * state version (see EngineRegistry::add). Two instantiations behave
 * identically iff their descriptions (plus the SystemConfig) match,
 * which makes a digest of this string the persistent-cache key for
 * engine results and checkpoints (store/trace_store.hh) — and makes
 * a state-version bump orphan everything stored under the old code.
 */
std::string describeEngineSpec(const std::string &name,
                               const EngineOptions &options,
                               const std::string &probe_id = {});

/**
 * The process-wide engine registry. Thread-safe: registration and
 * lookup may race with driver worker threads instantiating engines.
 */
class EngineRegistry
{
  public:
    static EngineRegistry &instance();

    /**
     * Register a factory under a name.
     *
     * @param name  engine name ("stride", "tms", ...).
     * @param rank  enumeration position; names() lists ascending
     *              (rank, name). Builtins use 0-99; use >= 100 for
     *              extensions so the canonical order stays stable.
     * @param state_version  the engine's kEngineStateVersion: bump it
     *              whenever a code change alters the engine's
     *              serialized state or simulated behaviour. It is
     *              folded into describeEngineSpec(), so a bump
     *              orphans every stored result and checkpoint keyed
     *              under the old behaviour instead of resuming from
     *              stale state.
     * @return false (and no change) when the name is already taken.
     */
    bool add(std::string name, int rank, std::uint32_t state_version,
             EngineFactory factory);

    /**
     * The registered state version for a name; 0 when unknown.
     */
    std::uint32_t stateVersion(const std::string &name) const;

    /**
     * Test hook: override a registered engine's state version (used
     * to prove that a version bump orphans stored checkpoints).
     * No-op when the name is unknown. @return the previous version.
     */
    std::uint32_t setStateVersion(const std::string &name,
                                  std::uint32_t version);

    /** Instantiate an engine; null when the name is unknown. */
    std::unique_ptr<Prefetcher>
    make(const std::string &name, const SystemConfig &system,
         const EngineOptions &options = {}) const;

    /** True when a factory is registered under the name. */
    bool contains(const std::string &name) const;

    /** All registered names in stable (rank, name) order. */
    std::vector<std::string> names() const;

  private:
    EngineRegistry() = default;

    struct Entry
    {
        int rank = 0;
        std::uint32_t stateVersion = 0;
        EngineFactory factory;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

/** Static-init helper: registers a factory at load time. */
struct EngineRegistrar
{
    EngineRegistrar(const char *name, int rank,
                    std::uint32_t state_version, EngineFactory factory)
    {
        EngineRegistry::instance().add(name, rank, state_version,
                                       std::move(factory));
    }
};

} // namespace stems

#endif // STEMS_PREFETCH_ENGINE_REGISTRY_HH
