/**
 * @file
 * Distributed work units: the decomposition of a SweepPlan into the
 * units the sweep service schedules (net/coord.hh) and executes
 * (net/worker.hh), at the granularity the plan asks for:
 *
 *  - kWorkload: one unit = one workload row (every cell of it).
 *  - kCell:     one unit = one (workload, engine-column) cell. The
 *               baseline column (column == -1) covers the
 *               no-prefetch lane and, under timing, the stride
 *               reference lane.
 *
 * Units are independent: any order of execution populates the store
 * with the same bytes. Unit order is deterministic (workload-major,
 * baseline column first), and the coordinator assigns
 * lowest-pending-first, so the numbering is stable across runs of
 * the same plan.
 */

#ifndef STEMS_NET_UNITS_HH
#define STEMS_NET_UNITS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep_plan.hh"

namespace stems {

class TraceStore;

/** Work-unit kind; the wire encoding of UnitGranularity per unit
 *  (a plan's decomposition may mix kinds: an unregistered workload
 *  stays a whole-workload unit at any granularity). */
enum class UnitKind : std::uint8_t
{
    kWorkload = 0,
    kCell = 1,
};

/** One schedulable unit of a sweep. */
struct WorkUnit
{
    UnitKind kind = UnitKind::kWorkload;
    std::string workload;
    /// Engine column for kCell: -1 = the baseline column
    /// (no-prefetch lane, plus stride under timing), >= 0 indexes
    /// the plan's engine list.
    std::int32_t column = -1;
};

/**
 * Decompose a plan into work units at plan.unitGranularity, in
 * deterministic schedule order (an empty plan yields no units).
 */
std::vector<WorkUnit> decomposeSweepPlan(const SweepPlan &plan);

/**
 * The newest store-committed checkpoint index usable by `unit` —
 * trusted under the cell's lane specs, at or below the trace end;
 * 0 for whole-workload units, or when none or not determinable.
 * This is what a reconnecting worker reports in
 * ResumeMsg::lastCheckpointIndex.
 */
std::uint64_t unitLastCheckpointIndex(const SweepPlan &plan,
                                      const WorkUnit &unit,
                                      TraceStore &store);

} // namespace stems

#endif // STEMS_NET_UNITS_HH
