/**
 * @file
 * FixedTraceWorkload: adapts a pre-existing trace — loaded from a
 * file, imported from an external text dump, or replayed out of the
 * TraceStore — to the Workload interface, so everything that drives
 * sweeps through the ExperimentDriver (benches, tools, tests) can
 * run captured traces next to the synthetic generators.
 */

#ifndef STEMS_WORKLOADS_TRACE_WORKLOAD_HH
#define STEMS_WORKLOADS_TRACE_WORKLOAD_HH

#include <string>

#include "workloads/workload.hh"

namespace stems {

/** A Workload that replays one fixed trace. */
class FixedTraceWorkload : public Workload
{
  public:
    /**
     * @param name   label reported in results.
     * @param trace  the records to replay.
     * @param cls    workload class; governs the scientific stream
     *               lookahead the driver applies (default: treat an
     *               external trace as commercial).
     */
    FixedTraceWorkload(std::string name, Trace trace,
                       WorkloadClass cls = WorkloadClass::kOltp);

    std::string name() const override { return name_; }
    WorkloadClass workloadClass() const override { return class_; }

    /**
     * A copy of the stored records. `seed` and `target_records` are
     * ignored: a captured trace has exactly one materialization. The
     * ExperimentDriver never calls this; it replays recorded() in
     * place.
     */
    Trace generate(std::uint64_t seed,
                   std::size_t target_records) const override;

    /** The stored records, replayed without a copy. */
    const Trace *recorded() const override { return &trace_; }

    /** The underlying records (without copying). */
    const Trace &trace() const { return trace_; }

  private:
    std::string name_;
    Trace trace_;
    WorkloadClass class_;
};

} // namespace stems

#endif // STEMS_WORKLOADS_TRACE_WORKLOAD_HH
