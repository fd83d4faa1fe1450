/**
 * @file
 * Sweep coordinator: decomposes a SweepPlan into work units
 * (net/units.hh — whole workloads or cells)
 * and hands them to connected workers over the net/protocol.hh pull
 * protocol until every unit is complete.
 *
 * Single-threaded poll() loop; no driver dependency — the
 * coordinator never simulates, it only schedules. Workers populate
 * the shared content-addressed store; the caller (stems_trace
 * serve) afterwards merges by running the same plan locally over
 * the warm store, which reproduces the single-process output
 * bitwise in fixed plan order.
 *
 * Unit lifecycle: pending -> in-flight -> (resumable ->) done.
 *
 *  - pending: unassigned; handed out lowest index first.
 *  - in-flight: owned by one worker connection/session.
 *  - resumable: the owning connection was lost mid-unit. The unit
 *    stays reserved for that session for a grace window
 *    (setResumeGraceSeconds) so a reconnecting worker can reclaim
 *    it with kResume and finish from its last store-committed
 *    checkpoint; when the grace expires it is requeued to pending.
 *  - done: completed (a duplicate kUnitDone for a done unit is
 *    ignored — retransmits after a resume are harmless).
 *
 * Fault model: a worker that disconnects mid-unit (crash, kill -9,
 * network loss) has its unit resumed or requeued as above; because
 * unit execution is idempotent against the store (re-running writes
 * identical bytes under identical keys), partial work from the lost
 * worker is either reused or redone, never corrupted. Workers that
 * break framing are dropped the same way; peers speaking another
 * protocol version are refused with a clean kBye at the Hello
 * stage. A slow-worker watchdog (setUnitTimeoutSeconds) drops any
 * connection holding a unit longer than the limit and requeues the
 * unit, so one hung worker cannot stall sweep completion.
 */

#ifndef STEMS_NET_COORD_HH
#define STEMS_NET_COORD_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "net/units.hh"
#include "sim/sweep_plan.hh"

namespace stems {

class SweepCoordinator
{
  public:
    /** Serve the plan's units (decomposeSweepPlan) at the
     *  granularity it asks for. */
    explicit SweepCoordinator(const SweepPlan &plan);

    ~SweepCoordinator();

    SweepCoordinator(const SweepCoordinator &) = delete;
    SweepCoordinator &operator=(const SweepCoordinator &) = delete;

    /** Bind the service port (0 picks an ephemeral one). */
    bool listen(std::uint16_t port, std::string *error = nullptr);

    /** The bound port, valid after listen(). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Distribute every unit; returns when all are complete (true)
     * or when `timeout_seconds` passes without the sweep finishing
     * (false, *error set; 0 = wait forever). Blocks the calling
     * thread; safe to run on a dedicated thread in-process.
     */
    bool serve(double timeout_seconds = 0.0,
               std::string *error = nullptr);

    /** How long a lost worker's unit stays reserved for its session
     *  before being requeued (seconds; 0 requeues immediately,
     *  disabling resume). Default 5. */
    void setResumeGraceSeconds(double seconds)
    {
        resumeGraceSeconds_ = seconds < 0.0 ? 0.0 : seconds;
    }

    /** Slow-worker watchdog: a unit held in-flight longer than this
     *  has its connection dropped and is requeued (seconds; 0 = no
     *  watchdog, the default). */
    void setUnitTimeoutSeconds(double seconds)
    {
        unitTimeoutSeconds_ = seconds < 0.0 ? 0.0 : seconds;
    }

    std::size_t unitCount() const { return units_.size(); }
    std::uint64_t unitsCompleted() const { return completed_; }
    std::uint64_t unitsRequeued() const { return requeued_; }
    std::uint64_t unitsResumed() const { return resumed_; }
    std::uint64_t workersSeen() const { return workersSeen_; }

  private:
    enum class UnitState : std::uint8_t
    {
        kPending,
        kInFlight,
        kResumable, ///< reserved for its session's reconnect
        kDone
    };

    enum class ConnState : std::uint8_t
    {
        kAwaitHello, ///< accepted, no kMsgHello yet
        kAwaitAck,   ///< plan sent, no kMsgPlanAck yet
        kIdle,       ///< ready, no outstanding unit request
        kParked,     ///< asked for work while none was pending
        kWorking     ///< owns an in-flight unit
    };

    struct Unit
    {
        WorkUnit work;
        UnitState state = UnitState::kPending;
        std::uint64_t session = 0; ///< owner (in-flight/resumable)
        std::chrono::steady_clock::time_point assignedAt{};
        std::chrono::steady_clock::time_point resumableAt{};
    };

    struct Conn
    {
        std::unique_ptr<FramedConn> io;
        ConnState state = ConnState::kAwaitHello;
        std::size_t unit = 0;      ///< valid in kWorking
        std::uint64_t session = 0; ///< assigned at kMsgHello
    };

    bool assignUnit(Conn &conn);
    void finishConn(Conn &conn);
    void dropConn(std::size_t index);
    bool handleFrame(std::size_t index, const Frame &frame);
    /** Offer newly-pending (requeued) units to parked workers. */
    void pumpParked();
    /** Requeue expired resumable units and watchdog overdue ones. */
    void expireUnits();
    bool allDone() const { return completed_ == units_.size(); }

    SweepPlan plan_;
    std::string planJson_;
    std::uint64_t planDigest_ = 0;
    TcpListener listener_;
    std::vector<Unit> units_;
    std::vector<Conn> conns_;
    double resumeGraceSeconds_ = 5.0;
    double unitTimeoutSeconds_ = 0.0;
    std::uint64_t nextSession_ = 1;
    std::uint64_t completed_ = 0;
    std::uint64_t requeued_ = 0;
    std::uint64_t resumed_ = 0;
    std::uint64_t workersSeen_ = 0;
};

} // namespace stems

#endif // STEMS_NET_COORD_HH
