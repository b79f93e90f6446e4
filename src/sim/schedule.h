// ScheduleController: a deterministic schedule harness for multi-threaded
// lock-protocol tests.
//
// The races this codebase cares about — the btree back-off/RS-wait paths, the
// side file's PopFront re-verification, the §7.4 switch window — live in
// windows a few instructions wide. Stress loops hit them once in thousands of
// runs; this harness pins them on demand and replays them bit-for-bit.
//
// Model: each logical thread of the test is an *actor*. Actor bodies mark
// interesting program points with ctrl.Point("event"); the controller blocks
// every actor at its current point and releases exactly one at a time, chosen
// either by a script (an explicit sequence of actor names) or by a seeded RNG.
// In between, the controller listens to LockManager's event hook and
// BufferPool's fetch hook: an actor whose lock request blocks (LockEvent
// kWait) is marked *parked* — it is descheduled without consuming a step and
// becomes runnable again only when another actor's action unblocks it. The
// controller asks the LockManager whether a parked actor is really asleep
// (LockManager::WaitIsBlocked) instead of guessing from elapsed time, so a
// slow thread on a loaded machine cannot run alongside the next step. Every
// point, park, and lock event is appended to a trace; a test asserts on trace
// ordering, which makes the interleaving itself the test oracle.
//
// Conventions:
//   * every actor body calls ctrl.Point("begin") first, so no work happens
//     before the controller starts scheduling;
//   * actors that can genuinely deadlock must pass lock timeouts — a parked
//     actor is invisible to the controller until LockManager wakes it;
//   * after a script is exhausted, remaining actors free-run to completion
//     (a script pins the interesting prefix, not the epilogue).
//
// If no step can be scheduled for step_timeout_ms (script names an actor that
// never arrives at a point, or every live actor is parked), the controller
// declares a stall: Run() returns kTimedOut and all points are released so
// the test fails with a status instead of hanging.

#ifndef SOREORG_SIM_SCHEDULE_H_
#define SOREORG_SIM_SCHEDULE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/txn/lock_manager.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace soreorg {

struct ScheduleOptions {
  uint64_t seed = 1;             // RNG-mode schedule choice
  int64_t step_timeout_ms = 10000;  // stall declaration threshold
  int64_t settle_us = 2000;      // quiescence debounce window
};

class ScheduleController {
 public:
  explicit ScheduleController(ScheduleOptions options = {});
  ~ScheduleController();

  ScheduleController(const ScheduleController&) = delete;
  ScheduleController& operator=(const ScheduleController&) = delete;

  /// Route the manager's LockEvent stream into this controller: kWait parks
  /// the emitting actor, every event lands in the trace. Events from threads
  /// that are not actors (test setup) are ignored.
  void InstallLockHooks(LockManager* lm);

  /// Make selected lock events scheduling points: when `pred` returns true
  /// for an event emitted by an actor, that actor blocks there exactly as if
  /// it had called Point(). This is how a test pins a window that has no
  /// source-level hook — e.g. the instant between the side file's record-
  /// lock release and its front re-verification. kWait events are exempt
  /// (they park, which is their own scheduling semantic).
  using LockPointPredicate =
      std::function<bool(LockEvent, const LockName&, LockMode)>;
  void SetLockPointPredicate(LockPointPredicate pred);

  /// Record every FetchPage by an actor as "actor:fetch:page/<id>".
  void InstallFetchHook(BufferPool* bp);

  /// Fix the schedule: step i releases the actor named script[i]. Unset (or
  /// after the last entry) the controller falls back to seeded free-run.
  void SetScript(std::vector<std::string> script);

  /// Register an actor. Its thread starts immediately but blocks until Run().
  void Spawn(const std::string& name, std::function<void()> body);

  /// Actor-side: mark a named program point; blocks until scheduled. The
  /// trace entry is recorded at *grant* time, so point entries appear in
  /// schedule order (arrival order of the first points is a thread race).
  /// No-op when called from a non-actor thread; non-blocking after a stall.
  void Point(const std::string& event);

  /// Actor-side: append "actor:note:<event>" to the trace without blocking.
  void Note(const std::string& event);

  /// Start scheduling, drive every actor to completion, join all threads.
  /// OK on a clean run; kTimedOut on a stall (trace shows how far it got).
  Status Run();

  /// The interleaving that actually happened, e.g. {"t1:begin",
  /// "t1:granted:record/…:X", "reorg:wait:…", "t1:release-all", …}.
  const std::vector<std::string>& trace() const { return trace_; }

  /// Index of the first trace entry at or after `from` containing `needle`,
  /// or -1. Tests assert interleaving order via index comparisons.
  int TraceIndex(const std::string& needle, int from = 0) const;

  /// Whole trace, newline-joined (failure diagnostics).
  std::string TraceString() const;

 private:
  enum class ActorState : uint8_t {
    kRunning,  // executing (or granted and about to resume)
    kAtPoint,  // blocked in Point(), schedulable
    kParked,   // blocked inside LockManager, not schedulable
    kDone,     // body returned
  };

  struct Actor {
    std::string name;
    ScheduleController* ctrl = nullptr;
    std::thread thread;
    ActorState state = ActorState::kRunning;
    bool granted = false;
    // While kParked: the manager and transaction the actor is waiting in.
    LockManager* parked_in = nullptr;
    TxnId parked_txn = kInvalidTxnId;
  };

  void OnLockEvent(LockManager* lm, LockEvent e, TxnId txn,
                   const LockName& name, LockMode mode);
  void OnFetch(PageId page_id);

  // All Locked* helpers require mu_ held.
  // Block the calling actor at a scheduling point until granted (or a stall
  // releases everything).
  void LockedWaitAtPoint(Actor* a, std::unique_lock<std::mutex>* lk);
  void LockedAddTrace(std::string entry);
  // No actor running. A parked actor counts as running until its thread is
  // asleep in the lock wait, and again once its manager hands it a wake
  // token, before the thread gets to report itself.
  bool LockedQuiescent() const;
  bool LockedAllDone() const;
  Actor* LockedFindActor(const std::string& name);
  // Wait (with the stall deadline) until no actor is running, debounced by
  // settle_us and polled every settle_us: a woken actor whose request must
  // wait again goes back to sleep without emitting an event.
  bool LockedAwaitQuiescence(std::unique_lock<std::mutex>* lk);
  void LockedStall(const std::string& why);

  ScheduleOptions options_;
  Random rng_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Actor>> actors_;
  LockPointPredicate lock_point_pred_;
  std::vector<std::string> script_;
  size_t script_pos_ = 0;
  std::vector<std::string> trace_;
  bool started_ = false;
  bool free_run_ = false;  // points stop blocking (stall or script epilogue)
  bool stalled_ = false;
};

}  // namespace soreorg

#endif  // SOREORG_SIM_SCHEDULE_H_
