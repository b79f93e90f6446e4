// LockManager: the concurrency engine behind the paper's protocols (§4).
//
// Features beyond a textbook multi-granularity lock manager:
//   * the R / RX / RS modes of Table 1 (see lock_mode.h);
//   * **back-off on RX conflict**: when a request conflicts with a *granted*
//     RX lock, the requester is not enqueued — Lock() returns
//     Status::kBackoff and the caller must release its parent lock and wait
//     via an instant-duration RS lock on the parent (reader/updater
//     protocols §4.1.2–4.1.3);
//   * **instant-duration unconditional locks** (Mohan '90): LockInstant()
//     blocks until the mode would be grantable, then returns success without
//     granting anything. Used for RS waits and for the side file's
//     instant-duration IX during the switch (§7.2). Instant requests bypass
//     lock conversion entirely: the requested mode is evaluated as-is
//     against the *other* holders, never combined with the requester's own
//     holding via LockSupremum;
//   * lock conversion (the reorganizer upgrades its base-page R locks to X
//     after moving records); conversions have priority over fresh waiters;
//   * waits-for deadlock detection with the paper's victim policy: if the
//     reorganizer is anywhere in the cycle, *the reorganizer loses* (§4.1);
//     otherwise the requester that closed the cycle loses;
//   * optional wait timeouts (the switcher's bounded wait for the old-tree
//     X lock, §7.4);
//   * a runtime invariant checker (lock_invariants.h) validating the
//     Table-1 discipline on every grant — installed by default in debug and
//     sanitizer builds, a single null-pointer test in release;
//   * an event hook stream (SetEventHook) that the deterministic schedule
//     harness (src/sim/schedule.h) uses to serialize multi-threaded tests
//     into reproducible interleavings.
//
// Lock names are (space, id) pairs so trees, pages, records, and the side
// file live in one namespace.
//
// Concurrency: the lock table is striped N ways (N a power of two, default
// 16; 1 restores the old single-mutex manager). A name's stripe is chosen by
// a mix of (space, id) and each stripe owns its own mutex and queue map, so
// acquire/release on names in different stripes never contend. Wakeups are
// per-waiter: every queued Waiter carries its own condition variable plus a
// `signaled` token, and an unlock/downgrade/release wakes only the waiters
// whose request became grantable (or that must wake to observe a kill or an
// RX back-off) — no broadcast, no thundering herd. The per-transaction
// held-lock index is sharded by TxnId behind its own mutexes, so ReleaseAll
// touches only the stripes of the names it actually holds.
//
// Lock order (violations deadlock the manager itself):
//   1. Multi-stripe operations — deadlock sweeps with their kill rounds,
//      CheckInvariantsNow, QueueCount — take stripe mutexes in ascending
//      stripe-index order while holding no other manager mutex. A blocked
//      request therefore *releases* its own stripe before sweeping (its
//      Waiter stays queued; every condition is re-checked after relocking).
//   2. A held-shard mutex may be taken while holding one stripe mutex
//      (stripe → held-shard); code holding a held-shard mutex never takes a
//      stripe mutex.
//   3. Stripe mutexes are leaves with respect to the rest of the system:
//      the manager calls out (event hooks) only with all of its mutexes
//      released, and callers on the commit path go lock table → WAL, never
//      the reverse (see DESIGN.md §9).

#ifndef SOREORG_TXN_LOCK_MANAGER_H_
#define SOREORG_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/txn/lock_mode.h"
#include "src/util/status.h"
#include "src/wal/log_record.h"  // TxnId

namespace soreorg {

class LockInvariantChecker;

enum class LockSpace : uint8_t {
  kTree = 0,      // the per-tree ("file") lock; id = tree incarnation
  kPage = 1,      // page locks; id = page id
  kRecord = 2,    // record locks; id = key hash
  kSideFile = 3,  // the side-file table lock; id = 0
  kSideKey = 4,   // record locks inside the side file; id = key hash
};

struct LockName {
  LockSpace space;
  uint64_t id;

  bool operator==(const LockName& o) const {
    return space == o.space && id == o.id;
  }
  bool operator<(const LockName& o) const {
    if (space != o.space) return space < o.space;
    return id < o.id;
  }
};

LockName TreeLock(uint64_t tree_incarnation);
LockName PageLock(uint32_t page_id);
LockName RecordLock(const std::string& key);
LockName SideFileLock();
LockName SideKeyLock(const std::string& key);

struct LockStats {
  uint64_t acquisitions = 0;
  uint64_t waits = 0;         // requests that blocked at least once
  uint64_t backoffs = 0;      // kBackoff returns (RX conflicts)
  uint64_t deadlocks = 0;
  uint64_t timeouts = 0;
  uint64_t instant_grants = 0;
  uint64_t conversions = 0;
};

/// Observable milestones of a lock request's lifetime, emitted (with every
/// manager mutex released) to the installed event hook. kWait fires once
/// when a request first blocks; a terminal event (kGranted / kInstantGranted
/// / kBusy / kBackoff / kDeadlock / kTimeout) fires when the call returns.
enum class LockEvent : uint8_t {
  kRequest = 0,
  kWait = 1,
  kGranted = 2,
  kInstantGranted = 3,
  kBusy = 4,
  kBackoff = 5,
  kDeadlock = 6,
  kTimeout = 7,
  kUnlock = 8,
  kReleaseAll = 9,
};

const char* LockEventName(LockEvent e);

class LockManager {
 public:
  using EventHook =
      std::function<void(LockEvent, TxnId, const LockName&, LockMode)>;

  /// `num_stripes` = 0 picks the default (16). An explicit value is rounded
  /// up to a power of two and capped at kMaxStripes; 1 collapses the table
  /// to the old single-mutex manager (exact legacy semantics, used by the
  /// stripe-equivalence tests).
  explicit LockManager(size_t num_stripes = 0);
  ~LockManager();

  /// Acquire (or convert to) `mode` on `name`. Blocks until granted.
  /// Returns kBackoff on a granted-RX conflict, kDeadlock if this request
  /// closed a cycle and lost (or another thread killed this waiter as a
  /// deadlock victim), and kTimedOut if timeout_ms >= 0 elapsed.
  Status Lock(TxnId txn, const LockName& name, LockMode mode,
              int64_t timeout_ms = -1);

  /// Non-blocking attempt. Returns kBusy instead of waiting.
  Status TryLock(TxnId txn, const LockName& name, LockMode mode);

  /// Instant-duration unconditional request: wait until `mode` would be
  /// grantable, then return success WITHOUT holding anything.
  Status LockInstant(TxnId txn, const LockName& name, LockMode mode,
                     int64_t timeout_ms = -1);

  /// Release this transaction's lock on `name` (whatever its mode).
  Status Unlock(TxnId txn, const LockName& name);

  /// Downgrade a held lock (e.g. S -> IS after moving to record locks).
  Status Downgrade(TxnId txn, const LockName& name, LockMode mode);

  /// Release every lock the transaction holds (end of transaction / abort).
  void ReleaseAll(TxnId txn);

  /// Mode currently held by txn on name, or nullopt semantics via ok flag.
  bool HeldMode(TxnId txn, const LockName& name, LockMode* mode) const;

  /// Number of distinct lock names currently held by txn.
  size_t HeldCount(TxnId txn) const;

  /// True iff `txn`'s thread is asleep in a lock wait with no wake token
  /// pending: only another transaction's release, a deadlock kill or its own
  /// timeout can end the wait. False while the thread is still on its way
  /// into the wait, and false again as soon as a release hands it a token,
  /// before the thread runs. The schedule harness uses this to tell a parked
  /// actor that is truly blocked from one that is still moving.
  bool WaitIsBlocked(TxnId txn) const;

  /// Number of stripes the table was built with (power of two).
  size_t stripe_count() const { return stripes_.size(); }

  /// Total number of lock queues currently materialized across all stripes.
  /// Empty queues are erased on last release, so this tracks *live* names —
  /// the regression oracle for the old leak where every name ever locked
  /// left a map entry behind.
  size_t QueueCount() const;

  LockStats stats() const;
  void ResetStats();

  /// Install `hook` to receive LockEvent notifications. The hook is invoked
  /// with every manager mutex released, so it may block (the schedule
  /// harness does). Install before concurrent use; not thread-safe against
  /// in-flight operations.
  void SetEventHook(EventHook hook);

  /// Install an invariant checker (see lock_invariants.h). Passing nullptr
  /// restores the build-default checker (abort-on-violation in debug and
  /// sanitizer builds, none in release). The checker must outlive its use.
  /// Install before concurrent use.
  void SetInvariantChecker(LockInvariantChecker* checker);

  /// The checker currently receiving lock events: the one installed via
  /// SetInvariantChecker, the build default, or nullptr (release builds).
  /// The Switcher uses it to bracket the §7.4 switch window so invariant (f)
  /// knows when a release-reacquire of the side-file X lock is legal.
  LockInvariantChecker* invariant_checker() const { return checker_; }

  /// Re-validate every queue against the Table-1 invariants now (test use).
  void CheckInvariantsNow();

  /// Lock-free isolation summary for the optimistic read path. Nonzero
  /// (true) means some transaction currently holds a *page-space* lock that
  /// is incompatible with a reader's S mode (X, IX, RX) on a page id
  /// hashing to `page_id`'s mark slot — i.e. the page may carry uncommitted
  /// record changes or be mid-structure-modification, and a latch-free
  /// reader must fall back to the Table-1 S-lock protocol instead of using
  /// its captured image. False negatives are impossible by construction
  /// (the counter is bumped when such a lock is granted, before the holder
  /// can touch page bytes under the latch, and only dropped at release);
  /// false positives (hash sharing, 4096 slots) merely cost a fallback.
  ///
  /// Why a reader may trust a zero AFTER a version-validated capture: if the
  /// capture observed any bytes a lock holder wrote, the holder's exclusive
  /// latch release (version bump) happens-before the reader's validating
  /// load, and the mark increment is sequenced before every latched write —
  /// so the reader's subsequent mark load sees the increment unless the
  /// holder has already released the lock, which under strict 2PL means the
  /// transaction committed (or finished undoing, bumping the version and
  /// failing the capture) first.
  bool PageSharedReadBlocked(uint32_t page_id) const;

  static constexpr size_t kPageMarkSlots = 4096;

  /// TEST ONLY: install `txn` as a holder of `mode` on `name` without any
  /// compatibility or protocol checking, then run the invariant checker on
  /// the resulting queue. This is the seeded-violation backdoor for the
  /// checker's negative tests; production code must never call it.
  void ForceGrantForTest(TxnId txn, const LockName& name, LockMode mode);

  static constexpr size_t kDefaultStripes = 16;
  static constexpr size_t kMaxStripes = 256;

 private:
  friend class LockInvariantChecker;

  struct Waiter {
    Waiter(TxnId t, LockMode m, bool conv, bool inst)
        : txn(t), mode(m), converting(conv), instant(inst) {}
    TxnId txn;
    LockMode mode;
    bool converting = false;
    bool instant = false;
    bool granted = false;
    bool killed = false;    // deadlock victim
    bool signaled = false;  // wake token, consumed by the owning thread
    bool asleep = false;    // the owning thread is blocked on `cv`
    // Per-waiter wakeup channel: exactly one thread ever waits on it, and
    // it is signaled only by code holding this waiter's stripe mutex.
    std::condition_variable cv;
  };

  struct Queue {
    std::map<TxnId, LockMode> holders;
    std::list<Waiter*> waiters;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::map<LockName, Queue> queues;
  };

  struct HeldShard {
    mutable std::mutex mu;
    std::unordered_map<TxnId, std::vector<LockName>> held;
  };

  static size_t PickStripeCount(size_t requested);
  size_t StripeIndex(const LockName& name) const;
  Stripe& stripe_for(const LockName& name);
  const Stripe& stripe_for(const LockName& name) const;
  HeldShard& held_shard_for(TxnId txn);
  const HeldShard& held_shard_for(TxnId txn) const;

  // Held-lock index maintenance. May be called with the name's stripe mutex
  // held (stripe → held-shard order) but never the other way around.
  void RecordHeld(TxnId txn, const LockName& name);
  void ForgetHeld(TxnId txn, const LockName& name);

  // All Locked* helpers require the queue's stripe mutex held.
  // `skip_queue_check` bypasses the FIFO no-overtaking rule: conversions
  // have priority over fresh waiters, and instant-duration requests are
  // judged against holders only ("would the mode be grantable right now").
  bool LockedGrantable(const Queue& q, TxnId txn, LockMode mode,
                       bool skip_queue_check, const Waiter* self) const;
  bool LockedConflictsWithGrantedRX(const Queue& q, TxnId txn,
                                    LockMode mode) const;
  // Hand a wake token to every waiter that could now make progress: its
  // request became grantable, it was killed, or a granted RX now forces it
  // to wake and return kBackoff. The woken thread re-evaluates under the
  // stripe mutex, so a spurious token is harmless.
  void LockedWakeWaiters(Queue& q);
  // Erase the queue's map node once it has neither holders nor waiters
  // (waiting threads hold a reference to the node across their sleep, so a
  // queue with waiters is never erased).
  void LockedMaybeEraseQueue(Stripe& stripe,
                             std::map<LockName, Queue>::iterator qit);
  void LockedCheckHolders(const LockName& name, const Queue& q);

  // Deadlock detection over a consistent multi-stripe snapshot: takes every
  // stripe mutex in ascending index order (caller must hold none), builds
  // the global waits-for graph, and — if `txn` closed a cycle — applies the
  // paper's victim policy. A victim other than `txn` has all of its pending
  // waits killed (and woken) before the stripes are released, so the cycle
  // cannot survive the sweep. Returns the victim or kInvalidTxnId.
  TxnId GlobalDeadlockSweep(TxnId txn);
  void AllLockedBuildWaitsFor(
      std::unordered_map<TxnId, std::vector<TxnId>>* graph) const;

  /// True iff a grant of `mode` on `name` must be reflected in the page
  /// marks: page-space names whose mode is incompatible with kS.
  static bool PageMarkedMode(const LockName& name, LockMode mode);
  static size_t PageMarkSlot(uint64_t id);
  /// Maintain the page marks across a holder transition on `name` (called
  /// at every site that inserts, overwrites, or erases a q.holders entry,
  /// with the stripe mutex held). `from`/`to` are null for absent.
  void NoteHolderChange(const LockName& name, const LockMode* from,
                        const LockMode* to);

  Status LockImpl(TxnId txn, const LockName& name, LockMode mode,
                  bool instant, int64_t timeout_ms);
  // The blocking core of LockImpl; the wrapper adds event notifications.
  Status LockWait(TxnId txn, const LockName& name, LockMode mode, bool instant,
                  int64_t timeout_ms);

  void Notify(LockEvent e, TxnId txn, const LockName& name, LockMode mode);

  std::vector<Stripe> stripes_;  // size is a power of two; never resized
  size_t stripe_mask_;
  std::vector<HeldShard> held_shards_;  // sized with stripes_; never resized
  size_t held_mask_;

  struct AtomicStats {
    std::atomic<uint64_t> acquisitions{0};
    std::atomic<uint64_t> waits{0};
    std::atomic<uint64_t> backoffs{0};
    std::atomic<uint64_t> deadlocks{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> instant_grants{0};
    std::atomic<uint64_t> conversions{0};
  };
  AtomicStats stats_;

  // Page-exclusive mark counters (see PageSharedReadBlocked). Writes happen
  // under the owning name's stripe mutex; reads are lock-free.
  std::unique_ptr<std::atomic<uint32_t>[]> page_marks_;

  EventHook event_hook_;
  LockInvariantChecker* checker_ = nullptr;
  std::unique_ptr<LockInvariantChecker> default_checker_;
};

}  // namespace soreorg

#endif  // SOREORG_TXN_LOCK_MANAGER_H_
