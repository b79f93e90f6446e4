#include "src/txn/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "src/txn/lock_invariants.h"

namespace soreorg {

LockName TreeLock(uint64_t tree_incarnation) {
  return LockName{LockSpace::kTree, tree_incarnation};
}
LockName PageLock(uint32_t page_id) {
  return LockName{LockSpace::kPage, page_id};
}
LockName RecordLock(const std::string& key) {
  return LockName{LockSpace::kRecord, std::hash<std::string>{}(key)};
}
LockName SideFileLock() { return LockName{LockSpace::kSideFile, 0}; }
LockName SideKeyLock(const std::string& key) {
  return LockName{LockSpace::kSideKey, std::hash<std::string>{}(key)};
}

const char* LockEventName(LockEvent e) {
  switch (e) {
    case LockEvent::kRequest:
      return "request";
    case LockEvent::kWait:
      return "wait";
    case LockEvent::kGranted:
      return "granted";
    case LockEvent::kInstantGranted:
      return "instant-granted";
    case LockEvent::kBusy:
      return "busy";
    case LockEvent::kBackoff:
      return "backoff";
    case LockEvent::kDeadlock:
      return "deadlock";
    case LockEvent::kTimeout:
      return "timeout";
    case LockEvent::kUnlock:
      return "unlock";
    case LockEvent::kReleaseAll:
      return "release-all";
  }
  return "?";
}

size_t LockManager::PickStripeCount(size_t requested) {
  if (requested == 0) return kDefaultStripes;
  size_t n = 1;
  while (n < requested && n < kMaxStripes) n <<= 1;
  return n;
}

LockManager::LockManager(size_t num_stripes)
    : stripes_(PickStripeCount(num_stripes)),
      stripe_mask_(stripes_.size() - 1),
      held_shards_(stripes_.size()),
      held_mask_(held_shards_.size() - 1),
      page_marks_(std::make_unique<std::atomic<uint32_t>[]>(kPageMarkSlots)) {
  for (size_t i = 0; i < kPageMarkSlots; ++i) {
    page_marks_[i].store(0, std::memory_order_relaxed);
  }
#if !defined(NDEBUG) || defined(SOREORG_LOCK_INVARIANTS)
  // Debug / sanitizer builds machine-check the Table-1 protocol on every
  // grant; a violation aborts. Release builds leave checker_ null, so every
  // lock operation pays exactly one pointer test.
  default_checker_ = std::make_unique<LockInvariantChecker>();
  default_checker_->set_lock_manager(this);
  checker_ = default_checker_.get();
#endif
}

LockManager::~LockManager() = default;

size_t LockManager::StripeIndex(const LockName& name) const {
  // murmur3 fmix64 over the packed (space, id): cheap and well-mixed, so
  // sequential page ids spread across stripes instead of marching through
  // one.
  uint64_t h = (static_cast<uint64_t>(name.space) << 56) ^ name.id;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & stripe_mask_;
}

LockManager::Stripe& LockManager::stripe_for(const LockName& name) {
  return stripes_[StripeIndex(name)];
}
const LockManager::Stripe& LockManager::stripe_for(const LockName& name) const {
  return stripes_[StripeIndex(name)];
}

LockManager::HeldShard& LockManager::held_shard_for(TxnId txn) {
  return held_shards_[static_cast<size_t>(txn) & held_mask_];
}
const LockManager::HeldShard& LockManager::held_shard_for(TxnId txn) const {
  return held_shards_[static_cast<size_t>(txn) & held_mask_];
}

void LockManager::RecordHeld(TxnId txn, const LockName& name) {
  HeldShard& hs = held_shard_for(txn);
  std::lock_guard<std::mutex> g(hs.mu);
  hs.held[txn].push_back(name);
}

void LockManager::ForgetHeld(TxnId txn, const LockName& name) {
  HeldShard& hs = held_shard_for(txn);
  std::lock_guard<std::mutex> g(hs.mu);
  auto it = hs.held.find(txn);
  if (it == hs.held.end()) return;
  auto& names = it->second;
  names.erase(std::remove(names.begin(), names.end(), name), names.end());
  if (names.empty()) hs.held.erase(it);
}

bool LockManager::PageMarkedMode(const LockName& name, LockMode mode) {
  return name.space == LockSpace::kPage && !LockCompatible(mode, LockMode::kS);
}

size_t LockManager::PageMarkSlot(uint64_t id) {
  // fmix64, same mix as StripeIndex but over the raw page id.
  uint64_t h = id;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & (kPageMarkSlots - 1);
}

void LockManager::NoteHolderChange(const LockName& name, const LockMode* from,
                                   const LockMode* to) {
  const bool was = from != nullptr && PageMarkedMode(name, *from);
  const bool now = to != nullptr && PageMarkedMode(name, *to);
  if (was == now) return;
  std::atomic<uint32_t>& slot = page_marks_[PageMarkSlot(name.id)];
  if (now) {
    slot.fetch_add(1, std::memory_order_acq_rel);
  } else {
    slot.fetch_sub(1, std::memory_order_acq_rel);
  }
}

bool LockManager::PageSharedReadBlocked(uint32_t page_id) const {
  return page_marks_[PageMarkSlot(page_id)].load(std::memory_order_acquire) !=
         0;
}

void LockManager::SetEventHook(EventHook hook) {
  event_hook_ = std::move(hook);
}

void LockManager::SetInvariantChecker(LockInvariantChecker* checker) {
  if (checker != nullptr) checker->set_lock_manager(this);
  checker_ = checker != nullptr ? checker : default_checker_.get();
}

void LockManager::Notify(LockEvent e, TxnId txn, const LockName& name,
                         LockMode mode) {
  if (event_hook_) event_hook_(e, txn, name, mode);
}

void LockManager::LockedCheckHolders(const LockName& name, const Queue& q) {
  if (checker_) checker_->CheckHolders(name, q.holders);
}

void LockManager::CheckInvariantsNow() {
  for (auto& st : stripes_) {
    std::lock_guard<std::mutex> g(st.mu);
    for (const auto& [name, q] : st.queues) LockedCheckHolders(name, q);
  }
}

void LockManager::ForceGrantForTest(TxnId txn, const LockName& name,
                                    LockMode mode) {
  Stripe& st = stripe_for(name);
  std::lock_guard<std::mutex> g(st.mu);
  Queue& q = st.queues[name];
  auto h = q.holders.find(txn);
  if (h == q.holders.end()) {
    RecordHeld(txn, name);
    NoteHolderChange(name, nullptr, &mode);
  } else {
    NoteHolderChange(name, &h->second, &mode);
  }
  q.holders[txn] = mode;
  LockedCheckHolders(name, q);
}

size_t LockManager::QueueCount() const {
  size_t n = 0;
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> g(st.mu);
    n += st.queues.size();
  }
  return n;
}

bool LockManager::LockedConflictsWithGrantedRX(const Queue& q, TxnId txn,
                                               LockMode mode) const {
  for (const auto& [holder, held] : q.holders) {
    if (holder == txn) continue;
    if (held == LockMode::kRX && !LockCompatible(held, mode)) return true;
  }
  return false;
}

bool LockManager::LockedGrantable(const Queue& q, TxnId txn, LockMode mode,
                                  bool skip_queue_check,
                                  const Waiter* self) const {
  for (const auto& [holder, held] : q.holders) {
    if (holder == txn) continue;
    if (!LockCompatible(held, mode)) return false;
  }
  if (!skip_queue_check) {
    // FIFO fairness: a fresh request must not overtake an earlier durable
    // waiter it conflicts with (conversions and instant waiters excepted).
    for (const Waiter* w : q.waiters) {
      if (w == self) break;
      if (w->txn == txn || w->instant || w->killed) continue;
      if (!LockCompatible(w->mode, mode)) return false;
    }
  }
  return true;
}

void LockManager::LockedWakeWaiters(Queue& q) {
  for (Waiter* w : q.waiters) {
    if (w->signaled) continue;
    bool wake = w->killed;
    if (!wake && !w->instant &&
        LockedConflictsWithGrantedRX(q, w->txn, w->mode)) {
      wake = true;  // must wake to observe the back-off condition
    }
    if (!wake &&
        LockedGrantable(q, w->txn, w->mode, w->converting || w->instant, w)) {
      wake = true;
    }
    if (wake) {
      w->signaled = true;
      w->cv.notify_one();
    }
  }
}

void LockManager::LockedMaybeEraseQueue(
    Stripe& stripe, std::map<LockName, Queue>::iterator qit) {
  if (qit->second.holders.empty() && qit->second.waiters.empty()) {
    stripe.queues.erase(qit);
  }
}

void LockManager::AllLockedBuildWaitsFor(
    std::unordered_map<TxnId, std::vector<TxnId>>* graph) const {
  for (const auto& st : stripes_) {
    for (const auto& [name, q] : st.queues) {
      for (auto it = q.waiters.begin(); it != q.waiters.end(); ++it) {
        const Waiter* w = *it;
        if (w->killed || w->granted) continue;
        for (const auto& [holder, held] : q.holders) {
          if (holder != w->txn && !LockCompatible(held, w->mode)) {
            (*graph)[w->txn].push_back(holder);
          }
        }
        if (!w->converting) {
          for (auto jt = q.waiters.begin(); jt != it; ++jt) {
            const Waiter* e = *jt;
            if (e->txn == w->txn || e->instant || e->killed) continue;
            if (!LockCompatible(e->mode, w->mode)) {
              (*graph)[w->txn].push_back(e->txn);
            }
          }
        }
      }
    }
  }
}

TxnId LockManager::GlobalDeadlockSweep(TxnId txn) {
  // Consistent snapshot: every stripe mutex, ascending index order. The
  // sweeping thread holds no stripe mutex on entry (its own Waiter stays
  // queued, keeping it visible in the graph).
  std::vector<std::unique_lock<std::mutex>> guards;
  guards.reserve(stripes_.size());
  for (auto& st : stripes_) guards.emplace_back(st.mu);

  std::unordered_map<TxnId, std::vector<TxnId>> graph;
  AllLockedBuildWaitsFor(&graph);

  // DFS from txn looking for a cycle back to txn; collect the cycle members.
  std::vector<TxnId> stack;
  std::unordered_map<TxnId, int> state;  // 0 unseen, 1 on-stack, 2 done
  bool reorg_in_cycle = false;
  bool found = false;

  std::function<void(TxnId)> dfs = [&](TxnId u) {
    if (found) return;
    state[u] = 1;
    stack.push_back(u);
    auto it = graph.find(u);
    if (it != graph.end()) {
      for (TxnId v : it->second) {
        if (found) return;
        if (v == txn && stack.size() > 0) {
          // Cycle closed back to the requester.
          found = true;
          for (TxnId m : stack) {
            if (m == kReorgTxnId) reorg_in_cycle = true;
          }
          return;
        }
        if (state[v] == 0) dfs(v);
      }
    }
    if (!found) {
      stack.pop_back();
      state[u] = 2;
    }
  };
  dfs(txn);
  if (!found) return kInvalidTxnId;

  // Paper policy: the reorganizer always loses a deadlock.
  TxnId victim =
      (reorg_in_cycle || txn == kReorgTxnId) ? kReorgTxnId : txn;
  if (checker_) checker_->CheckVictimChoice(txn, victim, reorg_in_cycle);
  if (victim != txn) {
    // Kill the victim's pending waits wherever they are queued; the stripes
    // are all held, so the kill round is atomic with the detection.
    for (auto& st : stripes_) {
      for (auto& [qname, queue] : st.queues) {
        for (Waiter* other : queue.waiters) {
          if (other->txn == victim && !other->killed) {
            other->killed = true;
            other->signaled = true;
            other->cv.notify_one();
          }
        }
      }
    }
    if (checker_) checker_->CheckKillRound(*this, victim);
  }
  return victim;
}

Status LockManager::LockImpl(TxnId txn, const LockName& name, LockMode mode,
                             bool instant, int64_t timeout_ms) {
  Notify(LockEvent::kRequest, txn, name, mode);
  Status s = LockWait(txn, name, mode, instant, timeout_ms);
  LockEvent e;
  if (s.ok()) {
    e = instant ? LockEvent::kInstantGranted : LockEvent::kGranted;
  } else if (s.IsBackoff()) {
    e = LockEvent::kBackoff;
  } else if (s.IsTimedOut()) {
    e = LockEvent::kTimeout;
  } else if (s.IsBusy()) {
    e = LockEvent::kBusy;
  } else {
    e = LockEvent::kDeadlock;
  }
  Notify(e, txn, name, mode);
  return s;
}

Status LockManager::LockWait(TxnId txn, const LockName& name, LockMode mode,
                             bool instant, int64_t timeout_ms) {
  Stripe& stripe = stripe_for(name);
  std::unique_lock<std::mutex> lk(stripe.mu);
  auto qit = stripe.queues.try_emplace(name).first;
  Queue& q = qit->second;

  auto h = q.holders.find(txn);
  bool converting = (h != q.holders.end());
  LockMode target;
  if (instant) {
    // Instant-duration requests (RS waits, the switch's instant IX) are
    // never granted and never convert a held lock: the requested mode is
    // judged as-is against the *other* holders. Routing them through
    // LockSupremum was the latent bug that turned an RS wait by a txn still
    // holding e.g. IX into a wait for full exclusivity (the X fallthrough).
    converting = false;
    target = mode;
  } else {
    if (converting && LockCovers(h->second, mode)) {
      stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    target = converting ? LockSupremum(h->second, mode) : mode;
  }
  assert(target != LockMode::kRS || instant);

  // Back-off on a granted-RX conflict (paper §4): do not enqueue.
  if (!instant && LockedConflictsWithGrantedRX(q, txn, target)) {
    stats_.backoffs.fetch_add(1, std::memory_order_relaxed);
    return Status::Backoff("RX held by reorganizer");
  }

  // Fast path. (LockedGrantable with self == nullptr already refuses to
  // overtake queued waiters for fresh requests; instant requests are judged
  // against holders only.)
  if (LockedGrantable(q, txn, target, converting || instant, nullptr)) {
    if (instant) {
      // An instant grant holds nothing; drop the node if try_emplace above
      // materialized it for an otherwise-unlocked name.
      LockedMaybeEraseQueue(stripe, qit);
      stats_.instant_grants.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    NoteHolderChange(name, converting ? &h->second : nullptr, &target);
    q.holders[txn] = target;
    if (!converting) RecordHeld(txn, name);
    if (converting) stats_.conversions.fetch_add(1, std::memory_order_relaxed);
    stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
    LockedCheckHolders(name, q);
    // An RX grant flips already-queued conflicting waiters from "waiting"
    // to "must back off"; hand them their wake tokens now.
    if (target == LockMode::kRX) LockedWakeWaiters(q);
    return Status::OK();
  }

  // Slow path: enqueue and wait. Conversions go to the front of the queue.
  Waiter w{txn, target, converting, instant};
  if (converting) {
    q.waiters.push_front(&w);
  } else {
    q.waiters.push_back(&w);
  }
  stats_.waits.fetch_add(1, std::memory_order_relaxed);

  // Tell the schedule harness (if any) that this request is about to block;
  // the hook must run without the stripe mutex held, and every condition is
  // re-checked after relocking, so the brief unlock is safe.
  if (event_hook_) {
    lk.unlock();
    Notify(LockEvent::kWait, txn, name, mode);
    lk.lock();
  }

  // Our departure (grant, back-off, kill, timeout) can unblock FIFO
  // followers, so every exit wakes the queue after unlinking.
  auto remove_self = [&]() {
    auto it = std::find(q.waiters.begin(), q.waiters.end(), &w);
    if (it != q.waiters.end()) q.waiters.erase(it);
  };

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms >= 0 ? timeout_ms : 0);

  while (true) {
    if (w.killed) {
      remove_self();
      LockedWakeWaiters(q);
      LockedMaybeEraseQueue(stripe, qit);
      stats_.deadlocks.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("chosen as deadlock victim");
    }
    // Re-check the RX back-off condition: an RX lock may have been granted
    // while we waited.
    if (!instant && LockedConflictsWithGrantedRX(q, txn, target)) {
      remove_self();
      LockedWakeWaiters(q);
      LockedMaybeEraseQueue(stripe, qit);
      stats_.backoffs.fetch_add(1, std::memory_order_relaxed);
      return Status::Backoff("RX granted while waiting");
    }
    if (LockedGrantable(q, txn, target, converting || instant, &w)) {
      remove_self();
      if (instant) {
        LockedWakeWaiters(q);
        LockedMaybeEraseQueue(stripe, qit);
        stats_.instant_grants.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      // Re-find the holder entry: `h` predates the wait, and reading the
      // old mode through a stale iterator is not worth the risk.
      auto hold = q.holders.find(txn);
      NoteHolderChange(name, hold != q.holders.end() ? &hold->second : nullptr,
                       &target);
      q.holders[txn] = target;
      if (!converting) RecordHeld(txn, name);
      if (converting)
        stats_.conversions.fetch_add(1, std::memory_order_relaxed);
      stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
      LockedCheckHolders(name, q);
      LockedWakeWaiters(q);
      return Status::OK();
    }

    // About to block: deadlock check over a global snapshot. This drops the
    // stripe mutex (all-stripes lock order); our Waiter stays queued, and
    // anything that happens meanwhile leaves a wake token (signaled/killed)
    // that the wait predicate below observes, so no wakeup is lost.
    lk.unlock();
    TxnId victim = GlobalDeadlockSweep(txn);
    lk.lock();
    if (victim == txn) {
      remove_self();
      LockedWakeWaiters(q);
      LockedMaybeEraseQueue(stripe, qit);
      stats_.deadlocks.fetch_add(1, std::memory_order_relaxed);
      return Status::Deadlock("requester lost deadlock");
    }
    // A non-self victim (the reorganizer) was killed inside the sweep; its
    // exit and the subsequent release of its locks will signal us. Sleep.

    w.asleep = true;
    if (timeout_ms >= 0) {
      const bool woken = w.cv.wait_until(
          lk, deadline, [&] { return w.signaled || w.killed; });
      w.asleep = false;
      if (!woken) {
        remove_self();
        LockedWakeWaiters(q);
        LockedMaybeEraseQueue(stripe, qit);
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
        return Status::TimedOut("lock wait timeout");
      }
    } else {
      w.cv.wait(lk, [&] { return w.signaled || w.killed; });
      w.asleep = false;
    }
    w.signaled = false;
  }
}

Status LockManager::Lock(TxnId txn, const LockName& name, LockMode mode,
                         int64_t timeout_ms) {
  bool instant = (mode == LockMode::kRS);
  return LockImpl(txn, name, mode, instant, timeout_ms);
}

Status LockManager::TryLock(TxnId txn, const LockName& name, LockMode mode) {
  Notify(LockEvent::kRequest, txn, name, mode);
  Status result;
  {
    Stripe& stripe = stripe_for(name);
    std::lock_guard<std::mutex> g(stripe.mu);
    auto qit = stripe.queues.try_emplace(name).first;
    Queue& q = qit->second;
    auto h = q.holders.find(txn);
    bool converting = (h != q.holders.end());
    if (converting && LockCovers(h->second, mode)) {
      stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
      result = Status::OK();
    } else {
      LockMode target = converting ? LockSupremum(h->second, mode) : mode;
      if (LockedConflictsWithGrantedRX(q, txn, target)) {
        stats_.backoffs.fetch_add(1, std::memory_order_relaxed);
        result = Status::Backoff("RX held by reorganizer");
      } else if (!LockedGrantable(q, txn, target, converting, nullptr)) {
        result = Status::Busy("lock unavailable");
      } else {
        NoteHolderChange(name, converting ? &h->second : nullptr, &target);
        q.holders[txn] = target;
        if (!converting) RecordHeld(txn, name);
        if (converting)
          stats_.conversions.fetch_add(1, std::memory_order_relaxed);
        stats_.acquisitions.fetch_add(1, std::memory_order_relaxed);
        LockedCheckHolders(name, q);
        if (target == LockMode::kRX) LockedWakeWaiters(q);
        result = Status::OK();
      }
    }
    if (!result.ok()) LockedMaybeEraseQueue(stripe, qit);
  }
  Notify(result.ok() ? LockEvent::kGranted
                     : (result.IsBackoff() ? LockEvent::kBackoff
                                           : LockEvent::kBusy),
         txn, name, mode);
  return result;
}

Status LockManager::LockInstant(TxnId txn, const LockName& name, LockMode mode,
                                int64_t timeout_ms) {
  return LockImpl(txn, name, mode, /*instant=*/true, timeout_ms);
}

Status LockManager::Unlock(TxnId txn, const LockName& name) {
  {
    Stripe& stripe = stripe_for(name);
    std::lock_guard<std::mutex> g(stripe.mu);
    auto qit = stripe.queues.find(name);
    if (qit == stripe.queues.end()) {
      return Status::NotFound("lock not held");
    }
    auto h = qit->second.holders.find(txn);
    if (h == qit->second.holders.end()) {
      return Status::NotFound("lock not held");
    }
    NoteHolderChange(name, &h->second, nullptr);
    qit->second.holders.erase(h);
    ForgetHeld(txn, name);
    // Defensive revalidation on release: also keeps the invariant checker's
    // derived side-file state (invariant (f)) current when the switcher's
    // step-aside releases its X lock.
    LockedCheckHolders(name, qit->second);
    LockedWakeWaiters(qit->second);
    LockedMaybeEraseQueue(stripe, qit);
  }
  Notify(LockEvent::kUnlock, txn, name, LockMode::kIS);
  return Status::OK();
}

Status LockManager::Downgrade(TxnId txn, const LockName& name, LockMode mode) {
  Stripe& stripe = stripe_for(name);
  std::lock_guard<std::mutex> g(stripe.mu);
  auto qit = stripe.queues.find(name);
  if (qit == stripe.queues.end()) return Status::NotFound("lock not held");
  auto h = qit->second.holders.find(txn);
  if (h == qit->second.holders.end()) return Status::NotFound("lock not held");
  if (!LockCovers(h->second, mode)) {
    return Status::InvalidArgument("not a downgrade");
  }
  NoteHolderChange(name, &h->second, &mode);
  h->second = mode;
  LockedCheckHolders(name, qit->second);
  LockedWakeWaiters(qit->second);
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn) {
  std::vector<LockName> names;
  {
    HeldShard& hs = held_shard_for(txn);
    std::lock_guard<std::mutex> g(hs.mu);
    auto it = hs.held.find(txn);
    if (it == hs.held.end()) return;
    names = std::move(it->second);
    hs.held.erase(it);
  }
  // Only the stripes of names this transaction actually held are touched,
  // one at a time — release-all never takes the whole table. Every holder
  // entry goes first, then the event fires, then waiters wake, so the
  // release-all event is always observed before anything a woken waiter does.
  for (const LockName& name : names) {
    Stripe& stripe = stripe_for(name);
    std::lock_guard<std::mutex> g(stripe.mu);
    auto qit = stripe.queues.find(name);
    if (qit == stripe.queues.end()) continue;
    auto h = qit->second.holders.find(txn);
    if (h != qit->second.holders.end()) {
      NoteHolderChange(name, &h->second, nullptr);
      qit->second.holders.erase(h);
    }
    LockedCheckHolders(name, qit->second);
    LockedMaybeEraseQueue(stripe, qit);
  }
  Notify(LockEvent::kReleaseAll, txn, LockName{LockSpace::kTree, 0},
         LockMode::kIS);
  for (const LockName& name : names) {
    Stripe& stripe = stripe_for(name);
    std::lock_guard<std::mutex> g(stripe.mu);
    auto qit = stripe.queues.find(name);
    if (qit == stripe.queues.end()) continue;
    LockedWakeWaiters(qit->second);
    LockedMaybeEraseQueue(stripe, qit);
  }
}

bool LockManager::HeldMode(TxnId txn, const LockName& name,
                           LockMode* mode) const {
  const Stripe& stripe = stripe_for(name);
  std::lock_guard<std::mutex> g(stripe.mu);
  auto qit = stripe.queues.find(name);
  if (qit == stripe.queues.end()) return false;
  auto h = qit->second.holders.find(txn);
  if (h == qit->second.holders.end()) return false;
  *mode = h->second;
  return true;
}

size_t LockManager::HeldCount(TxnId txn) const {
  const HeldShard& hs = held_shard_for(txn);
  std::lock_guard<std::mutex> g(hs.mu);
  auto it = hs.held.find(txn);
  return it == hs.held.end() ? 0 : it->second.size();
}

bool LockManager::WaitIsBlocked(TxnId txn) const {
  for (const auto& st : stripes_) {
    std::lock_guard<std::mutex> g(st.mu);
    for (const auto& [name, q] : st.queues) {
      for (const Waiter* w : q.waiters) {
        if (w->txn == txn && w->asleep && !w->signaled && !w->killed) {
          return true;
        }
      }
    }
  }
  return false;
}

LockStats LockManager::stats() const {
  LockStats s;
  s.acquisitions = stats_.acquisitions.load(std::memory_order_relaxed);
  s.waits = stats_.waits.load(std::memory_order_relaxed);
  s.backoffs = stats_.backoffs.load(std::memory_order_relaxed);
  s.deadlocks = stats_.deadlocks.load(std::memory_order_relaxed);
  s.timeouts = stats_.timeouts.load(std::memory_order_relaxed);
  s.instant_grants = stats_.instant_grants.load(std::memory_order_relaxed);
  s.conversions = stats_.conversions.load(std::memory_order_relaxed);
  return s;
}

void LockManager::ResetStats() {
  stats_.acquisitions.store(0, std::memory_order_relaxed);
  stats_.waits.store(0, std::memory_order_relaxed);
  stats_.backoffs.store(0, std::memory_order_relaxed);
  stats_.deadlocks.store(0, std::memory_order_relaxed);
  stats_.timeouts.store(0, std::memory_order_relaxed);
  stats_.instant_grants.store(0, std::memory_order_relaxed);
  stats_.conversions.store(0, std::memory_order_relaxed);
}

}  // namespace soreorg
