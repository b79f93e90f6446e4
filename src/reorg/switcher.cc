#include "src/reorg/switcher.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "src/txn/lock_invariants.h"

namespace soreorg {

namespace {

// Per-instance default jitter seed (satellite fix: every switcher built with
// default options used to share one constant and back off in lockstep).
uint64_t DeriveSeed(const Switcher* self) {
  static std::atomic<uint64_t> counter{0};
  uint64_t z = counter.fetch_add(1) * 0x9e3779b97f4a7c15ull;
  z ^= reinterpret_cast<uintptr_t>(self);
  return z ^ 0x5157c0ffeeull;
}

}  // namespace

Switcher::Switcher(ReorgContext* ctx, SideFile* side_file,
                   SwitcherOptions options)
    : ctx_(ctx),
      side_file_(side_file),
      options_(options),
      jitter_(options.backoff_seed ? options.backoff_seed : DeriveSeed(this)) {}

Status Switcher::AcquireSideX(SwitchStats* stats) {
  // The reorganizer always loses deadlocks (§4.1), so retry until granted —
  // with jittered exponential backoff: an immediate retry re-enters the
  // exact conflict window that just killed us and, on a busy system, turns
  // the acquire into a hot spin that starves the very updaters it is
  // waiting on. Re-acquire after a step-aside cannot starve either: fresh
  // recorders use TryLock, which respects the FIFO queue and will not
  // overtake our waiting X request.
  Status s;
  int64_t delay_us = std::max<int64_t>(1, options_.side_lock_backoff_min_us);
  for (int attempt = 0;; ++attempt) {
    s = ctx_->locks->Lock(kReorgTxnId, SideFileLock(), LockMode::kX);
    if (s.ok()) return s;
    if ((!s.IsDeadlock() && !s.IsBusy()) ||
        attempt >= options_.max_side_lock_attempts) {
      return s;
    }
    ++stats->side_lock_retries;
    int64_t span = delay_us / 2;
    int64_t sleep_us = span + static_cast<int64_t>(jitter_.Uniform(
                                  static_cast<uint64_t>(span + 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    delay_us = std::min(delay_us * 2, options_.side_lock_backoff_max_us);
  }
}

Status Switcher::Switch(TreeBuilder* builder, SwitchStats* stats) {
  const TxnId id = kReorgTxnId;
  LockManager* locks = ctx_->locks;
  BTree* tree = ctx_->tree;
  LockInvariantChecker* checker = locks->invariant_checker();
  auto t0 = std::chrono::steady_clock::now();

  // 1. X lock the side file: blocks new base-page updates on either tree
  // and waits out every transaction holding a side-file IX lock.
  Status s = AcquireSideX(stats);
  if (!s.ok()) return s;
  auto unlock_side = [&]() { locks->Unlock(id, SideFileLock()); };

  int step_asides = 0;

  // The drain can itself lose a deadlock: an updater parked on the
  // side-file lock still holds the page locks BaseApply needs — §7.4's
  // cycle one level down, with the same always-victimized reorganizer, so
  // every BaseApply retry re-forms it until the retry budget returns Busy.
  // The remedy is the same step-aside maneuver as step 4: release the side
  // X, let the parked writer record and retire, re-acquire, re-drain the
  // (idempotent) tail. Returns with the side X held unless *side_held says
  // otherwise.
  auto drain_stepping_aside = [&](bool* side_held) -> Status {
    *side_held = true;
    for (;;) {
      Status ds = builder->DrainSideFile();
      if (ds.ok()) return ds;
      if (!ds.IsBusy() && !ds.IsDeadlock()) return ds;
      if (step_asides >= options_.max_step_asides) return ds;
      ++step_asides;
      ++stats->step_asides;
      uint64_t recorded_before = side_file_->total_recorded();
      unlock_side();
      if (options_.on_step_aside) options_.on_step_aside();
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.step_aside_wait_ms);
      while (side_file_->total_recorded() == recorded_before &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Status as = AcquireSideX(stats);
      if (!as.ok()) {
        *side_held = false;
        return as;
      }
    }
  };

  // 2. Final catch-up under the X lock.
  uint64_t before = ctx_->stats->side_entries_applied;
  {
    bool side_held = true;
    s = drain_stepping_aside(&side_held);
    if (!s.ok()) {
      // Nothing has flipped; the reorganizer's failure cleanup dismantles
      // the pass-3 state.
      if (side_held) unlock_side();
      return s;
    }
  }
  stats->final_catchup_entries = ctx_->stats->side_entries_applied - before;

  // 3. Flip the root pointer; the new tree gets a new lock name.
  uint64_t old_inc = tree->incarnation();
  PageId old_root = tree->root();
  BTree* new_tree = builder->new_tree();
  s = tree->SwitchRoot(new_tree->root(), new_tree->height(), old_inc + 1);
  if (!s.ok()) {
    unlock_side();
    return s;
  }
  stats->root_flipped = true;
  if (checker) checker->NoteSwitchEnter(old_inc);

  // Post-flip failures roll FORWARD: the new tree is live and consistent
  // (the root record is durable, every side entry either drained or will
  // drain below), so the only sane terminal state is "switch finished, old
  // upper levels leaked". Leaving the reorg bit set and the hooks installed
  // — what the old code did — strands every future base update in a side
  // file nobody will ever drain. Must be called with the side-file X held;
  // releases it.
  auto roll_forward = [&]() {
    builder->DrainSideFile();  // best effort; entries are idempotent anyway
    side_file_->Close();
    tree->set_reorg_bit(false);
    tree->set_base_update_hook(nullptr);
    tree->set_base_update_cancel_hook(nullptr);
    ctx_->table->set_pass3(false, Slice(), kInvalidPageId);
    std::vector<PageId> leaked;
    if (tree->CollectInternalPages(old_root, &leaked).ok()) {
      stats->old_pages_leaked = leaked.size();
    }
    if (checker) checker->NoteSwitchExit();
    unlock_side();
    stats->rolled_forward = true;
  };

  // 4. Drain transactions still using the old tree: X on the old tree lock.
  // We keep the side-file X lock across the acquisition, because base-page
  // updates on the new tree would make the old tree's leaf addresses
  // obsolete for in-flight old-tree searches (§7.4). When the wait times
  // out or loses a deadlock, step aside (see the header): release the side
  // X, let a parked updater retire, re-acquire, drain the delta, retry.
  int rounds = 0;
  for (;;) {
    bool force = step_asides < options_.force_step_asides;
    if (!force) {
      s = locks->Lock(id, TreeLock(old_inc), LockMode::kX,
                      options_.old_tree_timeout_ms);
      if (s.ok()) break;
      if (!s.IsTimedOut() && !s.IsDeadlock()) {
        roll_forward();
        return s;
      }
      ++stats->old_tree_wait_rounds;
      if (++rounds >= options_.max_wait_rounds) {
        roll_forward();
        return Status::TimedOut("old-tree transactions did not drain");
      }
      if (step_asides >= options_.max_step_asides) {
        roll_forward();
        return Status::TimedOut("step-aside budget exhausted");
      }
    }

    // Step aside. Capture the side-file growth baseline BEFORE releasing
    // the X lock so a fast updater's recording cannot be missed.
    ++step_asides;
    ++stats->step_asides;
    uint64_t recorded_before = side_file_->total_recorded();
    unlock_side();
    if (options_.on_step_aside) options_.on_step_aside();

    // A growth in total_recorded() means a previously parked updater got
    // its entry in — i.e. one old-tree IX holder is now on its way to
    // commit. The deadline covers pure readers (IS holders), which block
    // the old-tree X without ever touching the side file.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.step_aside_wait_ms);
    while (side_file_->total_recorded() == recorded_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    s = AcquireSideX(stats);
    if (!s.ok()) {
      // Degenerate: the side lock never came back. Dismantle the pass-3
      // state without it — Close() first, so the worst case is a benign
      // already-recorded entry, never a new one.
      side_file_->Close();
      tree->set_reorg_bit(false);
      tree->set_base_update_hook(nullptr);
      tree->set_base_update_cancel_hook(nullptr);
      ctx_->table->set_pass3(false, Slice(), kInvalidPageId);
      if (checker) checker->NoteSwitchExit();
      stats->rolled_forward = true;
      return s;
    }

    // Drain the delta recorded during the window, stepping aside again if
    // the drain itself deadlocks against a newly parked writer. Idempotent:
    // entries the redirect path already applied verify as no-ops.
    uint64_t applied_before = ctx_->stats->side_entries_applied;
    bool side_held = true;
    s = drain_stepping_aside(&side_held);
    if (!s.ok()) {
      if (!side_held) {
        side_file_->Close();
        tree->set_reorg_bit(false);
        tree->set_base_update_hook(nullptr);
        tree->set_base_update_cancel_hook(nullptr);
        ctx_->table->set_pass3(false, Slice(), kInvalidPageId);
        if (checker) checker->NoteSwitchExit();
        stats->rolled_forward = true;
        return s;
      }
      roll_forward();
      return s;
    }
    stats->step_aside_entries +=
        ctx_->stats->side_entries_applied - applied_before;
  }

  // 5. Discard the old upper levels and reclaim the space. Failure here is
  // not silent (the old code dropped it on the floor): it is surfaced in
  // the stats and logged, but does not fail the switch — both trees are
  // intact, only the old internal pages leak.
  std::vector<PageId> old_internals;
  s = tree->CollectInternalPages(old_root, &old_internals);
  if (s.ok()) {
    BufferPool::ApplyScope apply_scope(ctx_->bp);
    for (PageId p : old_internals) {
      LogRecord de;
      de.type = LogType::kDeallocPage;
      de.txn_id = id;
      de.page_id = p;
      ctx_->log->Append(&de);
      ctx_->bp->DeletePage(p);
      ++stats->old_pages_discarded;
    }
    ctx_->log->Flush();
  } else {
    stats->reclaim_failed = true;
    stats->reclaim_error = s.ToString();
    std::fprintf(stderr,
                 "switcher: old-tree reclaim failed (%s); internal pages of "
                 "root %u leaked\n",
                 stats->reclaim_error.c_str(), old_root);
  }

  // 6. Close the side file (no recorder can be in flight: we hold the
  // X lock), clear the reorganization bit and release everything.
  side_file_->Close();
  tree->set_reorg_bit(false);
  tree->set_base_update_hook(nullptr);
  tree->set_base_update_cancel_hook(nullptr);
  ctx_->table->set_pass3(false, Slice(), kInvalidPageId);
  locks->Unlock(id, TreeLock(old_inc));
  if (checker) checker->NoteSwitchExit();
  unlock_side();

  stats->switch_window_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return Status::OK();
}

}  // namespace soreorg
