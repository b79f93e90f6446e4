#include "src/sim/schedule.h"

#include <algorithm>
#include <chrono>

namespace soreorg {

namespace {

// The actor owning the calling thread (null on non-actor threads, e.g. the
// test body doing setup). Set once by the thread wrapper in Spawn.
thread_local void* tls_actor = nullptr;

const char* SpaceStr(LockSpace s) {
  switch (s) {
    case LockSpace::kTree:
      return "tree";
    case LockSpace::kPage:
      return "page";
    case LockSpace::kRecord:
      return "record";
    case LockSpace::kSideFile:
      return "side-file";
    case LockSpace::kSideKey:
      return "side-key";
  }
  return "?";
}

}  // namespace

ScheduleController::ScheduleController(ScheduleOptions options)
    : options_(options), rng_(options.seed) {}

ScheduleController::~ScheduleController() {
  {
    std::lock_guard<std::mutex> g(mu_);
    started_ = true;
    free_run_ = true;
  }
  cv_.notify_all();
  for (auto& a : actors_) {
    if (a->thread.joinable()) a->thread.join();
  }
}

void ScheduleController::InstallLockHooks(LockManager* lm) {
  lm->SetEventHook([this, lm](LockEvent e, TxnId txn, const LockName& name,
                              LockMode mode) {
    OnLockEvent(lm, e, txn, name, mode);
  });
}

void ScheduleController::InstallFetchHook(BufferPool* bp) {
  bp->SetFetchHook([this](PageId page_id) { OnFetch(page_id); });
}

void ScheduleController::SetLockPointPredicate(LockPointPredicate pred) {
  std::lock_guard<std::mutex> g(mu_);
  lock_point_pred_ = std::move(pred);
}

void ScheduleController::SetScript(std::vector<std::string> script) {
  std::lock_guard<std::mutex> g(mu_);
  script_ = std::move(script);
  script_pos_ = 0;
}

void ScheduleController::Spawn(const std::string& name,
                               std::function<void()> body) {
  auto actor = std::make_unique<Actor>();
  actor->name = name;
  actor->ctrl = this;
  Actor* a = actor.get();
  {
    std::lock_guard<std::mutex> g(mu_);
    actors_.push_back(std::move(actor));
  }
  a->thread = std::thread([this, a, body = std::move(body)]() {
    tls_actor = a;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return started_; });
    }
    body();
    {
      std::lock_guard<std::mutex> g(mu_);
      a->state = ActorState::kDone;
      LockedAddTrace(a->name + ":done");
    }
    cv_.notify_all();
  });
}

void ScheduleController::LockedWaitAtPoint(Actor* a,
                                           std::unique_lock<std::mutex>* lk) {
  a->state = ActorState::kAtPoint;
  a->granted = false;
  cv_.notify_all();
  cv_.wait(*lk, [&] { return a->granted || free_run_; });
  a->granted = false;
  a->state = ActorState::kRunning;
}

void ScheduleController::Point(const std::string& event) {
  Actor* a = static_cast<Actor*>(tls_actor);
  if (a == nullptr || a->ctrl != this) return;
  std::unique_lock<std::mutex> lk(mu_);
  if (!free_run_) LockedWaitAtPoint(a, &lk);
  // Recorded after the grant so point entries land in schedule order.
  LockedAddTrace(a->name + ":" + event);
}

void ScheduleController::Note(const std::string& event) {
  Actor* a = static_cast<Actor*>(tls_actor);
  if (a == nullptr || a->ctrl != this) return;
  std::lock_guard<std::mutex> g(mu_);
  LockedAddTrace(a->name + ":note:" + event);
}

void ScheduleController::OnLockEvent(LockManager* lm, LockEvent e, TxnId txn,
                                     const LockName& name, LockMode mode) {
  Actor* a = static_cast<Actor*>(tls_actor);
  if (a == nullptr || a->ctrl != this) return;
  std::string entry = a->name + ":" + LockEventName(e);
  if (e != LockEvent::kReleaseAll) {
    entry += std::string(":") + SpaceStr(name.space) + "/" +
             std::to_string(name.id) + ":" + LockModeName(mode);
  }
  std::unique_lock<std::mutex> lk(mu_);
  LockedAddTrace(std::move(entry));
  if (e == LockEvent::kWait) {
    // The request is about to block inside LockManager: deschedule the actor
    // without consuming a step. It becomes runnable again when the manager
    // wakes it (the terminal event below).
    a->state = ActorState::kParked;
    a->parked_in = lm;
    a->parked_txn = txn;
    cv_.notify_all();
    return;
  }
  if (a->state == ActorState::kParked) a->state = ActorState::kRunning;
  cv_.notify_all();
  // Selected lock events double as scheduling points (hooks run with the
  // manager's mutex released, so blocking here is safe).
  if (!free_run_ && lock_point_pred_ && lock_point_pred_(e, name, mode)) {
    LockedWaitAtPoint(a, &lk);
  }
}

void ScheduleController::OnFetch(PageId page_id) {
  Actor* a = static_cast<Actor*>(tls_actor);
  if (a == nullptr || a->ctrl != this) return;
  std::lock_guard<std::mutex> g(mu_);
  LockedAddTrace(a->name + ":fetch:page/" + std::to_string(page_id));
}

void ScheduleController::LockedAddTrace(std::string entry) {
  trace_.push_back(std::move(entry));
}

bool ScheduleController::LockedQuiescent() const {
  for (const auto& a : actors_) {
    if (a->state == ActorState::kRunning) return false;
    if (a->state == ActorState::kParked &&
        !a->parked_in->WaitIsBlocked(a->parked_txn)) {
      return false;
    }
  }
  return true;
}

bool ScheduleController::LockedAllDone() const {
  for (const auto& a : actors_) {
    if (a->state != ActorState::kDone) return false;
  }
  return true;
}

ScheduleController::Actor* ScheduleController::LockedFindActor(
    const std::string& name) {
  for (auto& a : actors_) {
    if (a->name == name) return a.get();
  }
  return nullptr;
}

void ScheduleController::LockedStall(const std::string& why) {
  stalled_ = true;
  free_run_ = true;
  LockedAddTrace("schedule:stall:" + why);
  cv_.notify_all();
}

bool ScheduleController::LockedAwaitQuiescence(
    std::unique_lock<std::mutex>* lk) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.step_timeout_ms);
  while (true) {
    if (LockedQuiescent()) {
      // Debounce: a parked actor that was just unblocked takes a moment to
      // wake inside LockManager and report itself running. Hold the step
      // until the settle window passes without a state change.
      cv_.wait_for(*lk, std::chrono::microseconds(options_.settle_us));
      if (LockedQuiescent()) return true;
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      LockedStall("an actor never came back to a point");
      return false;
    }
    cv_.wait_for(*lk, std::chrono::microseconds(options_.settle_us));
  }
}

Status ScheduleController::Run() {
  {
    std::lock_guard<std::mutex> g(mu_);
    started_ = true;
  }
  cv_.notify_all();

  {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      if (!LockedAwaitQuiescence(&lk)) break;
      if (LockedAllDone()) break;

      Actor* next = nullptr;
      if (script_pos_ < script_.size()) {
        const std::string& want = script_[script_pos_];
        Actor* a = LockedFindActor(want);
        if (a == nullptr) {
          LockedStall("script names unknown actor '" + want + "'");
          break;
        }
        auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.step_timeout_ms);
        while (a->state != ActorState::kAtPoint) {
          if (a->state == ActorState::kDone) break;
          if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
        }
        if (a->state != ActorState::kAtPoint) {
          LockedStall("script step " + std::to_string(script_pos_) + " ('" +
                      want + "') never reached a point");
          break;
        }
        next = a;
        ++script_pos_;
      } else if (!script_.empty()) {
        // Script exhausted: the remaining actors free-run to completion.
        free_run_ = true;
        cv_.notify_all();
        auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.step_timeout_ms);
        while (!LockedAllDone()) {
          if (cv_.wait_until(lk, deadline) == std::cv_status::timeout &&
              !LockedAllDone()) {
            LockedStall("free-run epilogue did not finish");
            break;
          }
        }
        break;
      } else {
        // Seeded mode: release one of the actors waiting at a point.
        std::vector<Actor*> ready;
        for (auto& a : actors_) {
          if (a->state == ActorState::kAtPoint) ready.push_back(a.get());
        }
        if (ready.empty()) {
          // Everyone is parked or done (but not all done): wait for
          // LockManager to wake somebody, or stall.
          auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::milliseconds(options_.step_timeout_ms);
          bool progress = false;
          while (!progress) {
            if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
            for (auto& a : actors_) {
              if (a->state == ActorState::kAtPoint ||
                  a->state == ActorState::kRunning) {
                progress = true;
              }
            }
            if (LockedAllDone()) progress = true;
          }
          if (!progress) {
            LockedStall("all live actors are parked");
            break;
          }
          continue;
        }
        std::sort(ready.begin(), ready.end(),
                  [](const Actor* x, const Actor* y) {
                    return x->name < y->name;
                  });
        next = ready[rng_.Uniform(ready.size())];
      }

      if (next != nullptr) {
        next->granted = true;
        next->state = ActorState::kRunning;
        cv_.notify_all();
      }
    }
  }

  for (auto& a : actors_) {
    if (a->thread.joinable()) a->thread.join();
  }

  std::lock_guard<std::mutex> g(mu_);
  if (stalled_) return Status::TimedOut("schedule stalled; see trace");
  return Status::OK();
}

int ScheduleController::TraceIndex(const std::string& needle, int from) const {
  std::lock_guard<std::mutex> g(mu_);
  for (size_t i = static_cast<size_t>(from < 0 ? 0 : from); i < trace_.size();
       ++i) {
    if (trace_[i].find(needle) != std::string::npos) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string ScheduleController::TraceString() const {
  std::lock_guard<std::mutex> g(mu_);
  std::string out;
  for (const std::string& e : trace_) {
    out += e;
    out += '\n';
  }
  return out;
}

}  // namespace soreorg
