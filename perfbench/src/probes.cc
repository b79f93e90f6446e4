// Implementation of the shared benchmark pieces declared in bench.h.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/wal/log_manager.h"

namespace perfbench {

using soreorg::LockEvent;
using soreorg::LockMode;
using soreorg::LockName;
using soreorg::LogType;
using soreorg::TxnId;

// --- metrics and checks -------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> g(mu_);
  if (++violations_ <= 20) {
    std::fprintf(stderr, "CORRECTNESS VIOLATION: %s\n", what.c_str());
  }
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> g(mu_);
  return violations_ == 0;
}

Checker& check() {
  static Checker c;
  return c;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  return (*v)[std::min(rank, v->size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double MedianQuantileUs(std::vector<Samples>* groups, double q) {
  // Consecutive groups are merged until each holds enough samples for a
  // steady tail quantile; a short remainder joins the last chunk.
  constexpr size_t kMinChunk = 1000;
  std::vector<Samples> chunks;
  for (Samples& g : *groups) {
    if (chunks.empty() || chunks.back().size() >= kMinChunk) {
      chunks.emplace_back();
    }
    chunks.back().insert(chunks.back().end(), g.begin(), g.end());
  }
  if (chunks.size() > 1 && chunks.back().size() < kMinChunk) {
    chunks[chunks.size() - 2].insert(chunks[chunks.size() - 2].end(),
                                     chunks.back().begin(), chunks.back().end());
    chunks.pop_back();
  }
  std::vector<double> per_chunk;
  for (Samples& c : chunks) {
    if (c.empty()) continue;
    const size_t rank = std::min(
        static_cast<size_t>(q * static_cast<double>(c.size())), c.size() - 1);
    std::nth_element(c.begin(), c.begin() + static_cast<ptrdiff_t>(rank),
                     c.end());
    per_chunk.push_back(static_cast<double>(c[rank]) / 1000.0);
  }
  return Median(per_chunk);
}

void SetOpLatencies(std::vector<Samples>* gets, std::vector<Samples>* writes,
                    std::vector<Samples>* scans, Metrics* out) {
  for (auto [name, groups] : {std::pair{"get", gets}, std::pair{"write", writes},
                              std::pair{"scan", scans}}) {
    out->Set(std::string(name) + "_p50_us", MedianQuantileUs(groups, 0.50), "us");
    out->Set(std::string(name) + "_p95_us", MedianQuantileUs(groups, 0.95), "us");
  }
}

// --- images ---------------------------------------------------------------

Image CaptureImage(MemEnv* env) {
  Image image;
  std::vector<std::string> names;
  check().ExpectOk(env->ListFiles("", &names), "list files");
  for (const std::string& name : names) {
    std::unique_ptr<soreorg::File> f;
    check().ExpectOk(env->NewFile(name, &f), "open " + name);
    if (!f) continue;
    std::string bytes(f->Size(), '\0');
    size_t got = 0;
    check().ExpectOk(f->Read(0, bytes.size(), bytes.data(), &got),
                     "read " + name);
    bytes.resize(got);
    image[name] = std::move(bytes);
  }
  return image;
}

void RestoreImage(const Image& image, MemEnv* env) {
  for (const auto& [name, bytes] : image) {
    std::unique_ptr<soreorg::File> f;
    check().ExpectOk(env->NewFile(name, &f), "create " + name);
    if (!f) continue;
    check().ExpectOk(f->Write(0, bytes), "write " + name);
    check().ExpectOk(f->Sync(), "sync " + name);
  }
}

uint64_t ImageBytes(const Image& image) {
  uint64_t n = 0;
  for (const auto& [name, bytes] : image) n += bytes.size();
  return n;
}

// --- engine helpers -----------------------------------------------------

uint64_t TreePages(Database* db) {
  soreorg::BTreeStats st;
  check().ExpectOk(db->tree()->ComputeStats(&st), "ComputeStats");
  return st.leaf_pages + st.internal_pages;
}

double SpaceAmp(Database* db, uint64_t live_user_bytes) {
  if (live_user_bytes == 0) return 0;
  return static_cast<double>(TreePages(db) * soreorg::kPageSize) /
         static_cast<double>(live_user_bytes);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t KeyValues::Bytes() const {
  uint64_t n = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    n += keys[i].size() + values[i].size();
  }
  return n;
}

KeyValues ScanAll(Database* db) {
  KeyValues kv;
  check().ExpectOk(db->Scan(Slice(), Slice(),
                            [&kv](const Slice& k, const Slice& v) {
                              kv.keys.push_back(k.ToString());
                              kv.values.push_back(v.ToString());
                              return true;
                            }),
                   "full scan");
  return kv;
}

void ExpectTreeEquals(Database* db, const KeyValues& expected,
                      const std::string& where) {
  check().ExpectOk(db->tree()->CheckConsistency(), where + ": consistency");
  size_t i = 0;
  bool same = true;
  check().ExpectOk(
      db->Scan(Slice(), Slice(),
               [&](const Slice& k, const Slice& v) {
                 same = same && i < expected.keys.size() &&
                        k == Slice(expected.keys[i]) &&
                        v == Slice(expected.values[i]);
                 ++i;
                 return same;
               }),
      where + ": full scan");
  check().Expect(same && i == expected.keys.size(),
                 where + ": tree content differs from the shadow map at "
                         "record " + std::to_string(i));
}

std::string NextValue(const std::string& value) {
  std::string next = value;
  for (size_t i = std::min<size_t>(8, next.size()); i-- > 0;) {
    if (++next[i] != 0) break;  // carry into the next byte up
  }
  return next;
}

void PinThisThread(int cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --- host speed --------------------------------------------------------------

namespace hostclock {
namespace {

struct ClockSample {
  int64_t at_ns;
  uint32_t kernel_ns;
};

struct ThreadClock {
  std::vector<ClockSample> samples;
  int64_t next_ns = 0;
  uint32_t calls = 0;
};

std::mutex g_clocks_mu;
std::vector<std::unique_ptr<ThreadClock>> g_clocks;  // guarded by mu
thread_local ThreadClock* t_clock = nullptr;

ThreadClock* MyClock() {
  if (t_clock == nullptr) {
    std::lock_guard<std::mutex> g(g_clocks_mu);
    g_clocks.push_back(std::make_unique<ThreadClock>());
    t_clock = g_clocks.back().get();
  }
  return t_clock;
}

/// 3000 dependent 64-bit multiply-adds. It touches no memory, so its time
/// follows only the speed the host gives this CPU, never the cache or
/// memory traffic of the benchmark's own threads.
uint64_t Kernel(uint64_t x) {
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return x;
}

std::atomic<uint64_t> g_sink{0};

void SampleInto(ThreadClock* c) {
  const int64_t start = NowNs();
  const uint64_t x = Kernel(static_cast<uint64_t>(start));
  const int64_t end = NowNs();
  g_sink.fetch_xor(x, std::memory_order_relaxed);
  c->samples.push_back({end, static_cast<uint32_t>(end - start)});
  c->next_ns = end + kPeriodNs;
}

double MedianOf(std::vector<uint32_t>* v) {
  if (v->empty()) return 0;
  auto mid = v->begin() + static_cast<ptrdiff_t>(v->size() / 2);
  std::nth_element(v->begin(), mid, v->end());
  return *mid;
}

}  // namespace

void Tick() {
  ThreadClock* c = MyClock();
  if (++c->calls % 32 != 0) return;
  if (NowNs() >= c->next_ns) SampleInto(c);
}

void Sample(int n) {
  ThreadClock* c = MyClock();
  for (int i = 0; i < n; ++i) SampleInto(c);
}

double Scale(int64_t from_ns, int64_t to_ns) {
  std::vector<uint32_t> in;
  std::lock_guard<std::mutex> g(g_clocks_mu);
  for (const auto& c : g_clocks) {
    for (const ClockSample& s : c->samples) {
      if (s.at_ns >= from_ns && s.at_ns <= to_ns) in.push_back(s.kernel_ns);
    }
  }
  return in.empty() ? 1.0 : kReferenceNs / MedianOf(&in);
}

double MedianKernelNs(size_t* samples) {
  std::vector<uint32_t> all;
  std::lock_guard<std::mutex> g(g_clocks_mu);
  for (const auto& c : g_clocks) {
    for (const ClockSample& s : c->samples) all.push_back(s.kernel_ns);
  }
  *samples = all.size();
  return MedianOf(&all);
}

void Clear() {
  std::lock_guard<std::mutex> g(g_clocks_mu);
  for (const auto& c : g_clocks) c->samples.clear();
}

}  // namespace hostclock

void ScaleSamples(Samples* samples, double scale) {
  for (uint32_t& ns : *samples) {
    ns = static_cast<uint32_t>(std::min(
        4294967295.0, std::round(static_cast<double>(ns) * scale)));
  }
}

// --- probes ----------------------------------------------------------------

namespace {

ProbeConfig g_config;

/// Op spans kept per thread; the per-kind totals keep counting past it.
constexpr size_t kOpSpanCap = 200000;

struct ThreadTrace {
  uint64_t index = 0;
  uint64_t next_seq = 0;
  size_t op_spans = 0;
  std::vector<Span> spans;
  uint64_t op_count[3] = {0, 0, 0};
  uint64_t op_ns[3] = {0, 0, 0};
  uint64_t op_fetches[3] = {0, 0, 0};
};

std::mutex g_traces_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_traces;  // guarded by mu

thread_local ThreadTrace* t_trace = nullptr;
thread_local uint64_t t_current_span = 0;
thread_local SpanKind t_current_kind = SpanKind::kGet;
thread_local uint64_t t_fetches = 0;

ThreadTrace* MyTrace() {
  if (t_trace == nullptr) {
    std::lock_guard<std::mutex> g(g_traces_mu);
    g_traces.push_back(std::make_unique<ThreadTrace>());
    t_trace = g_traces.back().get();
    t_trace->index = g_traces.size();
  }
  return t_trace;
}

uint64_t NextSpanId(ThreadTrace* tt) {
  return (tt->index << 40) | ++tt->next_seq;
}

bool IsOp(SpanKind k) {
  return k == SpanKind::kGet || k == SpanKind::kWrite || k == SpanKind::kScan;
}

void RecordSpan(SpanKind kind, int64_t start, int64_t end, LockMode mode) {
  ThreadTrace* tt = MyTrace();
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.id = NextSpanId(tt);
  s.parent = t_current_span;
  s.parent_kind = t_current_kind;
  s.kind = kind;
  s.mode = mode;
  tt->spans.push_back(s);
}

void SpinFor(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

void OnFetch(soreorg::PageId) {
  ++t_fetches;
  if (g_config.fetch_spin_ns > 0) SpinFor(g_config.fetch_spin_ns);
}

/// Per-thread lock-event state: a request's kWait → terminal interval, and
/// the RX locks this thread was granted and still holds.
struct LockThreadState {
  int64_t wait_start = 0;
  struct Hold {
    TxnId txn;
    LockName name;
    int64_t start;
  };
  std::vector<Hold> rx;
};
thread_local LockThreadState t_lock;

void OnLockEvent(LockEvent e, TxnId txn, const LockName& name, LockMode mode) {
  switch (e) {
    case LockEvent::kRequest:
      return;
    case LockEvent::kWait:
      if (g_config.trace) t_lock.wait_start = NowNs();
      return;
    case LockEvent::kUnlock:
    case LockEvent::kReleaseAll: {
      if (t_lock.rx.empty()) return;
      const int64_t now = NowNs();
      auto& rx = t_lock.rx;
      for (auto it = rx.begin(); it != rx.end();) {
        if (it->txn == txn && (e == LockEvent::kReleaseAll ||
                               it->name == name)) {
          RecordSpan(SpanKind::kRxHold, it->start, now, LockMode::kRX);
          it = rx.erase(it);
        } else {
          ++it;
        }
      }
      return;
    }
    default:  // a terminal event: granted, instant, busy, backoff, ...
      break;
  }
  if (t_lock.wait_start != 0) {
    RecordSpan(SpanKind::kLockWait, t_lock.wait_start, NowNs(), mode);
    t_lock.wait_start = 0;
  }
  if (e == LockEvent::kGranted && mode == LockMode::kRX) {
    const int64_t granted = NowNs();
    if (g_config.rx_delay_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(g_config.rx_delay_ns));
    }
    if (g_config.trace) {
      bool held = false;  // a conversion re-grants a name already held
      for (const auto& h : t_lock.rx) held |= h.txn == txn && h.name == name;
      if (!held) t_lock.rx.push_back({txn, name, granted});
    }
  }
}

}  // namespace

void SetProbeConfig(const ProbeConfig& config) { g_config = config; }
const ProbeConfig& probe_config() { return g_config; }

void InstallProbes(Database* db) {
  if (g_config.trace || g_config.fetch_spin_ns > 0) {
    db->buffer_pool()->SetFetchHook(OnFetch);
  }
  if (g_config.trace || g_config.rx_delay_ns > 0) {
    db->lock_manager()->SetEventHook(OnLockEvent);
  }
}

Timed::Timed(SpanKind kind) : kind_(kind), start_ns_(NowNs()) {
  if (!g_config.trace) return;
  ThreadTrace* tt = MyTrace();
  id_ = NextSpanId(tt);
  parent_ = t_current_span;
  parent_kind_ = t_current_kind;
  t_current_span = id_;
  t_current_kind = kind_;
  fetches_at_start_ = t_fetches;
}

int64_t Timed::End() {
  if (end_ns_ != 0) return end_ns_ - start_ns_;
  end_ns_ = NowNs();
  if (id_ != 0) {
    t_current_span = parent_;
    t_current_kind = parent_kind_;
    ThreadTrace* tt = MyTrace();
    const uint64_t fetches = t_fetches - fetches_at_start_;
    bool keep = true;
    if (IsOp(kind_)) {
      const size_t k = static_cast<size_t>(kind_);
      ++tt->op_count[k];
      tt->op_ns[k] += static_cast<uint64_t>(end_ns_ - start_ns_);
      tt->op_fetches[k] += fetches;
      keep = tt->op_spans++ < kOpSpanCap;
    }
    if (keep) {
      Span s;
      s.start_ns = start_ns_;
      s.end_ns = end_ns_;
      s.id = id_;
      s.parent = parent_;
      s.parent_kind = parent_kind_;
      s.kind = kind_;
      s.fetches = static_cast<uint32_t>(fetches);
      tt->spans.push_back(s);
    }
  }
  return end_ns_ - start_ns_;
}

TraceData CollectTrace() {
  TraceData out;
  std::lock_guard<std::mutex> g(g_traces_mu);
  for (const auto& tt : g_traces) {
    out.spans.insert(out.spans.end(), tt->spans.begin(), tt->spans.end());
    for (int k = 0; k < 3; ++k) {
      out.op_count[k] += tt->op_count[k];
      out.op_ns[k] += tt->op_ns[k];
      out.op_fetches[k] += tt->op_fetches[k];
    }
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return out;
}

void ClearTrace() {
  std::lock_guard<std::mutex> g(g_traces_mu);
  for (auto& tt : g_traces) {
    ThreadTrace fresh;
    fresh.index = tt->index;
    fresh.next_seq = tt->next_seq;
    *tt = std::move(fresh);
  }
}

namespace {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet: return "op.get";
    case SpanKind::kWrite: return "op.write";
    case SpanKind::kScan: return "op.scan";
    case SpanKind::kLockWait: return "txn.lock_wait";
    case SpanKind::kRxHold: return "txn.rx_hold";
    case SpanKind::kPass1: return "reorg.pass1";
    case SpanKind::kPass2: return "reorg.pass2";
    case SpanKind::kPass3: return "reorg.pass3";
    case SpanKind::kOpen: return "recovery.open";
    case SpanKind::kWalScan: return "recovery.wal_scan";
  }
  return "?";
}

}  // namespace

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                size_t cap) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "kind\tstart_us\tdur_us\tid\tparent\tlock_mode\tfetches\n");
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size() && i < cap; ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\t%.3f\t%.3f\t%llx\t%llx\t%s\t%u\n", SpanName(s.kind),
                 (s.start_ns - t0) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 s.kind == SpanKind::kLockWait || s.kind == SpanKind::kRxHold
                     ? soreorg::LockModeName(s.mode)
                     : "-",
                 s.fetches);
  }
  std::fclose(f);
}

// --- counters ----------------------------------------------------------

DbCounters DbCounters::Read(Database* db) {
  DbCounters c;
  c.pool_hits = db->buffer_pool()->hit_count();
  c.pool_misses = db->buffer_pool()->miss_count();
  c.locks = db->lock_manager()->stats();
  c.reads = db->tree()->read_path_stats();
  soreorg::LogManager* log = db->log_manager();
  for (LogType t : {LogType::kInsert, LogType::kDelete, LogType::kUpdate,
                    LogType::kClr, LogType::kCommit, LogType::kAbort}) {
    c.wal_user_bytes += log->bytes_for_type(t);
  }
  for (LogType t : {LogType::kReorgBegin, LogType::kReorgMove,
                    LogType::kReorgModify, LogType::kReorgEnd}) {
    c.wal_reorg_bytes += log->bytes_for_type(t);
  }
  c.wal_syncs = log->sync_batches();
  c.commits = db->txn_manager()->commits();
  return c;
}

DbCounters DbCounters::Minus(const DbCounters& b) const {
  DbCounters d;
  d.pool_hits = pool_hits - b.pool_hits;
  d.pool_misses = pool_misses - b.pool_misses;
  d.locks.acquisitions = locks.acquisitions - b.locks.acquisitions;
  d.locks.waits = locks.waits - b.locks.waits;
  d.locks.backoffs = locks.backoffs - b.locks.backoffs;
  d.locks.deadlocks = locks.deadlocks - b.locks.deadlocks;
  d.locks.timeouts = locks.timeouts - b.locks.timeouts;
  d.locks.instant_grants = locks.instant_grants - b.locks.instant_grants;
  d.locks.conversions = locks.conversions - b.locks.conversions;
  d.reads.optimistic_gets = reads.optimistic_gets - b.reads.optimistic_gets;
  d.reads.optimistic_batches =
      reads.optimistic_batches - b.reads.optimistic_batches;
  d.reads.fallbacks = reads.fallbacks - b.reads.fallbacks;
  d.wal_user_bytes = wal_user_bytes - b.wal_user_bytes;
  d.wal_reorg_bytes = wal_reorg_bytes - b.wal_reorg_bytes;
  d.wal_syncs = wal_syncs - b.wal_syncs;
  d.commits = commits - b.commits;
  return d;
}

void DbCounters::Add(const DbCounters& d) {
  pool_hits += d.pool_hits;
  pool_misses += d.pool_misses;
  locks.acquisitions += d.locks.acquisitions;
  locks.waits += d.locks.waits;
  locks.backoffs += d.locks.backoffs;
  locks.deadlocks += d.locks.deadlocks;
  locks.timeouts += d.locks.timeouts;
  locks.instant_grants += d.locks.instant_grants;
  locks.conversions += d.locks.conversions;
  reads.optimistic_gets += d.reads.optimistic_gets;
  reads.optimistic_batches += d.reads.optimistic_batches;
  reads.fallbacks += d.reads.fallbacks;
  wal_user_bytes += d.wal_user_bytes;
  wal_reorg_bytes += d.wal_reorg_bytes;
  wal_syncs += d.wal_syncs;
  commits += d.commits;
}

void LayerInputs::AddReorg(Database* db, const DbCounters& before,
                           double seconds) {
  const soreorg::ReorgStats& rs = db->reorganizer()->stats();
  const soreorg::SwitchStats& ss = db->reorganizer()->switch_stats();
  reorg_units += rs.units;
  unit_retries += rs.unit_retries;
  records_moved += rs.records_moved;
  step_asides += ss.step_asides;
  switch_window_ns += ss.switch_window_ns;
  wal_reorg_bytes += DbCounters::Read(db).Minus(before).wal_reorg_bytes;
  reorg_s += seconds;
}

Status ReorganizeByPasses(Database* db) {
  soreorg::Reorganizer* r = db->reorganizer();
  Status s;
  {
    Timed t(SpanKind::kPass1);
    s = r->RunLeafPass();
  }
  if (!s.ok()) return s;
  if (r->options()->run_swap_pass) {
    Timed t(SpanKind::kPass2);
    s = r->RunSwapPass();
    if (!s.ok()) return s;
  }
  if (r->options()->run_internal_pass) {
    Timed t(SpanKind::kPass3);
    s = r->RunInternalPass();
  }
  return s;
}

void TimeRawWalScan(const Image& image, const std::string& wal_name) {
  MemEnv env;
  RestoreImage(image, &env);
  Timed t(SpanKind::kWalScan);
  soreorg::LogManager log(&env, wal_name);
  check().ExpectOk(log.Open(), "raw WAL open");
  std::vector<soreorg::LogRecord> records;
  check().ExpectOk(log.ReadAll(&records), "raw WAL scan");
}

// --- per-layer metrics --------------------------------------------------

namespace {

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

double SpanSeconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

}  // namespace

void FillLayerMetrics(const LayerInputs& in, const TraceData& trace,
                      Metrics* out) {
  double user_wait_s = 0, reorg_wait_s = 0;
  double pass_s[3] = {0, 0, 0};
  std::vector<double> rs_waits_us, rx_holds_us, wal_scans_s;
  for (const Span& s : trace.spans) {
    switch (s.kind) {
      case SpanKind::kLockWait:
        if (s.parent != 0 && IsOp(s.parent_kind)) {
          user_wait_s += SpanSeconds(s);
          if (s.mode == LockMode::kRS) rs_waits_us.push_back(SpanSeconds(s) * 1e6);
        }
        if (s.mode == LockMode::kR || s.mode == LockMode::kRX) {
          reorg_wait_s += SpanSeconds(s);
        }
        break;
      case SpanKind::kRxHold:
        rx_holds_us.push_back(SpanSeconds(s) * 1e6);
        break;
      case SpanKind::kPass1:
      case SpanKind::kPass2:
      case SpanKind::kPass3:
        pass_s[static_cast<int>(s.kind) - static_cast<int>(SpanKind::kPass1)] +=
            SpanSeconds(s);
        break;
      case SpanKind::kWalScan:
        wal_scans_s.push_back(SpanSeconds(s));
        break;
      default:
        break;
    }
  }
  const auto get = static_cast<size_t>(SpanKind::kGet);
  const auto scan = static_cast<size_t>(SpanKind::kScan);
  double user_op_s = 0;
  for (int k = 0; k < 3; ++k) user_op_s += trace.op_ns[k] * 1e-9;
  const double ops = static_cast<double>(in.user_ops);
  const soreorg::RecoveryResult& rr = in.recovery;

  out->Set("db.executor.max_queue_depth",
           static_cast<double>(in.executor.max_queue_depth), "count");
  out->Set("db.executor.timed_out",
           static_cast<double>(in.executor.timed_out_queue_full +
                               in.executor.timed_out_unstarted),
           "count");
  const double optimistic = static_cast<double>(
      in.db.reads.optimistic_gets + in.db.reads.optimistic_batches);
  out->Set("btree.optimistic_frac",
           Ratio(optimistic, optimistic + static_cast<double>(
                                              in.db.reads.fallbacks)),
           "ratio");
  out->Set("btree.fetches_per_get",
           Ratio(static_cast<double>(trace.op_fetches[get]),
                 static_cast<double>(trace.op_count[get])),
           "count");
  out->Set("btree.fetches_per_scan",
           Ratio(static_cast<double>(trace.op_fetches[scan]),
                 static_cast<double>(trace.op_count[scan])),
           "count");
  out->Set("btree.height", static_cast<double>(in.shape.height), "count");
  out->Set("btree.leaf_fill", in.shape.avg_leaf_fill, "ratio");
  out->Set("btree.leaves_in_order_frac",
           Ratio(static_cast<double>(in.shape.leaves_in_disk_order),
                 static_cast<double>(in.shape.leaf_pages)),
           "ratio");
  const double hits = static_cast<double>(in.db.pool_hits);
  const double misses = static_cast<double>(in.db.pool_misses);
  out->Set("storage.pool.hit_rate", Ratio(hits, hits + misses), "ratio");
  out->Set("storage.pool.misses_per_op", Ratio(misses, ops), "count");
  out->Set("storage.write_amp",
           Ratio(static_cast<double>(in.env.bytes_synced),
                 static_cast<double>(in.user_write_bytes)),
           "ratio");
  out->Set("storage.syncs_per_write",
           Ratio(static_cast<double>(in.env.syncs),
                 static_cast<double>(in.user_writes)),
           "count");
  out->Set("txn.lock.user_wait_frac", Ratio(user_wait_s, user_op_s), "ratio");
  out->Set("txn.lock.rs_wait_p99_us", Quantile(&rs_waits_us, 0.99), "us");
  out->Set("txn.lock.backoffs_per_kop",
           Ratio(static_cast<double>(in.db.locks.backoffs) * 1000, ops),
           "count");
  out->Set("txn.lock.waits_per_kop",
           Ratio(static_cast<double>(in.db.locks.waits) * 1000, ops), "count");
  out->Set("txn.lock.deadlocks", static_cast<double>(in.db.locks.deadlocks),
           "count");
  out->Set("txn.lock.rx_hold_p99_us", Quantile(&rx_holds_us, 0.99), "us");
  out->Set("txn.lock.rx_hold_max_us",
           rx_holds_us.empty() ? 0 : rx_holds_us.back(), "us");
  out->Set("txn.lock.reorg_wait_s", reorg_wait_s, "s");
  out->Set("wal.user_bytes_per_write",
           Ratio(static_cast<double>(in.db.wal_user_bytes),
                 static_cast<double>(in.user_writes)),
           "B");
  out->Set("wal.commits_per_sync",
           Ratio(static_cast<double>(in.db.commits),
                 static_cast<double>(in.db.wal_syncs)),
           "count");
  out->Set("wal.reorg_bytes_per_record_moved",
           Ratio(static_cast<double>(in.wal_reorg_bytes),
                 static_cast<double>(in.records_moved)),
           "B");
  out->Set("reorg.pass1_s", pass_s[0], "s");
  out->Set("reorg.pass2_s", pass_s[1], "s");
  out->Set("reorg.pass3_s", pass_s[2], "s");
  out->Set("reorg.switch_window_ms",
           static_cast<double>(in.switch_window_ns) / 1e6, "ms");
  out->Set("reorg.step_asides", static_cast<double>(in.step_asides), "count");
  out->Set("reorg.units", static_cast<double>(in.reorg_units), "count");
  out->Set("reorg.unit_retry_frac",
           Ratio(static_cast<double>(in.unit_retries),
                 static_cast<double>(in.reorg_units)),
           "ratio");
  out->Set("reorg.records_moved_per_s",
           Ratio(static_cast<double>(in.records_moved), in.reorg_s), "1/s");
  out->Set("recovery.wal_scan_s", Median(wal_scans_s), "s");
  out->Set("recovery.redo_mb_per_s",
           Ratio(static_cast<double>(rr.wal_bytes_scanned) / 1e6, in.restart_s),
           "MB/s");
  out->Set("recovery.records_redone", static_cast<double>(rr.records_redone),
           "count");
  out->Set("recovery.segments_scanned",
           static_cast<double>(rr.segments_scanned), "count");
  out->Set("recovery.losers", static_cast<double>(rr.losers.size()), "count");
  out->Set("recovery.forward_unit_records",
           static_cast<double>(rr.incomplete_unit_records.size()), "count");
}

}  // namespace perfbench
