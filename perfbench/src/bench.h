// Shared pieces of the repository benchmark: command-line arguments, metric
// sets, the correctness checker, exact latency percentiles, MemEnv image
// capture/restore, and the layer probes (spans and hook-based counters) that
// the traced run uses. See perfbench/README.md for what each workload
// measures and why.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/db/partitioned_db.h"
#include "src/storage/env.h"

namespace perfbench {

using soreorg::Database;
using soreorg::MemEnv;
using soreorg::Slice;
using soreorg::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check plants (perfbench/selfcheck.py): "" (none), "fetch_spin",
  /// "rx_delay" or "corrupt".
  std::string plant;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) set; Set() replaces an existing entry.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Process-wide record of correctness violations. Any violation fails the
/// command.
class Checker {
 public:
  void Fail(const std::string& what);
  void Expect(bool cond, const std::string& what) {
    if (!cond) Fail(what);
  }
  void ExpectOk(const Status& s, const std::string& what) {
    if (!s.ok()) Fail(what + ": " + s.ToString());
  }
  bool ok() const;

 private:
  mutable std::mutex mu_;
  uint64_t violations_ = 0;
};
Checker& check();

/// Every key a workload reads or writes exists and no op carries a deadline,
/// so every op must succeed: a non-OK status is counted in *failed and is a
/// correctness violation. Returns s.ok().
inline bool OpSucceeded(const Status& s, const char* what, uint64_t* failed) {
  if (s.ok()) return true;
  ++*failed;
  check().Fail(std::string(what) + " returned " + s.ToString());
  return false;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Exact quantile (nearest rank) of raw samples; sorts in place.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Raw per-op latency samples in nanoseconds.
using Samples = std::vector<uint32_t>;
/// Median over groups (time intervals, rounds or repetitions) of each
/// group's exact q-quantile, in microseconds; small groups are merged first
/// so that each has at least 1000 samples (50 beyond a p95). A few bad groups — a stall of the
/// machine, one unlucky reorganization — move it little.
double MedianQuantileUs(std::vector<Samples>* groups, double q);

/// WAL segment size of every workload. MemEnv::Sync copies the whole file,
/// so a commit's cost grows with the size of the WAL segment it syncs; with
/// the 4 MiB default that copy, not the engine, dominates write latency, and
/// at 256 KiB it was still about half of it and made it follow the
/// machine's memory bandwidth from run to run.
constexpr uint64_t kWalSegmentBytes = 64 << 10;

/// Sets get/write/scan _p50_us and _p95_us from per-group samples.
void SetOpLatencies(std::vector<Samples>* gets, std::vector<Samples>* writes,
                    std::vector<Samples>* scans, Metrics* out);

// --- MemEnv images ------------------------------------------------------

/// Every file of a MemEnv, as Read through the Env API. Capture after
/// MemEnv::Crash() so the image is exactly the durable state.
using Image = std::map<std::string, std::string>;
Image CaptureImage(MemEnv* env);
/// Write the image into a fresh MemEnv through the Env API, synced.
void RestoreImage(const Image& image, MemEnv* env);
uint64_t ImageBytes(const Image& image);

// --- engine helpers -----------------------------------------------------

/// Bytes of tree pages (leaf + internal, 4 KiB each) per live user
/// key+value byte.
double SpaceAmp(Database* db, uint64_t live_user_bytes);
uint64_t TreePages(Database* db);
/// Peak resident memory of the process so far.
double PeakRssMb();

/// Pin the calling thread to CPU `cpu` modulo the CPU count, so that a run
/// does not depend on where the scheduler happens to place its threads.
void PinThisThread(int cpu);

// --- host speed ---------------------------------------------------------

/// The benchmark runs on a few virtual CPUs of a shared host, and the speed
/// the host gives them drifts by tens of percent within seconds: a pinned
/// chain of multiplies ran 1.7x faster in one half second than in another,
/// with no steal time reported. Every time and rate metric is therefore
/// reported at a reference speed. The threads that do measured work run a
/// fixed reference kernel (a chain of dependent multiply-adds, ~4.5 us)
/// every kPeriodNs between their ops, or a few times around work they cannot
/// interrupt, and a time measured over an interval is multiplied by
/// kReferenceNs / (median kernel time sampled in that interval). A slower
/// engine still reads slower, because the kernel is not engine code; a
/// slower host does not.
namespace hostclock {

constexpr int64_t kPeriodNs = 2000000;
/// Samples taken on each side of a region that cannot call Tick().
constexpr int kAround = 5;
/// The kernel's time at the reference speed (1.5 ns per multiply-add).
constexpr double kReferenceNs = 4500;

/// Samples the kernel when this thread's period has elapsed. Cheap when it
/// has not; call between ops.
void Tick();
/// Samples the kernel `n` times now, around work that cannot call Tick().
void Sample(int n);
/// kReferenceNs / the median kernel time of the samples any thread took in
/// [from_ns, to_ns]; 1 when there are none. Call while no other thread
/// samples.
double Scale(int64_t from_ns, int64_t to_ns);
/// Median kernel time (ns) over every sample since Clear(), and how many
/// samples there were. Call while no other thread samples.
double MedianKernelNs(size_t* samples);
/// Drop every sample. Call while no other thread samples.
void Clear();

}  // namespace hostclock

/// Multiply every latency sample by `scale` (a hostclock::Scale()).
void ScaleSamples(Samples* samples, double scale);

/// Every (key, value) of a tree, in key order: the shadow the checks compare
/// against.
struct KeyValues {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  uint64_t Bytes() const;
};
KeyValues ScanAll(Database* db);
/// A full scan of `db` must equal `expected` exactly.
void ExpectTreeEquals(Database* db, const KeyValues& expected,
                      const std::string& where);
/// The read-modify-write transform: the value's first 8 bytes, read as a
/// big-endian counter, plus one.
std::string NextValue(const std::string& value);

// --- layer probes -------------------------------------------------------

enum class SpanKind : uint8_t {
  kGet,
  kWrite,
  kScan,
  kLockWait,
  kRxHold,
  kPass1,
  kPass2,
  kPass3,
  kOpen,
  kWalScan,
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // enclosing span on the same thread, 0 = none
  SpanKind kind = SpanKind::kGet;
  SpanKind parent_kind = SpanKind::kGet;  // meaningful when parent != 0
  soreorg::LockMode mode = soreorg::LockMode::kIS;  // lock spans only
  uint32_t fetches = 0;  // op spans: buffer-pool fetches during the op
};

/// What the probes do in the current measurement phase. Set only while no
/// engine thread runs.
struct ProbeConfig {
  bool trace = false;
  int64_t fetch_spin_ns = 0;  // planted: spin in every buffer-pool fetch
  int64_t rx_delay_ns = 0;    // planted: stall after every RX grant
};
void SetProbeConfig(const ProbeConfig& config);
const ProbeConfig& probe_config();

/// Install the buffer-pool fetch hook and the lock-event hook on `db` when
/// the current config needs them. Call right after Open, before any
/// concurrent use.
void InstallProbes(Database* db);

/// Times one region. Always measures; records a span when tracing. Spans
/// opened while another is live on the same thread become its children.
class Timed {
 public:
  explicit Timed(SpanKind kind);
  ~Timed() { End(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the region (idempotent); returns its duration in nanoseconds.
  int64_t End();

 private:
  SpanKind kind_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  SpanKind parent_kind_ = SpanKind::kGet;
  uint64_t fetches_at_start_ = 0;
};

/// What one traced phase recorded. Op spans are kept up to a per-thread
/// cap; the per-kind op totals count every op, kept or not.
struct TraceData {
  std::vector<Span> spans;
  uint64_t op_count[3] = {0, 0, 0};  // indexed by SpanKind kGet/kWrite/kScan
  uint64_t op_ns[3] = {0, 0, 0};
  uint64_t op_fetches[3] = {0, 0, 0};
};
/// Everything recorded since the last ClearTrace(). Call with no engine
/// thread running.
TraceData CollectTrace();
void ClearTrace();
/// Write spans as TSV (kind, start_us, dur_us, id, parent, mode, fetches),
/// at most `cap` lines.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                size_t cap);

/// Counters a layer exposes publicly, read before and after a window.
struct DbCounters {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  soreorg::LockStats locks;
  soreorg::ReadPathStats reads;
  uint64_t wal_user_bytes = 0;   // insert/update/delete/commit/abort/CLR
  uint64_t wal_reorg_bytes = 0;  // REORG_BEGIN/MOVE/MODIFY/END
  uint64_t wal_syncs = 0;
  uint64_t commits = 0;

  static DbCounters Read(Database* db);
  DbCounters Minus(const DbCounters& base) const;
  void Add(const DbCounters& delta);
};

struct EnvCounters {
  uint64_t bytes_synced = 0;
  uint64_t syncs = 0;
  static EnvCounters Read(const MemEnv& env) {
    return {env.bytes_synced(), env.sync_count()};
  }
};

/// Reorganization with per-pass spans: the three public pass calls that
/// Reorganizer::Run() makes, in the same order and under the same options.
/// Every workload reorganizes through it, traced or not, so both phases of
/// a traced run do the same work.
Status ReorganizeByPasses(Database* db);

/// Time a raw LogManager::Open + ReadAll of the WAL in `image` (a restored
/// copy), as the recovery layer's read floor.
void TimeRawWalScan(const Image& image, const std::string& wal_name);

// --- workloads ----------------------------------------------------------

/// One measurement phase of a workload.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics e2e;    // every end-to-end metric except setup_s
  Metrics layer;  // every per-layer metric (meaningful when traced)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a batch of the workload's inputs from the seed. Called several
  /// times and timed each time (setup_s is the median); a call replaces the
  /// earlier batch or, where a run measures many inputs, adds to it.
  virtual void Setup() = 0;
  /// Measure for about `seconds` under the current probe config.
  virtual PhaseResult Measure(double seconds) = 0;
  /// One line of size facts for the run context.
  virtual std::string Describe() const = 0;
  /// Plant a value the checks must reject (self-check of the checker).
  void PlantCorruption() { plant_corruption_ = true; }

 protected:
  bool plant_corruption_ = false;
};

std::unique_ptr<Workload> MakeReadHeavy(uint64_t seed);
std::unique_ptr<Workload> MakeRmwReorg(uint64_t seed);
std::unique_ptr<Workload> MakeRestart(uint64_t seed);

/// Inputs of the per-layer metrics every workload reports: counters read
/// around the serving window, the reorganizations and restarts the phase ran,
/// and the tree shape after the run.
struct LayerInputs {
  DbCounters db;    // serving-window delta
  EnvCounters env;  // serving-window delta
  uint64_t user_ops = 0;
  uint64_t user_writes = 0;
  uint64_t user_write_bytes = 0;  // key + value bytes written by users
  soreorg::ExecutorStats executor;
  soreorg::BTreeStats shape;  // after the run

  // Summed over the phase's reorganizations (AddReorg).
  uint64_t reorg_units = 0;
  uint64_t unit_retries = 0;
  uint64_t records_moved = 0;
  uint64_t step_asides = 0;
  uint64_t switch_window_ns = 0;
  uint64_t wal_reorg_bytes = 0;
  double reorg_s = 0;

  soreorg::RecoveryResult recovery;  // of one representative restart
  double restart_s = 0;              // median restart

  /// Add one reorganization of `db` (a Database that ran no other one);
  /// `before` was read just before it started.
  void AddReorg(Database* db, const DbCounters& before, double seconds);
};
void FillLayerMetrics(const LayerInputs& in, const TraceData& trace,
                      Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
