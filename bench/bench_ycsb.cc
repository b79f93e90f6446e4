// YCSB-style percentile benchmark for the partitioned serving layer.
//
// Three mixes over a scrambled-zipfian key popularity (theta 0.99):
//   read_heavy — 95% Get / 5% Update            (YCSB-B shape)
//   rmw        — 50% Get / 50% ReadModifyWrite  (YCSB-F shape)
//   scan       — 95% short Scan (<=50 records) / 5% Update  (YCSB-E shape)
//
// Each (mix, partitions) cell loads a fresh sparse database (bulk load at
// fill 0.5, so the reorganizer has real work), then measures two phases:
//   quiesced — no reorganization running;
//   active   — the measurement window exactly spans a synchronous
//              ReorganizeAll() on the same data.
// Reported per cell: throughput and p50/p99/p999 latency (log-bucket
// histogram, ~1.6% resolution).
//
// The driver is a synchronous closed loop. With nothing queued the
// executor's inline fast path serves each op on the calling thread (see
// executor.h) — the serving layer's admission machinery only costs anything
// once there is backlog, which is what keeps the partitions=1 overhead
// within the 10% bound. Latency is call-to-return, i.e. it includes any
// queue wait — the number a client would see.
//
// At partitions=1 the same mix also runs directly against a plain Database
// (no executor, no router) and the throughput overhead of the serving layer
// is reported — the acceptance bound is <= 10%.
//
// CI note: this container is 1-CPU, so multi-partition cells measure
// partitioning/executor *overhead and isolation*, not parallel speedup (see
// EXPERIMENTS.md P5). Absolute numbers are machine-dependent; the regression
// gate (scripts/check_bench_regression.py) only checks machine-normalized
// ratios from the same process.
//
// Flags: --quick  (small load, short phases, partitions {1,4})
//        --json=<path>
//        --ms=<n>     per-phase measurement time, default 800

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/db/partitioned_db.h"
#include "src/sim/workload.h"

namespace soreorg {
namespace {

using bench::JsonReporter;
using bench::Timer;

struct MixSpec {
  const char* name;
  double read_frac;
  double update_frac;
  double rmw_frac;
  double scan_frac;
};

constexpr MixSpec kMixes[] = {
    {"read_heavy", 0.95, 0.05, 0.0, 0.0},
    {"rmw", 0.50, 0.0, 0.50, 0.0},
    {"scan", 0.0, 0.05, 0.0, 0.95},
};

struct BenchConfig {
  uint64_t records = 20000;
  uint64_t key_stride = 10;
  size_t value_size = 64;
  int phase_ms = 800;
  uint64_t scan_len = 50;  // key-space span of a short scan
};

struct PhaseResult {
  uint64_t ops = 0;
  uint64_t failures = 0;
  double seconds = 0;
  uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
  double OpsPerSec() const { return seconds > 0 ? ops / seconds : 0; }
};

std::string ValueFor(uint64_t item, size_t size) {
  std::string v = "val-" + std::to_string(item) + "-";
  while (v.size() < size) v.push_back('x');
  v.resize(size);
  return v;
}

/// One op drawn from the mix, run synchronously (closed loop).
class MixDriver {
 public:
  MixDriver(PartitionedDatabase* pdb, Database* plain, const MixSpec& mix,
            const BenchConfig& cfg, uint64_t seed)
      : pdb_(pdb),
        plain_(plain),
        mix_(mix),
        cfg_(cfg),
        zipf_(cfg.records, ZipfianGenerator::kDefaultTheta, seed),
        rng_(seed * 31 + 7) {}

  /// Runs the mix until `stop` returns true; fills `out`.
  void Run(const std::function<bool()>& stop, PhaseResult* out) {
    LatencyHistogram hist;
    std::atomic<uint64_t> failures{0};
    uint64_t ops = 0;

    Timer timer;
    while (!stop()) {
      uint64_t item = zipf_.NextScrambled();
      std::string key = EncodeU64Key(item * cfg_.key_stride);
      double dice = static_cast<double>(rng_.Uniform(1000000)) / 1000000.0;

      if (dice < mix_.scan_frac) {
        RunScan(item, &hist, &failures);
      } else if (plain_ != nullptr) {
        RunPlainPointOp(dice, item, key, &hist, &failures);
      } else {
        RunServedPointOp(dice, item, key, &hist, &failures);
      }
      ++ops;
    }
    out->seconds = timer.Seconds();
    out->ops = ops;
    out->failures = failures.load();
    out->p50_ns = hist.Percentile(0.50);
    out->p99_ns = hist.Percentile(0.99);
    out->p999_ns = hist.Percentile(0.999);
  }

 private:
  void RunScan(uint64_t item, LatencyHistogram* hist,
               std::atomic<uint64_t>* failures) {
    std::string lo = EncodeU64Key(item * cfg_.key_stride);
    std::string hi = EncodeU64Key((item + cfg_.scan_len) * cfg_.key_stride);
    uint64_t seen = 0;
    auto cb = [&seen](const Slice&, const Slice&) {
      ++seen;
      return true;
    };
    auto t0 = std::chrono::steady_clock::now();
    Status s = plain_ != nullptr ? plain_->Scan(lo, hi, cb)
                                 : pdb_->Scan(lo, hi, cb);
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    hist->Record(static_cast<uint64_t>(dt));
    if (!s.ok()) failures->fetch_add(1);
  }

  void RunServedPointOp(double dice, uint64_t item, const std::string& key,
                        LatencyHistogram* hist,
                        std::atomic<uint64_t>* failures) {
    auto t0 = std::chrono::steady_clock::now();
    Status s;
    if (dice < mix_.scan_frac + mix_.read_frac) {
      s = pdb_->Get(key, &value_buf_);
    } else if (dice < mix_.scan_frac + mix_.read_frac + mix_.rmw_frac) {
      s = pdb_->ReadModifyWrite(key, [](const std::string& cur) {
        std::string next = cur;
        if (!next.empty()) next[0] = static_cast<char>(next[0] + 1);
        return next;
      });
    } else {
      s = pdb_->Update(key, ValueFor(item, cfg_.value_size));
    }
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    hist->Record(static_cast<uint64_t>(dt));
    if (!s.ok()) failures->fetch_add(1);
  }

  void RunPlainPointOp(double dice, uint64_t item, const std::string& key,
                       LatencyHistogram* hist,
                       std::atomic<uint64_t>* failures) {
    auto t0 = std::chrono::steady_clock::now();
    Status s;
    if (dice < mix_.scan_frac + mix_.read_frac) {
      s = plain_->Get(key, &value_buf_);
    } else if (dice < mix_.scan_frac + mix_.read_frac + mix_.rmw_frac) {
      s = plain_->Get(key, &value_buf_);
      if (s.ok()) {
        if (!value_buf_.empty()) {
          value_buf_[0] = static_cast<char>(value_buf_[0] + 1);
        }
        s = plain_->Update(key, value_buf_);
      }
    } else {
      s = plain_->Update(key, ValueFor(item, cfg_.value_size));
    }
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    hist->Record(static_cast<uint64_t>(dt));
    if (!s.ok()) failures->fetch_add(1);
  }

  PartitionedDatabase* pdb_;
  Database* plain_;  // when set, ops bypass the serving layer entirely
  const MixSpec& mix_;
  const BenchConfig& cfg_;
  ZipfianGenerator zipf_;
  Random rng_;
  std::string value_buf_;  // reused Get target (capacity sticks)
};

std::vector<std::pair<std::string, std::string>> LoadRecords(
    const BenchConfig& cfg) {
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(cfg.records);
  for (uint64_t i = 0; i < cfg.records; ++i) {
    records.emplace_back(EncodeU64Key(i * cfg.key_stride),
                         ValueFor(i, cfg.value_size));
  }
  return records;
}

void PrintPhase(const char* mix, size_t parts, const char* phase,
                const PhaseResult& r) {
  std::printf("  %-10s P=%-3zu %-9s %9.0f ops/s   p50 %7.1f us   p99 %8.1f "
              "us   p999 %8.1f us%s\n",
              mix, parts, phase, r.OpsPerSec(), r.p50_ns / 1000.0,
              r.p99_ns / 1000.0, r.p999_ns / 1000.0,
              r.failures ? "   [FAILURES]" : "");
}

void AddPhase(JsonReporter* json, const std::string& prefix, size_t parts,
              const PhaseResult& r) {
  json->Add(prefix + ".ops_per_s", r.OpsPerSec(), "ops/s",
            static_cast<int>(parts));
  json->Add(prefix + ".p50_us", r.p50_ns / 1000.0, "us",
            static_cast<int>(parts));
  json->Add(prefix + ".p99_us", r.p99_ns / 1000.0, "us",
            static_cast<int>(parts));
  json->Add(prefix + ".p999_us", r.p999_ns / 1000.0, "us",
            static_cast<int>(parts));
  json->Add(prefix + ".failures", static_cast<double>(r.failures), "count",
            static_cast<int>(parts));
}

int Main(int argc, char** argv) {
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  BenchConfig cfg;
  if (quick) {
    cfg.records = 4000;
    cfg.phase_ms = 250;
  }
  if (const char* ms = bench::FlagValue(argc, argv, "--ms")) {
    cfg.phase_ms = std::atoi(ms);
  }

  std::vector<size_t> partition_counts =
      quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16};

  JsonReporter json("ycsb", argc, argv);
  bench::Header("YCSB-style serving-layer percentiles",
                "online reorganization must not wreck tail latency: the "
                "active column spans ReorganizeAll() on the same data");
  std::printf("records=%llu sparse-fill=0.5 phase=%dms%s\n\n",
              static_cast<unsigned long long>(cfg.records), cfg.phase_ms,
              quick ? " (--quick)" : "");

  int exit_code = 0;
  for (const MixSpec& mix : kMixes) {
    for (size_t parts : partition_counts) {
      MemEnv env;
      PartitionedDBOptions opts;
      opts.partitions = parts;
      opts.base.buffer_pool_pages = 2048;
      opts.max_concurrent_reorgs = 1;
      std::unique_ptr<PartitionedDatabase> pdb;
      Status s = PartitionedDatabase::Open(&env, opts, &pdb);
      if (!s.ok()) {
        std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
        return 1;
      }
      s = pdb->BulkLoad(LoadRecords(cfg), /*leaf_fill=*/0.5);
      if (!s.ok()) {
        std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
        return 1;
      }

      const std::string cell =
          std::string(mix.name) + ".p" + std::to_string(parts);

      // Phase 1: quiesced.
      PhaseResult quiesced;
      {
        MixDriver driver(pdb.get(), nullptr, mix, cfg, 1000 + parts);
        Timer t;
        driver.Run([&]() { return t.Seconds() * 1000 >= cfg.phase_ms; },
                   &quiesced);
      }
      PrintPhase(mix.name, parts, "quiesced", quiesced);
      AddPhase(&json, cell + ".quiesced", parts, quiesced);

      // Phase 2: the window spans a full ReorganizeAll of the sparse trees.
      PhaseResult active;
      std::atomic<bool> reorg_done{false};
      Status reorg_status;
      Timer reorg_timer;
      std::thread reorg([&]() {
        reorg_status = pdb->ReorganizeAll();
        reorg_done.store(true);
      });
      {
        MixDriver driver(pdb.get(), nullptr, mix, cfg, 2000 + parts);
        driver.Run([&]() { return reorg_done.load(); }, &active);
      }
      reorg.join();
      double reorg_s = reorg_timer.Seconds();
      if (!reorg_status.ok()) {
        std::fprintf(stderr, "reorg failed: %s\n",
                     reorg_status.ToString().c_str());
        exit_code = 1;
      }
      PrintPhase(mix.name, parts, "active", active);
      AddPhase(&json, cell + ".active", parts, active);
      json.Add(cell + ".reorg_s", reorg_s, "s", static_cast<int>(parts));

      for (size_t p = 0; p < parts; ++p) {
        bench::Check(pdb->partition(p), "post-reorg");
      }
      if (quiesced.failures != 0 || active.failures != 0) {
        std::fprintf(stderr, "unexpected op failures in %s\n", cell.c_str());
        exit_code = 1;
      }

      // The P=1 cell also measures serving-layer overhead against a plain
      // Database on identical data and mix.
      if (parts == 1) {
        MemEnv plain_env;
        DatabaseOptions plain_opts;
        plain_opts.buffer_pool_pages = 2048;
        std::unique_ptr<Database> plain;
        if (!Database::Open(&plain_env, plain_opts, &plain).ok() ||
            !plain->BulkLoad(LoadRecords(cfg), 0.5).ok()) {
          std::fprintf(stderr, "plain baseline setup failed\n");
          return 1;
        }
        PhaseResult base;
        {
          MixDriver driver(nullptr, plain.get(), mix, cfg, 1000 + parts);
          Timer t;
          driver.Run([&]() { return t.Seconds() * 1000 >= cfg.phase_ms; },
                     &base);
        }
        PrintPhase(mix.name, 1, "plain", base);
        AddPhase(&json, std::string(mix.name) + ".plain", 1, base);
        double overhead_pct =
            base.OpsPerSec() > 0
                ? (base.OpsPerSec() - quiesced.OpsPerSec()) /
                      base.OpsPerSec() * 100.0
                : 0.0;
        std::printf("  %-10s P=1   overhead vs plain: %+.1f%% (bound 10%%)\n",
                    mix.name, overhead_pct);
        json.Add(std::string(mix.name) + ".p1.overhead_pct", overhead_pct,
                 "%", 1);
      }
    }
    std::printf("\n");
  }

  if (!json.Write()) exit_code = 1;
  return exit_code;
}

}  // namespace
}  // namespace soreorg

int main(int argc, char** argv) { return soreorg::Main(argc, argv); }
