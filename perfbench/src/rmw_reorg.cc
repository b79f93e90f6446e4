// rmw_reorg: one closed-loop client on a one-partition PartitionedDatabase
// while the on-line reorganization runs. Mix: 45% Get, 45%
// ReadModifyWrite, 10% Scan of at most 50 keys.
//
// The tree is aged as in the paper's §2 (dense load, clustered and
// scattered deletes, insert churn) and is several times larger than the
// buffer pool, so the window loads the reorganizer, RX back-off and
// instant-RS waits, the side file and switch, WAL appends, and pool
// eviction with careful-write ordering. The window of one round spans
// exactly one full reorganization (passes 1-3 plus the switch), run as the
// three public pass calls — what ReorganizeAll() runs on a one-partition
// database, minus its admission counter — so the passes get spans. A run
// repeats rounds on fresh copies of fifteen aged trees and reports medians,
// so one unlucky reorganization or tree does not decide the result.
//
// The single client makes the expected value of every key exact: each Get,
// each Scan and each acknowledged ReadModifyWrite is checked against a
// shadow map. After each round the database is closed and reopened;
// restart_s times the reopen, and every acknowledged write must survive it.

#include <atomic>
#include <optional>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace perfbench {
namespace {

using soreorg::PartitionedDatabase;

constexpr uint64_t kAgedRecords = 15000;  // before aging deletes ~42%
constexpr size_t kPoolPages = 48;
constexpr uint64_t kMinTreeToPool = 3;
constexpr uint64_t kGetPermille = 450;
constexpr uint64_t kRmwPermille = 450;  // the rest are scans
constexpr size_t kScanLen = 50;
constexpr int kWarmupOps = 500;
// Aged trees built by one Setup() call; a run sets up three times. Rounds
// cycle through all the trees, so no single tree's shape — where its sparse
// leaves and its hot keys fall — decides the result.
constexpr uint64_t kTreesPerSetup = 5;
constexpr int kClientCpu = 0;
constexpr int kReorganizerCpu = 1;

soreorg::PartitionedDBOptions Options() {
  soreorg::PartitionedDBOptions opts;
  opts.partitions = 1;
  opts.base.buffer_pool_pages = kPoolPages;
  opts.base.wal_segment_bytes = kWalSegmentBytes;
  opts.executor.workers = 1;
  opts.max_concurrent_reorgs = 1;
  return opts;
}

std::unique_ptr<PartitionedDatabase> OpenPdb(MemEnv* env) {
  std::unique_ptr<PartitionedDatabase> pdb;
  Status s = PartitionedDatabase::Open(env, Options(), &pdb);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return pdb;
}

/// Closed-loop single client with an exact shadow of every value.
class Client {
 public:
  Client(PartitionedDatabase* pdb, KeyValues* shadow, uint64_t seed)
      : pdb_(pdb),
        shadow_(shadow),
        zipf_(shadow->keys.size(), 0.99, seed),
        rng_(seed * 31 + 7) {}

  void Op(bool record) {
    hostclock::Tick();
    const size_t i = zipf_.NextScrambled();
    const std::string& key = shadow_->keys[i];
    const uint64_t dice = rng_.Uniform(1000);
    if (dice < kGetPermille) {
      std::optional<Timed> op;
      if (record) op.emplace(SpanKind::kGet);
      Status s = pdb_->Get(key, &value_);
      if (!OpSucceeded(s, "rmw_reorg: Get", &failed_)) return;
      if (op) get_.push_back(static_cast<uint32_t>(op->End()));
      if (value_ != shadow_->values[i]) {
        check().Fail("Get returned a value other than the last acknowledged");
      }
    } else if (dice < kGetPermille + kRmwPermille) {
      const std::string expected = shadow_->values[i];
      std::optional<Timed> op;
      if (record) op.emplace(SpanKind::kWrite);
      Status s = pdb_->ReadModifyWrite(key, [&](const std::string& cur) {
        if (cur != expected) {
          check().Fail("ReadModifyWrite read a value other than the last "
                       "acknowledged");
        }
        return NextValue(cur);
      });
      if (!OpSucceeded(s, "rmw_reorg: ReadModifyWrite", &failed_)) return;
      if (op) write_.push_back(static_cast<uint32_t>(op->End()));
      ++writes_;
      shadow_->values[i] = NextValue(expected);
    } else {
      const size_t last = std::min(i + kScanLen - 1, shadow_->keys.size() - 1);
      size_t next = i;
      const char* diff = nullptr;  // how the scan first differed
      std::optional<Timed> op;
      if (record) op.emplace(SpanKind::kScan);
      Status s = pdb_->Scan(key, shadow_->keys[last],
                            [&](const Slice& k, const Slice& v) {
                              diff = ScanDiff(next, last, k, v);
                              if (diff != nullptr) return false;
                              ++next;
                              return true;
                            });
      if (!OpSucceeded(s, "rmw_reorg: Scan", &failed_)) return;
      if (op) scan_.push_back(static_cast<uint32_t>(op->End()));
      if (diff == nullptr && next != last + 1) {
        diff = "is missing (the scan ended)";
      }
      if (diff != nullptr) {
        check().Fail("Scan differs from the shadow map: record " +
                     std::to_string(next - i + 1) + " of " +
                     std::to_string(last - i + 1) + " " + diff);
      }
    }
    ++ops_;
  }

  Samples get_, write_, scan_;
  uint64_t ops_ = 0;  // successful ops
  uint64_t writes_ = 0;
  uint64_t failed_ = 0;

 private:
  /// How a scanned (k, v) differs from the shadow's record `next` of a scan
  /// ending at record `last`, or nullptr when it matches.
  const char* ScanDiff(size_t next, size_t last, const Slice& k,
                       const Slice& v) const {
    if (next > last) return "is past hi";
    const int c = k.compare(Slice(shadow_->keys[next]));
    if (c > 0) return "is missing (a later key came instead)";
    if (c < 0) return "has a repeated or out-of-order key before it";
    if (v != Slice(shadow_->values[next])) {
      return "has a value other than the last acknowledged";
    }
    return nullptr;
  }

  PartitionedDatabase* pdb_;
  KeyValues* shadow_;
  soreorg::ZipfianGenerator zipf_;
  soreorg::Random rng_;
  std::string value_;
};

class RmwReorg : public Workload {
 public:
  explicit RmwReorg(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    for (uint64_t i = 0; i < kTreesPerSetup; ++i) {
      MemEnv env;
      std::unique_ptr<PartitionedDatabase> pdb = OpenPdb(&env);
      Database* db = pdb->partition(0);
      soreorg::AgingOptions aging;
      aging.n = kAgedRecords;
      aging.seed = seed_ * 1000 + aged_.size();
      check().ExpectOk(soreorg::AgeDatabase(db, aging), "age database");
      check().ExpectOk(pdb->Checkpoint(), "checkpoint");
      Aged aged;
      aged.base = ScanAll(db);
      aged.tree_pages = TreePages(db);
      check().Expect(aged.tree_pages >= kMinTreeToPool * kPoolPages,
                     "rmw_reorg aged tree (" +
                         std::to_string(aged.tree_pages) +
                         " pages) must be several times its pool");
      env.Crash();
      aged.image = CaptureImage(&env);
      aged_.push_back(std::move(aged));
    }
  }

  std::string Describe() const override {
    std::string live, pages;
    for (const Aged& a : aged_) {
      live += (live.empty() ? "" : "/") + std::to_string(a.base.keys.size());
      pages += (pages.empty() ? "" : "/") + std::to_string(a.tree_pages);
    }
    return "rmw_reorg: " + std::to_string(aged_.size()) + " aged trees of " + live +
           " live records in " + pages + " tree pages, pool " +
           std::to_string(kPoolPages) + " pages, 1 partition, 1 client";
  }

  PhaseResult Measure(double seconds) override {
    PhaseResult out;
    LayerInputs in;
    const bool traced = probe_config().trace;
    ClearTrace();
    hostclock::Clear();
    PinThisThread(kClientCpu);
    std::vector<double> reorgs, restarts, space;
    uint64_t window_ops = 0;
    double window_total_s = 0;
    std::vector<Samples> gets, writes, scans;  // one group per round
    const int64_t start = NowNs();
    for (uint64_t round = 0; round == 0 || SecondsSince(start) < seconds;
         ++round) {
      const Aged& aged = aged_[round % aged_.size()];
      MemEnv env;
      RestoreImage(aged.image, &env);
      std::unique_ptr<PartitionedDatabase> pdb = OpenPdb(&env);
      Database* db = pdb->partition(0);
      InstallProbes(db);
      KeyValues shadow = aged.base;
      Client client(pdb.get(), &shadow, seed_ * 1000 + round);
      for (int i = 0; i < kWarmupOps; ++i) client.Op(false);
      const uint64_t warm_ops = client.ops_;
      const uint64_t warm_writes = client.writes_;
      const uint64_t warm_failed = client.failed_;

      const DbCounters db_before = DbCounters::Read(db);
      const EnvCounters env_before = EnvCounters::Read(env);
      std::atomic<bool> done{false};
      Status reorg_status;
      double reorg_s = 0;
      const int64_t window_start = NowNs();
      std::thread reorganizer([&]() {
        PinThisThread(kReorganizerCpu);
        hostclock::Sample(hostclock::kAround);
        const int64_t t0 = NowNs();
        reorg_status = ReorganizeByPasses(db);
        reorg_s = SecondsSince(t0);
        hostclock::Sample(hostclock::kAround);
        done.store(true);
      });
      while (!done.load()) client.Op(true);
      const double window_s = SecondsSince(window_start);
      reorganizer.join();
      check().ExpectOk(reorg_status, "reorganization under load");
      // The client's and the reorganizer's host-clock samples of this
      // window bring its times to the reference speed.
      const double scale = hostclock::Scale(window_start, NowNs());

      const uint64_t ops = client.ops_ - warm_ops;
      window_ops += ops;
      window_total_s += window_s * scale;
      reorgs.push_back(reorg_s * scale);
      in.user_ops += ops;
      in.user_writes += client.writes_ - warm_writes;
      out.failed += client.failed_ - warm_failed;
      out.attempted += ops + client.failed_ - warm_failed;
      in.db.Add(DbCounters::Read(db).Minus(db_before));
      const EnvCounters env_after = EnvCounters::Read(env);
      in.env.bytes_synced += env_after.bytes_synced - env_before.bytes_synced;
      in.env.syncs += env_after.syncs - env_before.syncs;
      const soreorg::ExecutorStats ex = pdb->stats().executor;
      in.executor.max_queue_depth =
          std::max(in.executor.max_queue_depth, ex.max_queue_depth);
      in.executor.timed_out_queue_full += ex.timed_out_queue_full;
      in.executor.timed_out_unstarted += ex.timed_out_unstarted;
      in.AddReorg(db, db_before, reorg_s);
      for (Samples* kind : {&client.get_, &client.write_, &client.scan_}) {
        ScaleSamples(kind, scale);
      }
      gets.push_back(std::move(client.get_));
      writes.push_back(std::move(client.write_));
      scans.push_back(std::move(client.scan_));

      if (plant_corruption_) {
        pdb->Update(shadow.keys[0], NextValue(NextValue(shadow.values[0])));
      }
      ExpectTreeEquals(db, shadow, "rmw_reorg after the reorganization");
      space.push_back(SpaceAmp(db, shadow.Bytes()));
      check().ExpectOk(db->tree()->ComputeStats(&in.shape), "ComputeStats");

      // Close cleanly and reopen: recovery replays the log since the last
      // checkpoint, i.e. the whole reorganization. (A crash here instead of
      // a clean close hits a known recovery defect; see README.md.)
      pdb.reset();
      const Image closed = CaptureImage(&env);
      MemEnv renv;
      RestoreImage(closed, &renv);
      if (traced) TimeRawWalScan(closed, "soreorg.p0.wal");
      const int64_t open_start = NowNs();
      hostclock::Sample(hostclock::kAround);
      double restart_s = 0;
      {
        Timed t(SpanKind::kOpen);
        pdb = OpenPdb(&renv);
        restart_s = static_cast<double>(t.End()) * 1e-9;
      }
      hostclock::Sample(hostclock::kAround);
      restarts.push_back(restart_s * hostclock::Scale(open_start, NowNs()));
      in.recovery = pdb->partition(0)->recovery_result();
      ExpectTreeEquals(pdb->partition(0), shadow, "rmw_reorg after reopening");
    }
    in.user_write_bytes = in.user_writes * (8 + 64);
    in.restart_s = Mean(restarts);

    // Throughput over all windows together, and mean times per round, all
    // at the reference speed: one round's rate or reorganization time swings
    // with how the client and the reorganizer happened to collide, and a sum
    // over dozens of rounds is steadier than a median of such values.
    out.e2e.Set("ops_per_s", static_cast<double>(window_ops) / window_total_s,
                "ops/s");
    SetOpLatencies(&gets, &writes, &scans, &out.e2e);
    out.e2e.Set("reorg_s", Mean(reorgs), "s");
    out.e2e.Set("space_amp", Median(space), "ratio");
    out.e2e.Set("restart_s", in.restart_s, "s");
    out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
    FillLayerMetrics(in, traced ? CollectTrace() : TraceData(), &out.layer);
    std::fprintf(stderr, "rmw_reorg: %zu rounds\n", reorgs.size());
    return out;
  }

 private:
  struct Aged {
    Image image;
    KeyValues base;
    uint64_t tree_pages = 0;
  };

  const uint64_t seed_;
  std::vector<Aged> aged_;
};

}  // namespace

std::unique_ptr<Workload> MakeRmwReorg(uint64_t seed) {
  return std::make_unique<RmwReorg>(seed);
}

}  // namespace perfbench
