// restart: Database::Open on a crashed image, with serial redo.
//
// The image holds a checkpointed aged tree, a post-checkpoint burst of
// committed updates spanning several WAL segments, a few open loser
// transactions, and a pass-1 reorganization crashed mid-unit with
// CrashInjector — so redo, loser undo and forward recovery (§5) all have
// work. Each repetition copies the image into a fresh MemEnv (set-up, not
// timed), times Open, then checks that every acknowledged update is
// readable, that loser writes are absent and that no reorganization unit is
// left open.
//
// The recovered database then serves a fixed verification load — a Get of
// every key, short scans and updates, all checked against the shadow map —
// which gives the cold-start op latencies, and finishes the interrupted
// reorganization (reorg_s): after forward recovery the passes resume.

#include <algorithm>

#include "perfbench/src/bench.h"
#include "src/sim/crash_injector.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace perfbench {
namespace {

constexpr uint64_t kAgedRecords = 20000;  // before aging deletes ~58%
constexpr uint64_t kBurstUpdates = 12000;
constexpr int kLosers = 3;
constexpr int kLoserWrites = 4;
// Losers write at the top of the key space, this many records apart so no
// two share a leaf (writers X-lock leaves).
constexpr size_t kLoserStride = 200;
// Scattered deletes beyond the default aging leave leaves sparse enough that
// pass 1 has units from the left end on, so an early crash point lands in
// one of them.
constexpr double kRandomDeleteFrac = 0.7;
constexpr int kFirstCrashPoint = 8;
constexpr int kCrashAttempts = 8;
constexpr uint64_t kScans = 300;
constexpr uint64_t kUpdates = 300;
constexpr size_t kScanLen = 50;

soreorg::DatabaseOptions Options() {
  soreorg::DatabaseOptions opts;  // serial redo, forward recovery
  opts.wal_segment_bytes = kWalSegmentBytes;
  return opts;
}

class Restart : public Workload {
 public:
  explicit Restart(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    // The crash point is a WAL write count; one that falls between two
    // units leaves nothing for forward recovery, so try the next one.
    for (int attempt = 0; attempt < kCrashAttempts; ++attempt) {
      if (BuildImage(kFirstCrashPoint + attempt)) return;
    }
    check().Fail("restart: no crash point left a reorganization unit open");
  }

  std::string Describe() const override {
    return "restart: " + std::to_string(shadow_.keys.size()) +
           " live records, " + std::to_string(kBurstUpdates) +
           " post-checkpoint updates, " + std::to_string(kLosers) +
           " losers, image " + std::to_string(ImageBytes(image_) >> 10) +
           " KiB, WAL segments " + std::to_string(kWalSegmentBytes >> 10) +
           " KiB";
  }

  PhaseResult Measure(double seconds) override {
    PhaseResult out;
    LayerInputs in;
    const bool traced = probe_config().trace;
    ClearTrace();
    hostclock::Clear();
    PinThisThread(0);
    std::vector<double> restarts, reorgs, rates, space;
    std::vector<Samples> gets, writes, scans;  // one group per repetition
    const int64_t start = NowNs();
    for (uint64_t rep = 0; rep == 0 || SecondsSince(start) < seconds; ++rep) {
      MemEnv env;
      RestoreImage(image_, &env);
      if (traced) TimeRawWalScan(image_, "soreorg.wal");
      // The repetition's host-clock samples, around Open and the
      // reorganization and between the served ops, bring its times to the
      // reference speed.
      const int64_t rep_start = NowNs();
      hostclock::Sample(hostclock::kAround);
      std::unique_ptr<Database> db;
      double restart_s = 0;
      {
        Timed t(SpanKind::kOpen);
        Status s = Database::Open(&env, Options(), &db);
        restart_s = static_cast<double>(t.End()) * 1e-9;
        if (!s.ok()) {
          check().Fail("restart: Open failed: " + s.ToString());
          break;
        }
      }
      const soreorg::RecoveryResult& rr = db->recovery_result();
      in.recovery = rr;
      check().Expect(rr.losers.size() == kLosers,
                     "restart: expected " + std::to_string(kLosers) +
                         " loser transactions, found " +
                         std::to_string(rr.losers.size()));
      check().Expect(!rr.incomplete_unit_records.empty(),
                     "restart: no open reorganization unit to finish");
      check().Expect(!db->reorg_table()->has_open_unit(),
                     "restart: a reorganization unit is left open");
      check().ExpectOk(db->tree()->CheckConsistency(), "restart: consistency");
      InstallProbes(db.get());

      KeyValues expected = shadow_;
      const DbCounters db_before = DbCounters::Read(db.get());
      const EnvCounters env_before = EnvCounters::Read(env);
      gets.emplace_back();
      writes.emplace_back();
      scans.emplace_back();
      const uint64_t failed_before = out.failed;
      const uint64_t ops =
          Serve(db.get(), rep, &expected, &gets.back(), &writes.back(),
                &scans.back(), &out.failed, &rates);
      out.attempted += ops + out.failed - failed_before;
      in.user_ops += ops;
      in.user_writes += kUpdates;
      in.db.Add(DbCounters::Read(db.get()).Minus(db_before));
      const EnvCounters env_after = EnvCounters::Read(env);
      in.env.bytes_synced += env_after.bytes_synced - env_before.bytes_synced;
      in.env.syncs += env_after.syncs - env_before.syncs;

      const DbCounters before = DbCounters::Read(db.get());
      const int64_t t0 = NowNs();
      check().ExpectOk(ReorganizeByPasses(db.get()),
                       "restart: finishing the reorganization");
      const double reorg_s = SecondsSince(t0);
      in.AddReorg(db.get(), before, reorg_s);
      hostclock::Sample(hostclock::kAround);
      const double scale = hostclock::Scale(rep_start, NowNs());
      restarts.push_back(restart_s * scale);
      reorgs.push_back(reorg_s * scale);
      rates.back() /= scale;
      for (std::vector<Samples>* kind : {&gets, &writes, &scans}) {
        ScaleSamples(&kind->back(), scale);
      }

      if (plant_corruption_) {
        db->Update(expected.keys[0], NextValue(NextValue(expected.values[0])));
      }
      ExpectTreeEquals(db.get(), expected, "restart after the reorganization");
      space.push_back(SpaceAmp(db.get(), expected.Bytes()));
      check().ExpectOk(db->tree()->ComputeStats(&in.shape), "ComputeStats");
    }
    in.user_write_bytes = in.user_writes * (8 + 64);
    in.restart_s = Mean(restarts);

    out.e2e.Set("ops_per_s", Median(rates), "ops/s");
    SetOpLatencies(&gets, &writes, &scans, &out.e2e);
    out.e2e.Set("reorg_s", Mean(reorgs), "s");
    out.e2e.Set("space_amp", Median(space), "ratio");
    out.e2e.Set("restart_s", in.restart_s, "s");
    out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
    FillLayerMetrics(in, traced ? CollectTrace() : TraceData(), &out.layer);
    std::fprintf(stderr, "restart: %zu repetitions\n", restarts.size());
    return out;
  }

 private:
  /// Builds the crashed image with the crash at WAL write `crash_point`;
  /// false when that point left no reorganization unit open.
  bool BuildImage(int crash_point) {
    MemEnv env;
    soreorg::CrashInjector injector(&env);
    std::unique_ptr<Database> db;
    check().ExpectOk(Database::Open(&env, Options(), &db), "open");
    soreorg::AgingOptions aging;
    aging.n = kAgedRecords;
    aging.seed = seed_;
    aging.random_delete_frac = kRandomDeleteFrac;
    check().ExpectOk(soreorg::AgeDatabase(db.get(), aging), "age database");
    check().ExpectOk(db->Checkpoint(), "checkpoint");
    shadow_ = ScanAll(db.get());
    const size_t n = shadow_.keys.size();

    // Committed burst over every key but the losers' (the highest ones).
    const size_t loser_region = kLosers * kLoserStride;
    soreorg::ZipfianGenerator zipf(n - loser_region, 0.99, seed_ * 13 + 5);
    for (uint64_t i = 0; i < kBurstUpdates; ++i) {
      const size_t k = zipf.NextScrambled();
      const std::string next = NextValue(shadow_.values[k]);
      check().ExpectOk(db->Update(shadow_.keys[k], next), "burst update");
      shadow_.values[k] = next;
    }
    // Losers: updates that never commit. The commits after them make their
    // records durable, so recovery must undo them.
    std::vector<soreorg::TxnId> losers;
    for (int l = 0; l < kLosers; ++l) {
      soreorg::Transaction* txn = db->Begin();
      losers.push_back(txn->id());
      for (int w = 0; w < kLoserWrites; ++w) {
        const size_t k = n - 1 - static_cast<size_t>(l) * kLoserStride -
                         static_cast<size_t>(w);
        check().ExpectOk(db->tree()->Update(txn, shadow_.keys[k],
                                            std::string(64, 'L')),
                         "loser update");
      }
    }
    for (size_t k = 0; k < 16; ++k) {
      const std::string next = NextValue(shadow_.values[k]);
      check().ExpectOk(db->Update(shadow_.keys[k], next), "flush update");
      shadow_.values[k] = next;
    }

    // Pass 1 crashed mid-unit: a tiny group-commit buffer makes WAL writes
    // land between the records of one unit. The pass ignores the failed
    // writes and runs on until it blocks on a loser's leaf; once the crash
    // has fired nothing more becomes durable, so dropping the losers' locks
    // in memory leaves the image as it is and lets the pass end. A pass
    // that blocks before the crash fired would move a loser's records: that
    // attempt is discarded.
    soreorg::LockManager* locks = db->lock_manager();
    bool blocked_before_crash = false;
    locks->SetEventHook([&](soreorg::LockEvent e, soreorg::TxnId txn,
                            const soreorg::LockName&, soreorg::LockMode) {
      if (e != soreorg::LockEvent::kWait || txn != soreorg::kReorgTxnId) return;
      blocked_before_crash |= !injector.fired();
      for (soreorg::TxnId loser : losers) locks->ReleaseAll(loser);
    });
    db->log_manager()->set_buffer_limit(256);
    injector.ArmAfterOps(crash_point, "soreorg.wal");
    db->reorganizer()->RunLeafPass();
    const bool fired = injector.fired();
    injector.Disarm();
    locks->SetEventHook(nullptr);
    db.reset();
    env.Crash();
    if (!fired || blocked_before_crash) return false;
    image_ = CaptureImage(&env);

    MemEnv probe;
    RestoreImage(image_, &probe);
    std::unique_ptr<Database> reopened;
    check().ExpectOk(Database::Open(&probe, Options(), &reopened),
                     "restart probe open");
    return reopened &&
           !reopened->recovery_result().incomplete_unit_records.empty();
  }

  /// The fixed verification load on the recovered database; returns the
  /// ops that succeeded.
  uint64_t Serve(Database* db, uint64_t rep, KeyValues* expected,
                 Samples* gets, Samples* writes, Samples* scans,
                 uint64_t* failed, std::vector<double>* rates) {
    const size_t n = expected->keys.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    soreorg::Random rng(seed_ * 97 + rep);
    for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
    soreorg::ZipfianGenerator zipf(n, 0.99, seed_ * 31 + rep);

    uint64_t ops = 0;
    const int64_t start = NowNs();
    std::string value;
    for (size_t i : order) {
      hostclock::Tick();
      Timed op(SpanKind::kGet);
      Status s = db->Get(expected->keys[i], &value);
      if (!OpSucceeded(s, "restart: Get", failed)) continue;
      gets->push_back(static_cast<uint32_t>(op.End()));
      ++ops;
      if (value != expected->values[i]) {
        check().Fail("restart: a key does not hold its last committed value "
                     "(lost update or surviving loser write)");
      }
    }
    for (uint64_t j = 0; j < kScans; ++j) {
      hostclock::Tick();
      const size_t i = zipf.NextScrambled();
      const size_t last = std::min(i + kScanLen - 1, n - 1);
      size_t next = i;
      bool ok = true;
      Timed op(SpanKind::kScan);
      Status s = db->Scan(expected->keys[i], expected->keys[last],
                          [&](const Slice& k, const Slice& v) {
                            ok = ok && next <= last &&
                                 k == Slice(expected->keys[next]) &&
                                 v == Slice(expected->values[next]);
                            ++next;
                            return ok;
                          });
      if (!OpSucceeded(s, "restart: Scan", failed)) continue;
      scans->push_back(static_cast<uint32_t>(op.End()));
      ++ops;
      if (!ok || next != last + 1) {
        check().Fail("restart: Scan differs from the shadow map");
      }
    }
    for (uint64_t j = 0; j < kUpdates; ++j) {
      hostclock::Tick();
      const size_t i = zipf.NextScrambled();
      const std::string next = NextValue(expected->values[i]);
      Timed op(SpanKind::kWrite);
      Status s = db->Update(expected->keys[i], next);
      if (!OpSucceeded(s, "restart: Update", failed)) continue;
      writes->push_back(static_cast<uint32_t>(op.End()));
      ++ops;
      expected->values[i] = next;
    }
    rates->push_back(static_cast<double>(ops) / SecondsSince(start));
    return ops;
  }

  const uint64_t seed_;
  Image image_;
  KeyValues shadow_;
};

}  // namespace

std::unique_ptr<Workload> MakeRestart(uint64_t seed) {
  return std::make_unique<Restart>(seed);
}

}  // namespace perfbench
