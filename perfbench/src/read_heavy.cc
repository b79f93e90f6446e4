// read_heavy: three closed-loop clients on the plain Database API over a
// dense tree that fits in the buffer pool; no reorganization runs during the
// window. Mix: 90% Get, 5% Update, 5% Scan of at most 50 keys.
//
// It loads the optimistic descent, the pool's hit path and the iterator
// batches, with several threads sharing one pool and one lock table.
// Values are self-validating (they encode their key id and a version), so
// every Get and Scan result is checked although three writers race.
//
// After the window the tree is checkpointed, a fixed burst of updates is
// applied, and the process "crashes"; restart_s times Database::Open on
// that image and reorg_s times a quiesced reorganization of the recovered
// (already dense) tree — the reorganizer's cost when it finds little to do.
//
// peak_rss_mb is read when the window starts: during the window MemEnv keeps
// every WAL byte the writers append (it stands in for the disk), so a later
// reading would grow with write throughput rather than with engine memory.

#include <atomic>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/sim/workload.h"
#include "src/util/coding.h"

namespace perfbench {
namespace {

using soreorg::DecodeU64Key;
using soreorg::EncodeU64Key;

constexpr uint64_t kRecords = 60000;
constexpr size_t kValueSize = 64;
constexpr size_t kPoolPages = 4096;
constexpr int kClients = 3;
constexpr uint64_t kGetPermille = 900;
constexpr uint64_t kUpdatePermille = 50;  // the rest are scans
constexpr uint64_t kScanLen = 50;
constexpr uint64_t kBurstUpdates = 6000;
constexpr int kRestartReps = 40;
constexpr int kReorgReps = 5;
constexpr double kIntervalS = 0.5;
// Latency samples kept per client, interval and op kind (a uniform
// reservoir), so sample memory does not grow with throughput.
constexpr size_t kMaxSamples = 16384;

std::string Key(uint64_t id) { return EncodeU64Key(id * 10); }

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// id (8 bytes) | version (8 bytes) | filler derived from both.
std::string MakeValue(uint64_t id, uint64_t version) {
  std::string v = EncodeU64Key(id) + EncodeU64Key(version);
  for (uint64_t w = 0; v.size() < kValueSize; ++w) {
    v += EncodeU64Key(Mix(id * 0x9e3779b97f4a7c15ULL + version * 31 + w));
  }
  v.resize(kValueSize);
  return v;
}

/// True iff `v` is a value MakeValue produced for `id`; sets *version.
bool ValidValue(uint64_t id, const Slice& v, uint64_t* version) {
  if (v.size() != kValueSize) return false;
  if (DecodeU64Key(Slice(v.data(), 8)) != id) return false;
  *version = DecodeU64Key(Slice(v.data() + 8, 8));
  return v == Slice(MakeValue(id, *version));
}

/// A uniform sample of one client's latencies of one op kind, grouped by
/// measurement interval.
struct Reservoir {
  std::vector<Samples> by_interval;
  std::vector<uint64_t> seen;

  void Add(size_t interval, uint32_t ns, soreorg::Random* rng) {
    if (interval >= by_interval.size()) {
      by_interval.resize(interval + 1);
      seen.resize(interval + 1);
    }
    Samples& s = by_interval[interval];
    const uint64_t n = ++seen[interval];
    if (s.size() < kMaxSamples) {
      s.push_back(ns);
    } else if (const uint64_t j = rng->Uniform(n); j < kMaxSamples) {
      s[j] = ns;
    }
  }
};

struct Client {
  Reservoir get, write, scan;
  uint64_t failed = 0;
  uint64_t writes = 0;
  std::atomic<uint64_t> ops{0};  // successful ops
};

class ReadHeavy : public Workload {
 public:
  explicit ReadHeavy(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    MemEnv env;
    std::unique_ptr<Database> db = OpenDb(&env);
    std::vector<std::pair<std::string, std::string>> records;
    records.reserve(kRecords);
    for (uint64_t id = 0; id < kRecords; ++id) {
      records.emplace_back(Key(id), MakeValue(id, 0));
    }
    check().ExpectOk(db->BulkLoad(records, /*leaf_fill=*/0.9), "bulk load");
    tree_pages_ = TreePages(db.get());
    check().Expect(tree_pages_ <= kPoolPages,
                   "read_heavy tree (" + std::to_string(tree_pages_) +
                       " pages) must fit in its pool");
    check().ExpectOk(db->Checkpoint(), "checkpoint");
    env.Crash();
    image_ = CaptureImage(&env);
  }

  std::string Describe() const override {
    return "read_heavy: " + std::to_string(kRecords) + " records, " +
           std::to_string(tree_pages_) + " tree pages, pool " +
           std::to_string(kPoolPages) + " pages, " +
           std::to_string(kClients) + " clients";
  }

  PhaseResult Measure(double seconds) override {
    PhaseResult out;
    LayerInputs in;
    const bool traced = probe_config().trace;
    ClearTrace();
    hostclock::Clear();
    PinThisThread(0);

    MemEnv env;
    RestoreImage(image_, &env);
    std::unique_ptr<Database> db = OpenDb(&env);
    ExpectAllValid(db.get(), "read_heavy warm-up scan");  // warms the pool
    InstallProbes(db.get());
    out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

    const DbCounters db_before = DbCounters::Read(db.get());
    const EnvCounters env_before = EnvCounters::Read(env);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    std::atomic<size_t> interval{0};
    for (int t = 0; t < kClients; ++t) {
      clients.push_back(std::make_unique<Client>());
    }
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([this, &db, &stop, &interval, &clients, t]() {
        RunClient(db.get(), t, &stop, &interval,
                  clients[static_cast<size_t>(t)].get());
      });
    }
    // Throughput and latency percentiles are medians over short intervals,
    // so a brief stall of the machine moves one interval, not the result.
    // Each interval is brought to the reference speed with the clients'
    // own host-clock samples from that interval.
    std::vector<double> rates;
    std::vector<int64_t> bounds = {NowNs()};  // interval i: bounds[i, i+1]
    uint64_t last_ops = 0;
    while (SecondsSince(bounds.front()) < seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kIntervalS));
      interval.fetch_add(1, std::memory_order_relaxed);
      uint64_t ops = 0;
      for (const auto& c : clients) ops += c->ops.load(std::memory_order_relaxed);
      const int64_t now = NowNs();
      rates.push_back(static_cast<double>(ops - last_ops) /
                      (static_cast<double>(now - bounds.back()) * 1e-9));
      last_ops = ops;
      bounds.push_back(now);
    }
    stop.store(true);
    for (auto& th : threads) th.join();
    std::vector<double> scales;
    for (size_t i = 0; i < rates.size(); ++i) {
      scales.push_back(hostclock::Scale(bounds[i], bounds[i + 1]));
      rates[i] /= scales[i];
    }

    in.db = DbCounters::Read(db.get()).Minus(db_before);
    const EnvCounters env_after = EnvCounters::Read(env);
    in.env = {env_after.bytes_synced - env_before.bytes_synced,
              env_after.syncs - env_before.syncs};
    // Pool the clients' samples per completed interval.
    std::vector<Samples> gets(rates.size()), writes(rates.size()),
        scans(rates.size());
    for (const auto& c : clients) {
      in.user_ops += c->ops.load();
      in.user_writes += c->writes;
      out.failed += c->failed;
      for (size_t i = 0; i < rates.size(); ++i) {
        for (auto [from, to] : {std::pair{&c->get, &gets}, std::pair{&c->write, &writes},
                                std::pair{&c->scan, &scans}}) {
          if (i < from->by_interval.size()) {
            const Samples& part = from->by_interval[i];
            (*to)[i].insert((*to)[i].end(), part.begin(), part.end());
          }
        }
      }
    }
    for (size_t i = 0; i < rates.size(); ++i) {
      for (std::vector<Samples>* kind : {&gets, &writes, &scans}) {
        ScaleSamples(&(*kind)[i], scales[i]);
      }
    }
    out.attempted = in.user_ops + out.failed;
    in.user_write_bytes = in.user_writes * (8 + kValueSize);

    if (plant_corruption_) {
      db->Update(Key(kRecords / 2), std::string(kValueSize, 'x'));
    }
    ExpectAllValid(db.get(), "read_heavy after the window");
    check().ExpectOk(db->tree()->ComputeStats(&in.shape), "ComputeStats");
    out.e2e.Set("ops_per_s", Median(rates), "ops/s");
    SetOpLatencies(&gets, &writes, &scans, &out.e2e);
    out.e2e.Set("space_amp", SpaceAmp(db.get(), kRecords * (8 + kValueSize)),
                "ratio");

    // A fixed amount of post-checkpoint work, then a crash.
    check().ExpectOk(db->Checkpoint(), "checkpoint");
    std::vector<uint64_t> burst_version(kRecords, 0);
    soreorg::ZipfianGenerator zipf(kRecords, 0.99, seed_ * 7 + 3);
    for (uint64_t i = 1; i <= kBurstUpdates; ++i) {
      const uint64_t id = zipf.NextScrambled();
      const uint64_t version = (uint64_t{0xff} << 48) | i;
      check().ExpectOk(db->Update(Key(id), MakeValue(id, version)),
                       "burst update");
      burst_version[id] = version;
    }
    env.Crash();
    const Image crashed = CaptureImage(&env);
    db.reset();

    std::vector<double> restarts, reorgs;
    for (int rep = 0; rep < kRestartReps; ++rep) {
      MemEnv renv;
      RestoreImage(crashed, &renv);
      if (traced) TimeRawWalScan(crashed, "soreorg.wal");
      const int64_t rep_start = NowNs();
      hostclock::Sample(hostclock::kAround);
      std::unique_ptr<Database> rdb;
      double restart_s = 0;
      {
        Timed t(SpanKind::kOpen);
        rdb = OpenDb(&renv);
        restart_s = static_cast<double>(t.End()) * 1e-9;
      }
      in.recovery = rdb->recovery_result();
      InstallProbes(rdb.get());
      for (uint64_t id = 0; id < kRecords; ++id) {
        if (burst_version[id] == 0) continue;
        hostclock::Tick();
        std::string v;
        uint64_t version = 0;
        check().Expect(rdb->Get(Key(id), &v).ok() &&
                           ValidValue(id, v, &version) &&
                           version == burst_version[id],
                       "acknowledged burst update lost by restart");
      }
      const bool reorganize = rep < kReorgReps;
      const DbCounters before = DbCounters::Read(rdb.get());
      double reorg_s = 0;
      if (reorganize) {
        const int64_t t0 = NowNs();
        check().ExpectOk(ReorganizeByPasses(rdb.get()), "reorganize");
        reorg_s = SecondsSince(t0);
      }
      hostclock::Sample(hostclock::kAround);
      const double scale = hostclock::Scale(rep_start, NowNs());
      restarts.push_back(restart_s * scale);
      if (reorganize) {
        reorgs.push_back(reorg_s * scale);
        in.AddReorg(rdb.get(), before, reorg_s);
        ExpectAllValid(rdb.get(), "read_heavy after restart + reorganize");
      }
    }
    in.restart_s = Mean(restarts);
    out.e2e.Set("reorg_s", Mean(reorgs), "s");
    out.e2e.Set("restart_s", in.restart_s, "s");
    FillLayerMetrics(in, traced ? CollectTrace() : TraceData(), &out.layer);
    return out;
  }

 private:
  static std::unique_ptr<Database> OpenDb(MemEnv* env) {
    soreorg::DatabaseOptions opts;
    opts.buffer_pool_pages = kPoolPages;
    opts.wal_segment_bytes = kWalSegmentBytes;
    std::unique_ptr<Database> db;
    Status s = Database::Open(env, opts, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    return db;
  }

  /// Consistency, every record present once in order, every value valid.
  static void ExpectAllValid(Database* db, const std::string& where) {
    check().ExpectOk(db->tree()->CheckConsistency(), where + ": consistency");
    uint64_t next = 0;
    bool ok = true;
    check().ExpectOk(db->Scan(Slice(), Slice(),
                              [&](const Slice& k, const Slice& v) {
                                uint64_t version = 0;
                                ok = ok && k == Slice(Key(next)) &&
                                     ValidValue(next, v, &version);
                                ++next;
                                return ok;
                              }),
                     where + ": scan");
    check().Expect(ok && next == kRecords,
                   where + ": bad record near id " + std::to_string(next));
  }

  void RunClient(Database* db, int t, const std::atomic<bool>* stop,
                 const std::atomic<size_t>* interval, Client* c) {
    PinThisThread(1 + t);  // the sampling thread stays on CPU 0
    soreorg::ZipfianGenerator zipf(kRecords, 0.99,
                                   seed_ * 1000003 + static_cast<uint64_t>(t));
    soreorg::Random rng(seed_ * 7919 + static_cast<uint64_t>(t));
    soreorg::Random sampler(seed_ * 104729 + static_cast<uint64_t>(t));
    uint64_t writes = 0;
    std::string value;
    uint64_t ops = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      hostclock::Tick();
      const size_t iv = interval->load(std::memory_order_relaxed);
      const uint64_t id = zipf.NextScrambled();
      const std::string key = Key(id);
      const uint64_t dice = rng.Uniform(1000);
      Reservoir* kind;
      int64_t ns;
      Status s;
      if (dice < kGetPermille) {
        kind = &c->get;
        Timed op(SpanKind::kGet);
        s = db->Get(key, &value);
        ns = op.End();
        uint64_t version = 0;
        if (s.ok() && !ValidValue(id, value, &version)) {
          check().Fail("Get returned a value not written for its key");
        }
      } else if (dice < kGetPermille + kUpdatePermille) {
        kind = &c->write;
        const uint64_t version =
            (static_cast<uint64_t>(t + 1) << 48) | ++writes;
        const std::string v = MakeValue(id, version);
        Timed op(SpanKind::kWrite);
        s = db->Update(key, v);
        ns = op.End();
        if (s.ok()) ++c->writes;
      } else {
        kind = &c->scan;
        const uint64_t last = std::min(id + kScanLen - 1, kRecords - 1);
        uint64_t next = id;
        bool ok = true;
        Timed op(SpanKind::kScan);
        s = db->Scan(key, Key(last), [&](const Slice& k, const Slice& v) {
          uint64_t version = 0;
          ok = ok && next <= last && k == Slice(Key(next)) &&
               ValidValue(next, v, &version);
          ++next;
          return ok;
        });
        ns = op.End();
        if (s.ok() && (!ok || next != last + 1)) {
          check().Fail("Scan returned keys out of order, range or count");
        }
      }
      if (!OpSucceeded(s, "read_heavy: an op", &c->failed)) continue;
      kind->Add(iv, static_cast<uint32_t>(ns), &sampler);
      c->ops.store(++ops, std::memory_order_relaxed);
    }
  }

  const uint64_t seed_;
  Image image_;
  uint64_t tree_pages_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeReadHeavy(uint64_t seed) {
  return std::make_unique<ReadHeavy>(seed);
}

}  // namespace perfbench
