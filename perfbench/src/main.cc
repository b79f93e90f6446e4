// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload read_heavy|rmw_reorg|restart --seed N --seconds S
//             --trace 0|1 [--rev REV] [--spans PATH] [--plant KIND]
//
// It builds the workload's inputs from the seed three times (the median is
// setup_s), measures for about S seconds, checks every output, and prints a
// run-context line, a line with the host's speed during the measurement
// (every time metric is reported at a reference speed; see hostclock in
// bench.h) and, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the workload is measured twice for
// S/2 each, untraced and then traced, and the metrics are the per-layer ones
// from the traced phase plus the tracing overhead. A correctness violation prints
// "correct": false and exits 1. See perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

constexpr int kSetupRepetitions = 3;

// Planted slowdowns for the self-check (perfbench/selfcheck.py).
constexpr int64_t kPlantFetchSpinNs = 500;
constexpr int64_t kPlantRxDelayNs = 100000;

bool ParseArgs(int argc, char** argv, Args* args, std::string* rev,
               std::string* spans_path) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--plant") {
      args->plant = value;
    } else if (flag == "--rev") {
      *rev = value;
    } else if (flag == "--spans") {
      *spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  const bool plant_ok = args->plant.empty() || args->plant == "fetch_spin" ||
                        args->plant == "rx_delay" || args->plant == "corrupt";
  return !args->workload.empty() && args->seconds > 0 && plant_ok;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "read_heavy") return MakeReadHeavy(seed);
  if (name == "rmw_reorg") return MakeRmwReorg(seed);
  if (name == "restart") return MakeRestart(seed);
  return nullptr;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics.all()) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), v, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  std::string rev = "unknown";
  std::string spans_path;
  if (!ParseArgs(argc, argv, &args, &rev, &spans_path)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read_heavy|rmw_reorg|restart "
                 "--seed N --seconds S --trace 0|1 [--rev REV] "
                 "[--spans PATH] [--plant fetch_spin|rx_delay|corrupt]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  ProbeConfig plants;
  if (args.plant == "fetch_spin") plants.fetch_spin_ns = kPlantFetchSpinNs;
  if (args.plant == "rx_delay") plants.rx_delay_ns = kPlantRxDelayNs;
  if (args.plant == "corrupt") workload->PlantCorruption();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    const int64_t start = NowNs();
    hostclock::Sample(hostclock::kAround);
    const int64_t t0 = NowNs();
    workload->Setup();
    const double seconds = SecondsSince(t0);
    hostclock::Sample(hostclock::kAround);
    setup_s.push_back(seconds * hostclock::Scale(start, NowNs()));
  }

  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"plant\": \"%s\", \"nproc\": %u, \"rev\": \"%s\", "
      "\"build_type\": \"%s\", \"env\": \"MemEnv\", \"flush_policy\": "
      "\"every commit forces the WAL through group commit; a MemEnv sync "
      "copies the file in memory\", \"wal_segment_kib\": %llu, "
      "\"sizes\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.plant.c_str(),
      std::thread::hardware_concurrency(), rev.c_str(), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(kWalSegmentBytes >> 10),
      workload->Describe().c_str());
  std::fflush(stdout);

  // A traced run splits its time between an untraced and a traced phase,
  // so it takes no longer than an untraced one.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  SetProbeConfig(plants);
  PhaseResult result = workload->Measure(phase_s);
  Metrics metrics = result.e2e;
  uint64_t attempted = result.attempted;
  uint64_t failed = result.failed;
  if (args.trace) {
    ProbeConfig traced = plants;
    traced.trace = true;
    ClearTrace();
    SetProbeConfig(traced);
    PhaseResult t = workload->Measure(phase_s);
    SetProbeConfig(plants);
    metrics = t.layer;
    metrics.Set("trace.overhead_ops_per_s",
                t.e2e.Get("ops_per_s") - result.e2e.Get("ops_per_s"), "ops/s");
    metrics.Set("trace.overhead_restart_s",
                t.e2e.Get("restart_s") - result.e2e.Get("restart_s"), "s");
    attempted += t.attempted;
    failed += t.failed;
    if (!spans_path.empty()) {
      WriteSpans(spans_path, CollectTrace().spans, 200000);
    }
  } else {
    metrics.Set("setup_s", Median(setup_s), "s");
  }

  // How fast the host ran the reference kernel in the (last) phase: every
  // time metric above was brought from this speed to the reference one.
  size_t clock_samples = 0;
  const double kernel_ns = hostclock::MedianKernelNs(&clock_samples);
  if (args.trace) metrics.Set("host.kernel_ns", kernel_ns, "ns");
  std::printf("host {\"kernel_ns\": %.1f, \"reference_ns\": %.1f, "
              "\"samples\": %zu}\n",
              kernel_ns, hostclock::kReferenceNs, clock_samples);

  const bool correct = check().ok();
  PrintResult(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
