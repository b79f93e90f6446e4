#!/usr/bin/env python3
"""Self-check of the benchmark's gates: planted faults must be caught.

    python3 perfbench/selfcheck.py [--seconds 6] [--seeds 3]

Run from the root of a source checkout. Every fault is planted only through
the engine's public hooks, with no change to src/:

  corrupt     one value is rewritten behind the checker's back before the
              final verification; every workload must exit non-zero and
              print "correct": false.
  fetch_spin  a spin inside the BufferPool fetch hook (every page fetch pays
              it). get_p50_us must get worse by more than its bound on
              read_heavy, and on restart, whose post-restart load fetches
              pages too; restart_s on restart must not.
  rx_delay    a sleep in the lock-event hook whenever the reorganizer is
              granted RX, which lengthens every RX hold. Some end-to-end
              metric of rmw_reorg must get worse by more than its bound, and
              reorg_s on restart must; restart_s on restart must not.

The hooks can only be installed on an open Database, so no plant reaches
Database::Open: the restart_s check cannot be failed by the plant itself. It
shows that restart_s's run-to-run noise stays inside its bound in a run in
which the same plant does flag the metrics it reaches.

A metric is flagged when the median over --seeds planted runs is worse than
the median over the same seeds unplanted by more than the bound in
BENCHMARK.json. Prints one line per (plant, workload, metric) and exits 1 if
an expectation fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, plant=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if plant:
        cmd += ["--plant", plant]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result


def medians(workload, seeds, seconds, plant=None):
    values = {}
    for seed in seeds:
        rc, result = run(workload, seed, seconds, plant)
        if rc != 0 or result is None or not result["correct"]:
            raise SystemExit("%s %s seed %d failed (rc %d)" %
                             (workload, plant or "baseline", seed, rc))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def flagged(base, planted, metric):
    """True when `planted` is worse than `base` by more than the bound."""
    worse = (planted - base) / base if metric["better"] == "lower" \
        else (base - planted) / base
    return worse > metric["bound"], worse


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=6)
    p.add_argument("--seeds", type=int, default=3)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    failures = []

    for workload in ("read_heavy", "rmw_reorg", "restart"):
        rc, result = run(workload, 1, 2, "corrupt")
        caught = rc != 0 and result is not None and result["correct"] is False
        print("corrupt     %-10s %s" % (workload, "caught" if caught else "MISSED"))
        if not caught:
            failures.append("corrupt on " + workload)

    base = {w: medians(w, seeds, args.seconds)
            for w in ("read_heavy", "rmw_reorg", "restart")}
    plants = {
        "fetch_spin": {"read_heavy": ["get_p50_us"], "restart": ["get_p50_us"]},
        "rx_delay": {"rmw_reorg": None, "restart": ["reorg_s"]},
    }
    for plant, expect in plants.items():
        for workload, must_flag in expect.items():
            planted = medians(workload, seeds, args.seconds, plant)
            flags = set()
            for name, metric in metrics.items():
                if name == "setup_s":
                    continue
                hit, worse = flagged(base[workload][name], planted[name], metric)
                if hit:
                    flags.add(name)
                print("%-11s %-10s %-13s base %11.5g planted %11.5g  %+7.1f%%%s" %
                      (plant, workload, name, base[workload][name],
                       planted[name], 100 * worse, "  FLAGGED" if hit else ""))
            if must_flag is None and not flags:
                failures.append("%s not caught on %s" % (plant, workload))
            for name in must_flag or []:
                if name not in flags:
                    failures.append("%s did not flag %s on %s" %
                                    (plant, name, workload))
            if workload == "restart" and "restart_s" in flags:
                failures.append("%s flagged restart_s on restart" % plant)

    for f in failures:
        print("SELF-CHECK FAILED: " + f)
    print("self-check %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
