#!/usr/bin/env python3
"""Gate a fresh bench JSON against its committed baseline.

Usage: check_bench_regression.py <fresh.json> <committed.json>

The JSON's "bench" field picks a row of GATES. Raw numbers from a CI runner
are not comparable to the machine that recorded the committed file, so every
relative bound applies to a ratio whose two sides ran back-to-back in one
process, where machine speed divides out:

  bench_read_path         hot_hit/speedup (optimistic over S-lock reads)
                          fails below 0.90x committed, a >10% regression.
                          Any fallback on the resident workload fails: the
                          fast path is not engaging.
  bench_forward_recovery  p6/redo_vs_scan (redo over a bare log scan) fails
                          below 0.75x committed; the ratio jitters 10-15% on
                          --quick volumes. Zero records redone or fewer than
                          2 segments scanned fails: the bench gated nothing.
  ycsb                    <mix>.<P>.tail_stretch (active over quiesced p99)
                          fails above 3x committed, but a stretch of at most
                          2x always passes: CI runners are 1-2 CPUs and a
                          quiesced p99 is a few microseconds. A cell with no
                          committed baseline is only reported. Any op
                          failure in a cell fails.
"""

import json
import re
import sys

YCSB_CELL = r"(read_heavy|rmw|scan)\.p\d+"


def ycsb_tail_stretch(metrics):
    """Add <cell>.tail_stretch = active p99 / quiesced p99 for every cell."""
    for name in list(metrics):
        m = re.fullmatch(f"({YCSB_CELL})\\.active\\.p99_us", name)
        if not m:
            continue
        quiesced = metrics[f"{m[1]}.quiesced.p99_us"]
        if quiesced <= 0:
            raise SystemExit(f"FAIL: nonpositive quiesced p99 in {m[1]}")
        metrics[f"{m[1]}.tail_stretch"] = metrics[name] / quiesced


# Per bench: an optional function deriving ratio metrics, and the checks.
# A check names a metric regex (every fresh match is checked, and at least
# one must exist) and its bounds: floor/ceiling are absolute,
# ratio_floor/ratio_ceiling are multiples of the committed value, always_ok
# passes a value at or below it whatever the ratio ceiling says, and
# baseline_optional lets a metric missing from the committed file skip its
# ratio bound instead of failing.
GATES = {
    "bench_read_path": (None, [
        dict(metric=r"hot_hit/speedup", ratio_floor=0.90),
        dict(metric=r"hot_hit/fallbacks", ceiling=0),
    ]),
    "bench_forward_recovery": (None, [
        dict(metric=r"p6/redo_vs_scan", ratio_floor=0.75),
        dict(metric=r"p6/records_redone", floor=1),
        dict(metric=r"p6/segments_scanned", floor=2),
    ]),
    "ycsb": (ycsb_tail_stretch, [
        dict(metric=YCSB_CELL + r"\.tail_stretch", ratio_ceiling=3.0,
             always_ok=2.0, baseline_optional=True),
        dict(metric=YCSB_CELL + r"\.(quiesced|active)\.failures", ceiling=0),
    ]),
}


def load_metrics(doc, derive):
    metrics = {m["name"]: float(m["value"]) for m in doc["metrics"]}
    if derive:
        derive(metrics)
    return metrics


def check(spec, name, value, committed):
    """Return the failure message for one metric, or None."""
    if "floor" in spec and value < spec["floor"]:
        return f"{name} = {value:g} is below the floor {spec['floor']:g}"
    if "ceiling" in spec and value > spec["ceiling"]:
        return f"{name} = {value:g} is above the ceiling {spec['ceiling']:g}"
    if "ratio_floor" not in spec and "ratio_ceiling" not in spec:
        return None
    if name not in committed:
        if spec.get("baseline_optional"):
            print(f"{name}: fresh={value:.3f} (no committed baseline)")
            return None
        return f"{name} is missing from the committed baseline"
    base = committed[name]
    if "ratio_floor" in spec:
        bound = base * spec["ratio_floor"]
        print(f"{name}: fresh={value:.3f} committed={base:.3f} "
              f"floor={bound:.3f}")
        if value < bound:
            return (f"{name} = {value:.3f} is below {bound:.3f} "
                    f"({spec['ratio_floor']}x committed {base:.3f})")
    if "ratio_ceiling" in spec:
        bound = base * spec["ratio_ceiling"]
        print(f"{name}: fresh={value:.3f} committed={base:.3f} "
              f"ceiling={bound:.3f}")
        if value > bound and value > spec.get("always_ok", float("-inf")):
            return (f"{name} = {value:.3f} is above {bound:.3f} "
                    f"({spec['ratio_ceiling']}x committed {base:.3f})")
    return None


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    docs = []
    for path in sys.argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    bench = docs[0]["bench"]
    if bench not in GATES:
        raise SystemExit(f"FAIL: no gate for bench {bench!r}")
    if docs[1]["bench"] != bench:
        raise SystemExit(f"FAIL: comparing {bench!r} against a "
                         f"{docs[1]['bench']!r} baseline")
    derive, specs = GATES[bench]
    fresh, committed = (load_metrics(doc, derive) for doc in docs)

    failures = []
    for spec in specs:
        names = sorted(n for n in fresh if re.fullmatch(spec["metric"], n))
        if not names:
            failures.append(f"no metric matches {spec['metric']!r}")
        for name in names:
            msg = check(spec, name, fresh[name], committed)
            if msg:
                failures.append(msg)
    if failures:
        raise SystemExit("FAIL:\n  " + "\n  ".join(failures))
    print(f"{bench} gate ok")


if __name__ == "__main__":
    main()
