"""Compare two result sets, or fold one into perfbench/baseline.json.

    python3 perfbench/report.py compare PARENT_DIR CHANGE_DIR
    python3 perfbench/report.py baseline RESULTS_DIR

A result set is a directory of records written by perfbench/run.py
(`<workload>-seed<N>-trace<T>.json`).  `compare` pairs the --trace 0 records
of both sides by workload and seed and prints, per workload and end-to-end
metric, each side's median and quartiles, the pairs won, and a verdict:

  improved    the change wins at least 9/10 of the pairs and its median is
              better than the parent's by more than the parent's IQR
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run
  unchanged   otherwise

Run the two sides alternately (parent, change, parent, ...) with the same
seeds and --seconds.  `baseline` writes the per-workload medians, quartiles
and sample counts, the traced per-layer table of the default seed, and the
default seed's reference observables.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"
WIN_SHARE = 0.9


def load(directory: Path, trace: int) -> dict:
    """{(workload, seed): record} for one trace mode."""
    out = {}
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["seed"])] = record
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """(verdict, wins) for paired values of one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    if wins >= WIN_SHARE * len(parent) and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_dir: Path, change_dir: Path) -> int:
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    worst = 0
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        print(f"{workload}  ({len(seeds)} pairs, seeds {seeds})")
        for metric in metrics:
            name = metric["name"]
            p = [parent[(workload, s)]["end_to_end"][name]["value"] for s in seeds]
            c = [change[(workload, s)]["end_to_end"][name]["value"] for s in seeds]
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {name:12s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {metric['unit']}"
                  f"  won {wins}/{len(seeds)}  {result}")
            worst = max(worst, result == "worse")
    return 1 if worst else 0


def baseline(results_dir: Path) -> int:
    spec = json.loads(SPEC.read_text())
    runs, traced = load(results_dir, 0), load(results_dir, 1)
    sys.path.insert(0, str(HERE))
    from run import DEFAULT_SEED

    for record in [*runs.values(), *traced.values()]:
        # the default seed's reference check fails until this file exists
        blocking = [f for f in record["failures"] if "baseline.json" not in f]
        if blocking:
            print(f"{record['workload']} seed {record['seed']} failed: {blocking}", file=sys.stderr)
            return 1
    out = {"default_seed": DEFAULT_SEED, "end_to_end": {}, "per_layer": {}, "reference": {}}
    for workload in sorted({w for w, _ in runs}):
        records = [r for (w, _), r in sorted(runs.items()) if w == workload]
        entry = {"runs": len(records), "seeds": [r["seed"] for r in records],
                 "samples_per_run": [len(r["samples"]["wall_s"]) for r in records],
                 "seconds": records[0]["seconds"]}
        for metric in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["end_to_end"][metric["name"]]["value"] for r in records])
            entry[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
        entry["drift_max"] = {k: max(r["drift"].get(k, 0.0) for r in records)
                              for k in sorted({k for r in records for k in r["drift"]})}
        out["end_to_end"][workload] = entry
        out["environment"] = records[0]["environment"]
        default = runs.get((workload, DEFAULT_SEED))
        if default is not None:
            out["reference"][workload] = default["final_observables"]
    for (workload, seed), record in sorted(traced.items()):
        if seed == DEFAULT_SEED:
            out["per_layer"][workload] = {k: v["value"] for k, v in record["per_layer"].items()}
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and argv[0] == "baseline":
        return baseline(Path(argv[1]))
    print(__doc__.split("\n\n")[0], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
