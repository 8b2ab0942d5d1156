"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records run.py appends (one JSON object per run).  For
every workload, every end-to-end metric (untraced runs) and every per-layer
metric (traced runs) is shown as median [first quartile, third quartile]
over that side's runs, with the change of the medians.  An end-to-end metric
whose median got worse by more than its bound in BENCHMARK.json is marked.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import ROOT, unit_of


def load(path: str) -> dict:
    """(workload, section) -> metric -> values, one value per run."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("smoke"):
                continue
            section = "per_layer" if rec["trace"] else "end_to_end"
            for name, value in rec[section].items():
                out[rec["workload"], section][name].append(value)
    return out


def summary(values: list[float]) -> str:
    if not values:
        return "-"
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for key in sorted(set(base) | set(new)):
        workload, section = key
        a, b = base.get(key, {}), new.get(key, {})
        runs_a = max((len(v) for v in a.values()), default=0)
        runs_b = max((len(v) for v in b.values()), default=0)
        print(f"{workload} {section}  (base {runs_a} runs, new {runs_b} runs)")
        for name in sorted(set(a) | set(b)):
            va, vb = a.get(name, []), b.get(name, [])
            change, mark = "", ""
            if va and vb and statistics.median(va):
                rel = statistics.median(vb) / statistics.median(va) - 1
                change = f"{rel:+.1%}"
                if name in bounds:
                    bound, better = bounds[name]
                    worse = rel if better == "lower" else -rel
                    mark = "  WORSE THAN BOUND" if worse > bound else ""
            print(
                f"  {name:<30} {summary(va):>36}  {summary(vb):>36} {unit_of(name):<6} {change:>8}{mark}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
