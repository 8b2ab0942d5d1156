"""Benchmark command for cycshift.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads: census, deep, paths, queries (workloads.py says what each
measures and why).  Every repetition runs in a fresh interpreter
(perfbench/child.py), one at a time: a closed loop with one client and no
threads.  Repetitions start until ``--seconds`` would be exceeded (at least
three, or two in a traced run), all on the same seeded inputs.  The first
repetition, and every traced one, checks each output against its reference;
the others must give outputs with the same digests, and an op whose output
differs counts as failed.

End-to-end metrics (``--trace 0``):

- setup_s: interpreter start, imports and seeded input generation, timed
  from outside up to the child's ``ready`` line; the median over the
  repetitions;
- op_ms_p50, op_ms_p90: each op's fastest latency over the repetitions, then
  the 50th and 90th percentiles over the ops (the sample count is printed);
- run_s: the timed section (every op, one after another), as the sum of
  those fastest latencies;
- peak_rss_mb: ru_maxrss of the child that ran the workload, the median;
- fail_ratio (printed, and in ``failed``/``attempted``): ops that raised or
  failed their check, over ops attempted;
- path_steps_per_pair (printed on paths): mean constructive path length.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (spans.py), plus the tracing overhead
(traced minus untraced run_s).  Human-readable lines come first; the last
line of stdout is the JSON result.  The full record, with every per-layer
metric, the per-repetition numbers and the environment, is appended to
``--out`` (default .bench_results/results.jsonl), and the spans of the last
traced repetition go beside it.  perfbench/compare.py compares two such
files.

Exit codes: 0 with a result (even one with failed ops), 1 when a repetition
could not run, 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "deep", "paths", "queries")
#: set order decides BFS order in the engine, so every child gets the same one
HASH_SEED = "0"
#: never start a repetition that could end later than this (the run must end in 180 s)
HARD_STOP_S = 140.0

UNITS = {
    "setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
    "fail_ratio": "ratio", "path_steps_per_pair": "steps", "trace.overhead_s": "s",
    "paths.check_ms": "ms",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_per_class", "_per_answer", "_stretch", "class_size")):
        return "ratio"
    return "count"


def probe_ms() -> float:
    """A fixed pure-Python loop: shows a slow machine beside the numbers, never rescales them."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {
        "seed": args.seed,
        "python_hash_seed": HASH_SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "probe_ms": probe_ms(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CYCSHIFT_MAX_TOTAL", None)
    env.pop("CYCSHIFT_MAX_CLASS", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def repetition(args, traced: bool, check: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; time its set-up from outside."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if check:
        cmd.append("--check")
    if traced:
        cmd += ["--spans", str(args.out.parent / f"spans-{args.workload}-seed{args.seed}.json")]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - perf_counter(), 1.0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline)
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("repetition overran the run's time limit")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"repetition failed with exit code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record.update(setup_s=setup_s, wall_s=perf_counter() - t0, traced=traced)
    return record


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def end_to_end(reps: list[dict]) -> dict:
    """Each op's fastest repetition, then run_s as their sum and p50/p90 over the ops.

    On a shared two-vCPU Xeon host the same op's time swings by up to 1.5x
    within seconds, and a disturbance only ever adds time: an op's fastest
    repetition is its cost on an undisturbed machine, and the fresh
    interpreters make every repetition the same cold-cache work.
    """
    per_op = [min(col) for col in zip(*(r["op_ms"] for r in reps))]
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["errors"]) for r in reps)
    metrics = {
        "setup_s": median_of(reps, lambda r: r["setup_s"]),
        "run_s": sum(per_op) / 1e3,
        "op_ms_p50": statistics.median(per_op),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": median_of(reps, lambda r: r["rss_mb"]),
        "fail_ratio": failed / attempted,
    }
    facts = reps[0]["facts"]
    if "pairs" in facts:
        metrics["path_steps_per_pair"] = facts["steps"] / facts["pairs"]
    return metrics


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    # median_low keeps counts whole; they are the same in every traced repetition anyway
    layers = {name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    facts = traced[0]["facts"]
    pairs = facts.get("pairs", 0)
    layers["path_steps_per_pair"] = facts["steps"] / pairs if pairs else 0.0
    layers["paths.check_ms"] = (
        median_of(traced, lambda r: r["check_s"]) * 1e3 / pairs if pairs else 0.0
    )
    for name, module in (("hypo", "hypoplactic"), ("sylv", "sylvester"), ("taig", "taiga"), ("stal", "stalactic")):
        dist = facts.get(f"{name}.distance", 0)
        layers[f"{module}.path_stretch"] = facts.get(f"{name}.steps", 0) / dist if dist else 0.0
    layers["trace.overhead_s"] = median_of(traced, lambda r: r["run_s"]) - median_of(plain, lambda r: r["run_s"])
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_results" / "results.jsonl")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, two repetitions")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cycshift" / "__init__.py").is_file():
        print(f"error: no cycshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    env = environment(args)

    start = perf_counter()
    deadline = start + HARD_STOP_S + 30
    # smoke: two repetitions, so an unchecked one is compared with the checked one
    min_reps = 2 if args.smoke or args.trace else 3
    reps: list[dict] = []
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(repetition(args, traced, not reps or traced, deadline))
            elapsed = perf_counter() - start
            last = reps[-1]["wall_s"]
            enough = len(reps) >= min_reps and (args.smoke or elapsed + last > args.seconds)
            if enough or elapsed + last > HARD_STOP_S:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the first repetition (and every traced one) checked its outputs; the others must match it
    for r in reps[1:]:
        for label, ref, got in zip(r["labels"], reps[0]["digests"], r["digests"]):
            if ref is not None and got is not None and got != ref:
                r["errors"][label] = "output differs from the checked repetition's"

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    e2e = end_to_end(plain)
    ops = plain[0]["attempted"]
    layers = per_layer(traced, plain) if traced else {}
    errors = {k: v for r in reps for k, v in r["errors"].items()}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["errors"]) for r in reps)

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced repetitions in {perf_counter() - start:.1f} s, "
        f"each in a fresh interpreter (PYTHONHASHSEED={HASH_SEED}); "
        f"{ops} ops per repetition; probe {env['probe_ms']:.2f} ms"
    )
    print(f"  inputs: {json.dumps(reps[0]['sizes'])}")
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {unit_of(name)}")
    print(f"  op latency samples: {ops} ops, each the fastest of its {len(plain)} repetitions")
    for name, value in sorted(layers.items()):
        print(f"  layer {name:<30} {value:>14.6g} {unit_of(name)}")
    for label, msg in list(errors.items())[:10]:
        print(f"  FAILED {label}: {msg}")

    section = "per_layer" if args.trace else "end_to_end"
    source = layers if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in spec[section]},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "inputs": reps[0]["sizes"],
        "end_to_end": e2e,
        "per_layer": layers,
        "ops_per_repetition": ops,
        "facts": reps[0]["facts"],
        "errors": errors,
        "repetitions": [
            {k: r[k] for k in ("traced", "setup_s", "run_s", "rss_mb", "check_s", "wall_s")} for r in reps
        ],
    }
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
