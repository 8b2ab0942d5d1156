"""One repetition of one workload, in a fresh interpreter started by run.py.

Protocol on stdout: the line ``ready`` once imports and inputs are done
(run.py times set-up up to it), then one JSON record after the timed section
and the checks.  Every op's exception or failed check is recorded, never
raised.  With ``--check`` every output is checked against its reference;
without it only each output's digest is reported, and run.py compares it
with the digest of the checked repetition.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cycshift import handles  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Hooks  # noqa: E402


def layer_metrics(t: spans.Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, before any check ran."""

    def per_call(name: str, scale: float) -> float:
        return t.total[name] / t.calls[name] * scale if t.calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    key_calls = sum(n for name, n in t.calls.items() if name.endswith(".key"))
    out = {
        "words.enum_s": t.self_time["words.enum"],
        "words.count": t.counts["words.enum.items"],
        "handles.key_calls": key_calls,
        "handles.key_calls_per_class": ratio(key_calls, t.counts["shiftgraph.classes"]),
        "shiftgraph.build_s": t.self_time["shiftgraph.evaluation_graph"],
        "shiftgraph.components_s": t.self_time["shiftgraph.components"],
        "shiftgraph.classes": t.counts["shiftgraph.classes"],
        "shiftgraph.edges": t.counts["shiftgraph.edges"],
        "shiftgraph.diameter_s": t.self_time["shiftgraph.diameter"],
        "shiftgraph.bfs_sources": t.counts["bfs.shiftgraph.diameter"],
        "shiftgraph.distance_s": t.self_time["shiftgraph.distance"],
        "shiftgraph.keys_per_answer": ratio(
            t.counts["shiftgraph.answer_keys"], t.counts["shiftgraph.answer_vertices"]
        ),
        "rewrite.close_ms": per_call("rewrite.close", 1e3),
        "rewrite.close_calls": t.calls["rewrite.close"],
        "rewrite.class_size": ratio(t.counts["rewrite.class_members"], t.calls["rewrite.close"]),
    }
    for module in ("plactic", "hypoplactic", "sylvester", "stalactic", "taiga", "baxter"):
        out[module + ".key_us"] = per_call(module + ".key", 1e6)
    for module in ("hypoplactic", "sylvester", "taiga", "stalactic"):
        out[module + ".path_ms"] = per_call(module + ".shift_path", 1e3)
    return out


def canonical(obj: object) -> object:
    """A form of an op's output whose repr depends only on its value, not on ids or set order."""
    if isinstance(obj, (set, frozenset)):
        return ("set",) + tuple(sorted(repr(canonical(x)) for x in obj))
    if isinstance(obj, (list, tuple)):
        return tuple(canonical(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return (type(obj).__name__,) + tuple(canonical(getattr(obj, f.name)) for f in fields)
    slots = getattr(type(obj), "__slots__", ())
    if slots:
        return (type(obj).__name__,) + tuple(canonical(getattr(obj, s)) for s in slots)
    return obj


def digest(obj: object) -> str:
    return hashlib.blake2b(repr(canonical(obj)).encode(), digest_size=8).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true", help="check every output against its reference")
    parser.add_argument("--spans", default=None, help="trace, and write the spans to this file")
    args = parser.parse_args()

    tracer = None
    hooks = Hooks(handles.handle)
    if args.spans:
        tracer = spans.Tracer()
        spans.install(tracer)
        hooks = Hooks(lambda name: tracer.handle(handles.handle(name)), tracer.wrap)
    ops, sizes = WORKLOADS[args.workload](args.seed, args.smoke, hooks)
    runs = [hooks.wrap("op." + args.workload, op.run) for op in ops]
    print("ready", flush=True)

    outputs: list[object] = []
    errors: dict[int, str] = {}
    op_ms = []
    start = perf_counter()
    for i, run in enumerate(runs):
        t0 = perf_counter()
        try:
            outputs.append(run())
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs.append(None)
            errors[i] = f"raised {exc!r}"
        op_ms.append((perf_counter() - t0) * 1e3)
    run_s = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = layer_metrics(tracer) if tracer else None
    timed_spans = len(tracer.spans) if tracer else 0

    facts: Counter[str] = Counter()
    t0 = perf_counter()
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if i in errors or not args.check:
            continue
        try:
            err, found = op.check(out)
        except Exception as exc:
            err, found = f"check raised {exc!r}", {}
        facts.update(found)
        if err:
            errors[i] = err
    check_s = perf_counter() - t0

    if tracer:
        tracer.spans = tracer.spans[:timed_spans]
        tracer.write(args.spans)
    print(json.dumps({
        "run_s": run_s,
        "op_ms": op_ms,
        "rss_mb": rss_mb,
        "check_s": check_s,
        "attempted": len(ops),
        "errors": {ops[i].label + f" #{i}": msg for i, msg in sorted(errors.items())},
        "digests": [None if i in errors else digest(out) for i, out in enumerate(outputs)],
        "labels": [op.label + f" #{i}" for i, op in enumerate(ops)],
        "facts": dict(facts),
        "sizes": sizes,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
