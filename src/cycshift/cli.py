"""Command line interface.

Commands: psymbol, class, neighbors, component, diameter, path, scan, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import verify
from .handles import HANDLES, handle
from .paths import check_path
from .shiftgraph import component, diameter, distance, diameter_scan, evaluation_graph, export, neighbors
from .words import (
    DEFAULT_MAX_CLASS,
    DEFAULT_MAX_TOTAL,
    LimitExceededError,
    check_total,
    evaluation,
    format_word,
    parse_word,
)


def _count(text: str) -> int:
    """A non-negative int option; argparse reports a refusal as a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _rank_of(args, word) -> int:
    if args.rank is not None:
        return args.rank
    return max(word, default=0)


def _query(args):
    """The handle, the word and its rank of a one-word command; the handle is read first."""
    h = handle(args.monoid)
    word = parse_word(args.word)
    return h, word, _rank_of(args, word)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_psymbol(args) -> int:
    h = handle(args.monoid)
    word = parse_word(args.word)
    if args.max_total is not None:
        check_total(evaluation(word, max(word, default=0)), args.max_total)
    # only the counterexample's object is enumerated (its class's closure), up to the default bound
    el = h.element(word, args.max_total) if h.name == "counterexample" else h.element(word)
    if args.format == "json":
        payload = {"monoid": h.name, "key": h.key(el), "object": h.to_json(el)}
        _emit(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(args, f"key: {h.key(el)}\n{h.draw(el)}")
    return 0


def cmd_class(args) -> int:
    h, word, rank = _query(args)
    members = sorted(h.class_of(word, rank, args.max_total))
    if len(members) > args.max_class:
        raise LimitExceededError(
            f"class has {len(members)} members, over the --max-class bound {args.max_class}"
        )
    _emit(args, "\n".join(format_word(w) for w in members))
    return 0


def cmd_neighbors(args) -> int:
    h, word, rank = _query(args)
    keys = neighbors(h, word, rank, args.max_total)
    _emit(args, "\n".join(sorted(keys)))
    return 0


def cmd_component(args) -> int:
    h, word, rank = _query(args)
    g = component(h, word, rank, args.max_total)
    if args.format == "text":
        lines = [f"{len(g.vertices)} vertices, {g.edge_count} edges, diameter {diameter(g)}"]
        lines.extend(g.vertices)
        _emit(args, "\n".join(lines))
    else:
        _emit(args, export(g, args.format))
    return 0


def cmd_diameter(args) -> int:
    h, word, rank = _query(args)
    g = component(h, word, rank, args.max_total)
    _emit(args, str(diameter(g)))
    return 0


def cmd_path(args) -> int:
    h = handle(args.monoid)
    w1, w2 = parse_word(args.word1), parse_word(args.word2)
    rank = max(_rank_of(args, w1), _rank_of(args, w2))
    if sorted(w1) != sorted(w2):
        raise ValueError("the two words must share an evaluation")
    g = evaluation_graph(h, evaluation(w1, rank), args.max_total)
    k1, k2 = h.key_of(w1), h.key_of(w2)
    lines = []
    if h.shift_path is not None:
        path = h.shift_path(h.element(w1), h.element(w2))
        try:
            check_path(h, path, k1, k2, g)
        except ValueError as exc:
            # the builder's own output is wrong: an internal error, not a usage one
            raise AssertionError(f"constructive path rejected: {exc}") from exc
        lines.append(f"constructive path: {path.steps} steps")
        for uv, vu in path.step_words():
            lines.append(f"  {format_word(uv)} ~ {format_word(vu)}")
    else:
        lines.append("constructive path: not available for this monoid (shortest paths only)")
    lines.append(f"shortest path: {distance(g, k1, k2)} steps")
    _emit(args, "\n".join(lines))
    return 0


def cmd_scan(args) -> int:
    h = handle(args.monoid)
    report = diameter_scan(
        h, args.rank, args.max_total, distinct_up_to_relabeling=args.distinct
    )
    _emit(args, report.render())
    return 0


def cmd_verify(args) -> int:
    numbers = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    ok = verify.run(numbers)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycshift",
        description="plactic-like monoids and their cyclic shift graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, word_args=("--word",), enumerates=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--monoid", required=True, choices=sorted(HANDLES))
        for wa in word_args:
            p.add_argument(wa, required=True)
        if enumerates:
            p.add_argument("--rank", type=int, default=None)
            p.add_argument("--max-total", type=_count, default=DEFAULT_MAX_TOTAL, dest="max_total")
        p.add_argument("--out", default=None)
        return p

    psymbol = command("psymbol", cmd_psymbol, "print the canonical key and a drawing", enumerates=False)
    psymbol.add_argument("--format", choices=("text", "json"), default="text")
    psymbol.add_argument("--max-total", type=_count, default=None, dest="max_total")
    cls = command("class", cmd_class, "list every word of the congruence class")
    cls.add_argument("--max-class", type=_count, default=DEFAULT_MAX_CLASS, dest="max_class")
    command("neighbors", cmd_neighbors, "canonical keys one shift away")
    comp = command("component", cmd_component, "the connected component of the class")
    comp.add_argument("--format", choices=("text", "dot", "json"), default="text")
    command("diameter", cmd_diameter, "diameter of the component")
    command("path", cmd_path, "constructive and shortest paths", ("--word1", "--word2"))

    scan = command("scan", cmd_scan, "per-evaluation component census", (), enumerates=False)
    scan.add_argument("--rank", type=int, required=True)
    scan.add_argument("--max-total", type=_count, default=DEFAULT_MAX_TOTAL, dest="max_total")
    scan.add_argument("--distinct", action="store_true",
                      help="one evaluation per count multiset (relabeling symmetry)")

    ver = sub.add_parser("verify", help="run the acceptance suite")
    ver.set_defaults(func=cmd_verify)
    ver.add_argument("--criteria", default=None, help="comma separated subset, e.g. 1,3,7")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
