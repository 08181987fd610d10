"""Command line front end.

Subcommands: ``ball`` (enumerate words), ``orbit`` (orbit values over a
ball), ``cesaro`` (ball-average scan), ``fixed`` / ``periodic`` (set-level
and pointwise verdicts), ``paper`` (the named reproduction suite), ``info``
(active kernel backend).

Exit codes: 0 success, 1 usage error, 2 node cap exceeded, 3 domain or
exactness violation.  Data goes to stdout (or ``--output``), diagnostics to
stderr.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from . import bank as bank_mod
from . import circle as circle_mod
from . import repro
from ._kernels import kernel_backend
from .cesaro import cesaro_scan
from .engine import (MapFamily, VerifiedUpTo, fixed_point_residual,
                     identity_family, is_fixed, is_h_fixed, is_h_periodic,
                     orbit_ball)
from .errors import (EvaluationError, MdtdsError, ResourceLimitError,
                     WordSyntaxError)
from .scalars import format_scalar, parse_rational
from .subgroups import parse_subgroup
from .words import DEFAULT_NODE_CAP, alphabet, ball_enumerate, check_ball_cap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(MdtdsError):
    pass


def _int_at_least(minimum: int):
    """argparse type for an integer option with a lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


_NONNEGATIVE = _int_at_least(0)  # radii
_POSITIVE = _int_at_least(1)  # search depths, generator counts and node caps


def _build_family(args) -> MapFamily:
    model = args.model
    if model == "bank":
        if not args.q:
            raise _UsageError("--model bank needs --q rates")
        return bank_mod.BankFamily([parse_rational(p) for p in args.q.split(",")])
    if model == "circle":
        text = args.theta
        if not text:
            raise _UsageError("--model circle needs --theta angles")
        approx = text.endswith(":approx")
        if approx:
            text = text[: -len(":approx")]
        parts = text.split(",")
        if approx:
            try:
                angles = [float(p) for p in parts]
            except ValueError as exc:
                raise _UsageError(f"bad angle list {text!r}") from exc
            return circle_mod.CircleFamily(angles, exact=False)
        return circle_mod.CircleFamily([parse_rational(p) for p in parts])
    if model == "identity":
        return identity_family(args.s or 1)
    raise _UsageError(f"unknown model {model!r}")


def _parse_point(args, family: MapFamily):
    if args.x is None:
        raise _UsageError("this command needs --x")
    if family.exact:
        return parse_rational(args.x)
    try:
        return float(args.x)
    except ValueError as exc:
        raise _UsageError(f"bad point {args.x!r}") from exc


def _open_output(args):
    if args.output in (None, "-"):
        return sys.stdout, False
    return open(args.output, "w", encoding="utf-8"), True


def _emit(args, text: str) -> None:
    stream, close = _open_output(args)
    try:
        stream.write(text)
        if not text.endswith("\n"):
            stream.write("\n")
    finally:
        if close:
            stream.close()


def _verdict_dict(verdict) -> dict:
    if isinstance(verdict, VerifiedUpTo):
        return {"type": "verified_up_to", "depth_t": verdict.depth_t,
                "depth_r": verdict.depth_r}
    return {"type": "counterexample", "t": str(verdict.t), "r": str(verdict.r),
            "lhs": format_scalar(verdict.lhs), "rhs": format_scalar(verdict.rhs)}


def cmd_ball(args) -> int:
    radius, n_gens, cap = args.n, args.s, args.node_cap
    check_ball_cap(radius, n_gens, cap)
    letter_texts = {letter: str(letter) for letter in alphabet(n_gens)}
    nodes = ball_enumerate(radius, n_gens, node_cap=cap)
    # preorder (see ball_enumerate): a word's parent is the last word listed
    # one level up, whose text ``texts[depth - 1]`` holds
    texts = [str(next(nodes).word)] * (radius + 1)
    rows = [["word", "length", "parent", "letter"], [texts[0], 0, "", ""]]
    for word, _, letter in nodes:
        depth = word.length
        text = texts[depth] = str(word)
        rows.append([text, depth, texts[depth - 1], letter_texts[letter]])
    if args.format == "json":
        payload = [{"word": r[0], "length": r[1], "parent": r[2] or None,
                    "letter": r[3] or None} for r in rows[1:]]
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, _csv_text(rows))
    print(f"{len(rows) - 1} words", file=sys.stderr)
    return EXIT_OK


def _csv_text(rows) -> str:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def cmd_orbit(args) -> int:
    family = _build_family(args)
    x = _parse_point(args, family)
    ball = orbit_ball(family, x, args.n, node_cap=args.node_cap)
    rows = [["word", "value"]]
    for word, value in ball.items():
        rows.append([str(word), format_scalar(value)])
    _emit(args, _csv_text(rows))
    return EXIT_OK


def cmd_cesaro(args) -> int:
    family = _build_family(args)
    x = _parse_point(args, family)
    report = cesaro_scan(family, x, args.nmax, threads=args.threads,
                         node_cap=args.node_cap)
    _emit(args, report.to_csv())
    return EXIT_OK


def cmd_fixed(args) -> int:
    family = _build_family(args)
    out: dict = {"model": args.model}
    if args.model == "circle" and args.subgroup is None and args.x is None:
        verdict = circle_mod.fixed_set(family)
        out["set"] = {"kind": verdict.kind, "witness_index": verdict.witness_index,
                      "certified": verdict.certified}
    elif args.model == "bank" and args.subgroup is None and args.x is None:
        # every rate exceeds 1, so no positive deposit is fixed by any map
        out["set"] = {"kind": "empty", "reason": "all rates exceed 1"}
    elif args.subgroup is not None:
        x = _parse_point(args, family)
        spec = parse_subgroup(args.subgroup, family.n_gens)
        verdict = is_h_fixed(family, spec, x, args.depth, node_cap=args.node_cap)
        out["point"] = format_scalar(x)
        out["subgroup"] = str(spec)
        out["verdict"] = _verdict_dict(verdict)
    else:
        x = _parse_point(args, family)
        out["point"] = format_scalar(x)
        out["residual"] = format_scalar(fixed_point_residual(family, x))
        out["fixed"] = is_fixed(family, x)
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_periodic(args) -> int:
    family = _build_family(args)
    spec = parse_subgroup(args.subgroup, family.n_gens) if args.subgroup \
        else None
    if spec is None:
        raise _UsageError("periodic needs --subgroup")
    out: dict = {"model": args.model, "subgroup": str(spec)}
    if args.x is not None:
        x = _parse_point(args, family)
        verdict = is_h_periodic(family, spec, x, args.depth_t, args.depth_r,
                                node_cap=args.node_cap)
        out["point"] = format_scalar(x)
        out["verdict"] = _verdict_dict(verdict)
    elif args.model == "bank":
        result = bank_mod.classify_periodicity(
            [Fraction(r) for r in family.rates], spec, args.depth,
            node_cap=args.node_cap)
        out["set"] = {"kind": result.kind,
                      "witness": None if result.witness is None else str(result.witness),
                      "multiplier": None if result.multiplier is None
                      else format_scalar(result.multiplier),
                      "depth": result.depth}
    elif args.model == "circle":
        verdict = circle_mod.periodic_set(family, spec, args.depth,
                                          node_cap=args.node_cap)
        out["set"] = {"kind": verdict.kind,
                      "witness": None if verdict.witness is None else str(verdict.witness),
                      "rotation": None if verdict.rotation is None
                      else format_scalar(verdict.rotation),
                      "certified": verdict.certified, "note": verdict.note}
    else:
        raise _UsageError("set-level classification needs --model bank or circle")
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_paper(args) -> int:
    kwargs = {}
    if args.item == "ex3.9":
        if args.q:
            try:
                kwargs["q"] = int(args.q)
            except ValueError as exc:
                raise _UsageError(f"bad degree {args.q!r}") from exc
            if kwargs["q"] < 4 or kwargs["q"] % 2:
                raise _UsageError(f"degree must be an even integer >= 4, got {args.q!r}")
        if args.nmax is not None:
            kwargs["n_max"] = args.nmax
    elif args.item in ("prop5.1", "prop5.2", "prop5.3", "prop5.4") and args.q:
        kwargs["rates"] = [parse_rational(p) for p in args.q.split(",")]
    elif args.item in ("thm6.2", "thm6.3") and args.theta:
        kwargs["angles"] = [parse_rational(p) for p in args.theta.split(",")]
    items = repro.run_all() if args.item == "all" \
        else [repro.run_item(args.item, **kwargs)]
    lines = [item.render() for item in items]
    _emit(args, "\n".join(lines))
    failed = [item.item for item in items if not item.passed]
    if failed:
        print(f"failing items: {', '.join(failed)}", file=sys.stderr)
    return EXIT_OK


def cmd_info(args) -> int:
    _emit(args, json.dumps({"version": __version__,
                            "kernel_backend": kernel_backend()}, indent=2))
    return EXIT_OK


def _add_common(sub, *, model=False, point=False, fmt=False):
    sub.add_argument("--node-cap", type=_POSITIVE, default=DEFAULT_NODE_CAP,
                     help="abort traversals beyond this many nodes")
    if fmt:
        # tabular commands emit CSV and verdict commands JSON by design;
        # only the ball listing offers both encodings
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None,
                     help="output path, - for stdout (default)")
    if model:
        sub.add_argument("--model", choices=("bank", "circle", "identity"),
                         required=True)
        sub.add_argument("--q", help="bank rates, e.g. 2,3 or 3/2,2")
        sub.add_argument("--theta",
                         help="circle angles, e.g. 1/2,1/3 or 0.41,0.59:approx")
        sub.add_argument("--s", type=_POSITIVE, help="group size for --model identity")
    if point:
        sub.add_argument("--x", help="base point (rational, or float in approx mode)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mdtds", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ball", help="enumerate a word ball")
    p.add_argument("--s", type=_POSITIVE, required=True, help="number of generators")
    p.add_argument("--n", type=_NONNEGATIVE, required=True, help="ball radius")
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_ball)

    p = subs.add_parser("orbit", help="orbit values over a ball")
    p.add_argument("--n", type=_NONNEGATIVE, required=True, help="ball radius")
    _add_common(p, model=True, point=True)
    p.set_defaults(func=cmd_orbit)

    p = subs.add_parser("cesaro", help="ball-average scan")
    p.add_argument("--nmax", type=_NONNEGATIVE, required=True, help="largest radius")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    _add_common(p, model=True, point=True)
    p.set_defaults(func=cmd_cesaro)

    p = subs.add_parser("fixed", help="fixed-set or fixed-point verdicts")
    p.add_argument("--subgroup", help="subgroup spec text")
    p.add_argument("--depth", type=_POSITIVE, default=4, help="subgroup ball radius")
    _add_common(p, model=True, point=True)
    p.set_defaults(func=cmd_fixed)

    p = subs.add_parser("periodic", help="periodicity verdicts")
    p.add_argument("--subgroup", required=True, help="subgroup spec text")
    p.add_argument("--depth", type=_POSITIVE, default=3,
                   help="search depth for set-level classification")
    p.add_argument("--depth-t", type=_POSITIVE, default=4, dest="depth_t")
    p.add_argument("--depth-r", type=_POSITIVE, default=4, dest="depth_r")
    _add_common(p, model=True, point=True)
    p.set_defaults(func=cmd_periodic)

    p = subs.add_parser("paper", help="run the named reproduction suite")
    p.add_argument("--item", default="all", choices=("all",) + repro.ITEM_IDS)
    p.add_argument("--q", help="rates/degree override where the item takes one")
    p.add_argument("--theta", help="angles override where the item takes one")
    p.add_argument("--nmax", type=_POSITIVE, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_paper)

    p = subs.add_parser("info", help="version and active kernel backend")
    _add_common(p)
    p.set_defaults(func=cmd_info)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built on first use and kept for the process.

    Parsing leaves the parser unchanged, so every call can share it; building
    it costs far more than a parse.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WordSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
