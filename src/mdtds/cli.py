"""Command line front end.

Subcommands: ``ball`` (enumerate words), ``orbit`` (orbit values over a
ball), ``cesaro`` (ball-average scan), ``fixed`` / ``periodic`` (set-level
and pointwise verdicts), ``paper`` (the named reproduction suite), ``info``
(active kernel backend).

Exit codes: 0 success (also when the reader closes stdout early), 1 usage
error (also an ``--output`` path that cannot be written), 2 node cap
exceeded, 3 domain or exactness violation.  Data goes to stdout (or
``--output``), diagnostics to stderr.  Tables are written by
:func:`mdtds.scalars.csv_text`.  ``paper`` refuses any
option its item does not read.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
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
from .errors import EvaluationError, MdtdsError, ResourceLimitError
from .scalars import csv_text, format_scalar, parse_rational
from .subgroups import parse_subgroup
from .words import DEFAULT_NODE_CAP, Word, _walk, alphabet, check_ball_cap

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


def _scalar(text: str, exact: bool):
    """A number from the command line: rational text, or a float if not exact."""
    if exact:
        return parse_rational(text)
    try:
        return float(text)
    except ValueError as exc:
        raise _UsageError(f"not a number: {text!r}") from exc


def _scalars(text: str, exact: bool = True) -> list:
    return [_scalar(part, exact) for part in text.split(",")]


def _build_family(args) -> MapFamily:
    if args.model == "identity":
        return identity_family(args.s or 1)
    if args.model == "bank":
        if not args.q:
            raise _UsageError("--model bank needs --q rates")
        return bank_mod.BankFamily(_scalars(args.q))
    if not args.theta:
        raise _UsageError("--model circle needs --theta angles")
    text = args.theta.removesuffix(":approx")
    exact = text == args.theta
    return circle_mod.CircleFamily(_scalars(text, exact), exact=exact)


def _parse_point(args, family: MapFamily):
    if args.x is None:
        raise _UsageError("this command needs --x")
    return _scalar(args.x, family.exact)


def _emit(args, text: str) -> None:
    end = "" if text.endswith("\n") else "\n"
    if args.output in (None, "-"):
        print(text, end=end)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as stream:
            print(text, end=end, file=stream)
    except OSError as exc:
        raise _UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _fields(record, *names) -> dict:
    """The named attributes of a verdict record as JSON values: words as text,
    rationals and floats as ``format_scalar`` text, the rest as they are."""
    out = {}
    for name in names:
        value = getattr(record, name)
        if isinstance(value, Word):
            value = str(value)
        elif isinstance(value, (Fraction, float)):
            value = format_scalar(value)
        out[name] = value
    return out


def _verdict_dict(verdict) -> dict:
    if isinstance(verdict, VerifiedUpTo):
        return {"type": "verified_up_to", **_fields(verdict, "depth_t", "depth_r")}
    return {"type": "counterexample", **_fields(verdict, "t", "r", "lhs", "rhs")}


def cmd_ball(args) -> int:
    radius, n_gens, cap = args.n, args.s, args.node_cap
    check_ball_cap(radius, n_gens, cap)
    letter_texts = {letter: str(letter) for letter in alphabet(n_gens)}
    walk = _walk(n_gens, radius, cap)
    # preorder (see words._walk): a word's parent is the last word listed
    # one level up, whose text ``texts[depth - 1]`` holds
    texts = [str(next(walk)[0])] * (radius + 1)
    rows = [["word", "length", "parent", "letter"], [texts[0], 0, "", ""]]
    for word, letter in walk:
        depth = word.length
        text = texts[depth] = str(word)
        rows.append([text, depth, texts[depth - 1], letter_texts[letter]])
    if args.format == "json":
        payload = [{"word": r[0], "length": r[1], "parent": r[2] or None,
                    "letter": r[3] or None} for r in rows[1:]]
        _emit(args, json.dumps(payload, indent=2))
    else:
        _emit(args, csv_text(rows))
    print(f"{len(rows) - 1} words", file=sys.stderr)
    return EXIT_OK


def cmd_orbit(args) -> int:
    family = _build_family(args)
    x = _parse_point(args, family)
    ball = orbit_ball(family, x, args.n, node_cap=args.node_cap)
    rows = [["word", "value"]] + [[str(word), format_scalar(value)]
                                  for word, value in ball.items()]
    _emit(args, csv_text(rows))
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
        out["set"] = _fields(circle_mod.fixed_set(family),
                             "kind", "witness_index", "certified")
    elif args.model == "bank" and args.subgroup is None and args.x is None:
        # every rate exceeds 1, so no positive deposit is fixed by any map
        out["set"] = {"kind": "empty", "reason": "all rates exceed 1"}
    elif args.subgroup is not None:
        x = _parse_point(args, family)
        spec = parse_subgroup(args.subgroup, family.n_gens)
        verdict = is_h_fixed(family, spec, x, args.depth, node_cap=args.node_cap)
        out.update(point=format_scalar(x), subgroup=str(spec),
                   verdict=_verdict_dict(verdict))
    else:
        x = _parse_point(args, family)
        out["point"] = format_scalar(x)
        out["residual"] = format_scalar(fixed_point_residual(family, x))
        out["fixed"] = is_fixed(family, x)
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_periodic(args) -> int:
    family = _build_family(args)
    spec = parse_subgroup(args.subgroup, family.n_gens)
    out: dict = {"model": args.model, "subgroup": str(spec)}
    if args.x is not None:
        x = _parse_point(args, family)
        verdict = is_h_periodic(family, spec, x, args.depth_t, args.depth_r,
                                node_cap=args.node_cap)
        out.update(point=format_scalar(x), verdict=_verdict_dict(verdict))
    elif args.model == "bank":
        result = bank_mod.classify_periodicity(family.rates, spec, args.depth,
                                               node_cap=args.node_cap)
        out["set"] = _fields(result, "kind", "witness", "multiplier", "depth")
    elif args.model == "circle":
        verdict = circle_mod.periodic_set(family, spec, args.depth,
                                          node_cap=args.node_cap)
        # the circle record's search depth is left out of its JSON
        out["set"] = _fields(verdict, "kind", "witness", "rotation",
                             "certified", "note")
    else:
        raise _UsageError("set-level classification needs --model bank or circle")
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def _degree(text: str) -> int:
    """An integer degree; the sign study itself refuses one that is odd or
    below 4 (``cesaro._check_even_q``)."""
    try:
        return int(text)
    except ValueError as exc:
        raise _UsageError(f"bad degree {text!r}") from exc


# option -> (runner keyword, parser) for each paper item; the rest read none
_PAPER_OPTIONS = {
    "ex3.9": {"q": ("q", _degree), "nmax": ("n_max", int)},
    **{f"prop5.{i}": {"q": ("rates", _scalars)} for i in range(1, 5)},
    **{f"thm6.{i}": {"theta": ("angles", _scalars)} for i in range(1, 4)},
}


def cmd_paper(args) -> int:
    reads = _PAPER_OPTIONS.get(args.item, {})
    kwargs = {}
    for option in ("q", "theta", "nmax"):
        text = getattr(args, option)
        if text is not None:
            if option not in reads:
                raise _UsageError(f"paper --item {args.item} does not read --{option}")
            keyword, parse = reads[option]
            kwargs[keyword] = parse(text)
    items = repro.run_all() if args.item == "all" \
        else [repro.run_item(args.item, **kwargs)]
    _emit(args, "\n".join(item.render() for item in items))
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
                     help="refuse work beyond this many nodes, steps, "
                          "states or letters")
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
    p.add_argument("--q", help="degree for ex3.9, rates for prop5.1-prop5.4")
    p.add_argument("--theta", help="angles for thm6.1-thm6.3")
    p.add_argument("--nmax", type=_POSITIVE, help="largest radius for ex3.9")
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
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``mdtds paper | head -1``): stop
        # quietly, with fd 1 on devnull so the final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except MdtdsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ResourceLimitError):
            return EXIT_RESOURCE
        return EXIT_DOMAIN if isinstance(exc, EvaluationError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
