"""Named reproduction checks for the published closed forms and examples.

Each item re-derives one known result with exact arithmetic and reports
pass/fail plus the numbers involved.  Items are addressed by the short ids
used by the ``paper`` CLI subcommand (ex3.9, ex4.4, prop5.1 .. prop5.4,
thm6.1 .. thm6.3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from . import bank as bank_mod
from . import cesaro as cesaro_mod
from . import circle as circle_mod
from .engine import (Counterexample, VerifiedUpTo, affine_and_square_family,
                     evaluate, is_fixed, is_h_fixed, is_h_periodic)
from .scalars import format_scalar
from .subgroups import (Balanced, CyclicSubgroup, EvenCount,
                        parse_subgroup, subgroup_ball)
from .words import DEFAULT_NODE_CAP, Word


@dataclass
class ReportItem:
    item: str
    title: str
    passed: bool
    lines: list = field(default_factory=list)

    def render(self) -> str:
        head = f"{'PASS' if self.passed else 'FAIL'} [{self.item}] {self.title}"
        return "\n".join([head] + [f"  {line}" for line in self.lines])


def _check(item: ReportItem, ok: bool, text: str) -> bool:
    item.lines.append(("ok  " if ok else "BAD ") + text)
    if not ok:
        item.passed = False
    return ok


def run_sign_study(q: int = 4, n_max: int = 12) -> ReportItem:
    """Alternating-sign ball sums: closed form vs traversal, and the
    non-convergent mean whose even/odd subsequences have opposite limits."""
    if n_max < 1:  # the odd tail needs radius 1 and the gap two means
        raise ValueError("n_max must be >= 1")
    item = ReportItem("ex3.9", "alternating-sign ball averages", True)
    even_limit, odd_limit = cesaro_mod.sign_limits(q)
    # every radius's traversal sum is a prefix sum of one walk's spheres
    spheres = cesaro_mod._sign_sphere_sums(n_max, q, DEFAULT_NODE_CAP)
    for n, brute in enumerate(accumulate(spheres)):
        closed = cesaro_mod.sign_ball_sum(n, q)
        _check(item, closed == brute,
               f"n={n}: traversal sum {brute} vs closed form {closed}")
    means = [cesaro_mod.sign_cesaro(n, q) for n in range(n_max + 1)]
    item.lines.append("n, C_n: " + ", ".join(
        f"({n}, {format_scalar(c)})" for n, c in enumerate(means)))
    n_even = n_max if n_max % 2 == 0 else n_max - 1
    n_odd = n_max if n_max % 2 == 1 else n_max - 1

    def tail_tol(n):
        # |C_n -+ (q-2)/q| = 2(q-2) / (q (q(q-1)^n - 2)), well under 1e-5
        # from radius 12 on; smaller radii get the radius-dependent bound
        return min(Fraction(1, 10 ** 5) if n >= 12 else Fraction(1),
                   Fraction(4, (q - 1) ** n))

    _check(item, abs(means[n_even] - even_limit) < tail_tol(n_even),
           f"even tail {format_scalar(means[n_even])} near "
           f"{format_scalar(even_limit)}")
    _check(item, abs(means[n_odd] - odd_limit) < tail_tol(n_odd),
           f"odd tail {format_scalar(means[n_odd])} near "
           f"{format_scalar(odd_limit)}")
    gap = abs(means[-1] - means[-2])
    _check(item, gap > Fraction(9, 10),
           f"successive means stay {format_scalar(gap)} apart: no limit")
    return item


def run_affine_square_example() -> ReportItem:
    """The two-map interval example: fixed set of the cyclic sub-dynamics is
    {1/3, 1} but only 1 survives as a periodic point."""
    item = ReportItem("ex4.4", "affine/square interval maps", True)
    family = affine_and_square_family()
    u = Word.parse("s1 s2", 2)
    spec = CyclicSubgroup(u)
    third, one, ninth = Fraction(1, 3), Fraction(1), Fraction(1, 9)
    _check(item, is_fixed(family, one) and not is_fixed(family, third),
           "common fixed point of both maps: 1 only")
    for x, expect in ((third, True), (one, True), (ninth, False)):
        verdict = is_h_fixed(family, spec, x, 6)
        _check(item, verdict.verified == expect,
               f"x={format_scalar(x)} fixed for the cyclic sub-dynamics: "
               f"{verdict.verified}")
    v_one = is_h_periodic(family, spec, one, 4, 4)
    _check(item, isinstance(v_one, VerifiedUpTo), "x=1 periodic up to depths (4,4)")
    v_third = is_h_periodic(family, spec, third, 4, 4)
    ok = isinstance(v_third, Counterexample)
    _check(item, ok, "x=1/3 rejected as periodic")
    if ok:
        item.lines.append(
            f"  counterexample: t={v_third.t}, r={v_third.r}, "
            f"{format_scalar(v_third.lhs)} != {format_scalar(v_third.rhs)}")
    t, rt = Word.parse("s1^2", 2), u * Word.parse("s1^2", 2)
    lhs, rhs = evaluate(family, t, third), evaluate(family, rt, third)
    _check(item, lhs == Fraction(5, 8) and rhs != lhs,
           f"direct pair t=s1^2, r=s1 s2: {format_scalar(lhs)} vs {format_scalar(rhs)}")
    return item


def run_bank_multiplier_criterion(rates: Sequence = (2, 3)) -> ReportItem:
    """Deposits are H-periodic iff every member's multiplier is 1."""
    item = ReportItem("prop5.1", "growth-model periodicity criterion", True)
    u = Word.parse("s1 s2 s1^-1 s2^-1", len(rates))
    _check(item, bank_mod.word_multiplier(rates, u) == 1,
           f"balanced word {u} has multiplier 1")
    w = Word.parse("s1", len(rates))
    mult = bank_mod.word_multiplier(rates, w)
    _check(item, mult != 1, f"witness {w} has multiplier {format_scalar(mult)}")
    x = Fraction(7, 5)
    _check(item, bank_mod.evaluate_closed_form(rates, w, x) != x,
           "a multiplier != 1 moves every deposit")
    return item


def run_bank_generator_emptiness(rates: Sequence = (2, 3)) -> ReportItem:
    """A generator inside H forces the periodic set empty."""
    item = ReportItem("prop5.2", "generator in subgroup kills periodicity", True)
    spec = CyclicSubgroup(Word.parse("s1", len(rates)))
    result = bank_mod.classify_periodicity(rates, spec, 3)
    _check(item, result.kind == "empty", f"cyclic over s1: {result.kind}")
    if result.witness is not None:
        item.lines.append(
            f"  witness {result.witness} multiplier {format_scalar(result.multiplier)}")
    return item


def run_bank_balanced_fullness(rates: Sequence = (2, 3)) -> ReportItem:
    """Balanced subgroups leave every deposit periodic; the even-count
    subgroup shows the converse of the generator test fails."""
    item = ReportItem("prop5.3", "balanced subgroups are fully periodic", True)
    n = len(rates)
    balanced = Balanced.all_generators(n)
    result = bank_mod.classify_periodicity(rates, balanced, 3)
    _check(item, result.kind == "all_positive_reals",
           f"fully balanced subgroup: {result.kind}")
    mults = [bank_mod.word_multiplier(rates, w)
             for w in subgroup_ball(balanced, 5)]
    _check(item, all(m == 1 for m in mults),
           f"all {len(mults)} members within radius 5 have multiplier 1")
    even = EvenCount(n, frozenset(range(1, n + 1)))
    _check(item, not even.meta().generators, "even-count subgroup contains no generator")
    result = bank_mod.classify_periodicity(rates, even, 3)
    _check(item, result.kind == "empty" and result.witness is not None,
           f"yet its periodic set is empty (witness {result.witness}, "
           f"multiplier {format_scalar(result.multiplier)})")
    return item


def run_bank_trichotomy(rates: Sequence = (2, 3), x=Fraction(1),
                        max_radius: int = 6) -> ReportItem:
    """Limit trichotomy of the product formula, and the formula-vs-ball
    discrepancy table."""
    item = ReportItem("prop5.4", "ball-average trichotomy and ball sums", True)
    rates_f = tuple(Fraction(r) for r in rates)
    tri = bank_mod.cesaro_limit(rates_f)
    item.lines.append(f"rates {tuple(map(format_scalar, rates_f))}: "
                      f"product-formula limit is {tri.kind}"
                      + (f" with coefficient {format_scalar(tri.coefficient)}"
                         if tri.coefficient is not None else ""))
    cases = [((Fraction(3, 2), Fraction(2)), "finite", Fraction(3)),
             ((Fraction(11, 10), Fraction(11, 10)), "zero", None),
             ((Fraction(2), Fraction(3)), "infinite", None)]
    for case_rates, kind, coeff in cases:
        got = bank_mod.cesaro_limit(case_rates)
        ok = got.kind == kind and (coeff is None or got.coefficient == coeff)
        _check(item, ok, f"rates {tuple(map(format_scalar, case_rates))} -> {got.kind}"
               + (f", coefficient {format_scalar(got.coefficient)}"
                  if got.coefficient is not None else ""))
    box = _box_sum_oracle(rates_f, x, max_radius)
    mismatch = False
    for n, brute, formula, equal in bank_mod.discrepancy_table(rates_f, x, max_radius):
        _check(item, formula == box[n],
               f"n={n}: product formula {format_scalar(formula)} equals box sum")
        item.lines.append(
            f"  n={n}: ball sum {format_scalar(brute)} vs formula "
            f"{format_scalar(formula)}{'' if equal else '  (differ)'}")
        if n >= 1 and not equal:
            mismatch = True
    _check(item, mismatch,
           "the product formula does not equal the true ball sum for n >= 1")
    return item


def _box_sum_oracle(rates, x, max_radius):
    """x * prod_i sum_{e=-n..n} q_i^e, computed directly."""
    out = []
    for n in range(max_radius + 1):
        total = Fraction(x)
        for r in rates:
            total *= sum(Fraction(r) ** e for e in range(-n, n + 1))
        out.append(total)
    return out


def run_circle_fixed_set(angles: Sequence = (Fraction(1, 2), Fraction(1))) -> ReportItem:
    """Rotation fixed set: everything for integer angles, nothing otherwise.

    The expected verdict is read off the given angles, not through the
    function under test.
    """
    item = ReportItem("thm6.1", "rotation fixed set", True)
    fam_full = circle_mod.CircleFamily((Fraction(1), Fraction(2)))
    _check(item, circle_mod.fixed_set(fam_full).kind == "full",
           "integer angles fix the whole circle")
    verdict = circle_mod.fixed_set(circle_mod.CircleFamily(angles))
    witness = next((i for i, angle in enumerate(angles, start=1)
                    if Fraction(angle).denominator != 1), None)
    if witness is None:
        _check(item, verdict.kind == "full" and verdict.witness_index is None,
               f"the given integer angles fix the whole circle: {verdict.kind}")
    else:
        _check(item, verdict.kind == "empty" and verdict.witness_index == witness,
               f"non-integer angle (index {verdict.witness_index}) empties "
               f"the fixed set")
    residual = max(abs(circle_mod.evaluate_closed_form(fam_full,
                                                       Word.parse(f"s{i}", 2), x) - x)
                   for i in (1, 2) for x in (Fraction(0), Fraction(1, 3)))
    _check(item, residual == 0, "cross-check: one-step residuals vanish")
    return item


def run_circle_periodic_set(
        angles: Sequence = (Fraction(1, 2), Fraction(1, 3))) -> ReportItem:
    """H-periodic rotation points: all-or-nothing by integrality of rotations.

    ``cyclic:s1^e`` is full iff e * theta_1 is an integer and ``bal:`` is
    always full; the expectations come from the angles, not the library.
    """
    item = ReportItem("thm6.2", "rotation periodic sets", True)
    family = circle_mod.CircleFamily(angles)
    n = len(angles)

    def kind(e):
        return "full" if (e * Fraction(angles[0])).denominator == 1 else "empty"

    cases = [("cyclic:s1^2", kind(2)), ("cyclic:s1", kind(1)), ("bal:", "full")]
    for text, expect in cases:
        verdict = circle_mod.periodic_set(family, parse_subgroup(text, n), 4)
        _check(item, verdict.kind == expect, f"{text}: {verdict.kind}"
               + (f" (witness {verdict.witness}, rotation "
                  f"{format_scalar(verdict.rotation)})"
                  if verdict.witness is not None else ""))
    return item


def run_circle_constructed_subgroup(
        angles: Sequence = (Fraction(1, 2), Fraction(1, 3))) -> ReportItem:
    """A rational angle yields a cyclic subgroup with full periodic set.

    The generator is s1^m with m the denominator of theta_1.
    """
    item = ReportItem("thm6.3", "constructed periodic subgroup", True)
    family = circle_mod.CircleFamily(angles)
    spec = circle_mod.rational_period_subgroup(family, 1)
    m = Fraction(angles[0]).denominator
    _check(item, spec.generator_word.runs == ((1, m),),
           f"angle {format_scalar(family.angles[0])} gives generator "
           f"{spec.generator_word}")
    verdict = circle_mod.periodic_set(family, spec, 4)
    _check(item, verdict.kind == "full", f"its periodic set: {verdict.kind}")
    rot = circle_mod.rotation_of(family, spec.generator_word)
    _check(item, Fraction(rot).denominator == 1,
           f"generator rotation {format_scalar(rot)} is an integer")
    return item


_RUNNERS: dict = {
    "ex3.9": run_sign_study,
    "ex4.4": run_affine_square_example,
    "prop5.1": run_bank_multiplier_criterion,
    "prop5.2": run_bank_generator_emptiness,
    "prop5.3": run_bank_balanced_fullness,
    "prop5.4": run_bank_trichotomy,
    "thm6.1": run_circle_fixed_set,
    "thm6.2": run_circle_periodic_set,
    "thm6.3": run_circle_constructed_subgroup,
}

ITEM_IDS = tuple(_RUNNERS)


def run_item(item_id: str, **kwargs) -> ReportItem:
    if item_id not in _RUNNERS:
        raise KeyError(f"unknown item {item_id!r}; known: {', '.join(ITEM_IDS)}")
    return _RUNNERS[item_id](**kwargs)


def run_all() -> list:
    return [run_item(item_id) for item_id in ITEM_IDS]
