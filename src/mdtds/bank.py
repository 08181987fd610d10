"""Linear growth-rate model: map i multiplies a positive deposit by q_i > 1.

Everything here is exact rational arithmetic, so periodicity classification
and the limit trichotomy are decisions rather than tolerance checks.  The
orbit value depends only on the exponent totals of the word (the maps
commute), which is what makes the model exactly solvable.

Two ball-sum routines are deliberately kept side by side:

* ``ball_sum_product_formula``: the closed-form product whose factors are
  one-dimensional power sums over the box of exponents;
* ``ball_sum_brute``: the true sum of orbit values over the free-group ball.

They disagree for radius >= 1 (the box ranges over exponent vectors, which
does not biject with ball words), and the package reports both rather than
pretending either away; see ``discrepancy_table``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernels
from .engine import Domain, MapFamily
from .errors import ResourceLimitError, WordSyntaxError
from .subgroups import (CyclicSubgroup, SubgroupSpec,
                        _members, contained_in_fully_balanced)
from .words import DEFAULT_NODE_CAP, Word


def _validate_rates(rates: Sequence) -> tuple:
    out = tuple(Fraction(r) for r in rates)
    if not out:
        raise WordSyntaxError("need at least one rate")
    if any(r <= 1 for r in out):
        raise WordSyntaxError("rates must be > 1")
    return out


class BankFamily(MapFamily):
    """f_i(x) = q_i * x on (0, +inf), with exact rational rates q_i > 1."""

    def __init__(self, rates: Sequence):
        self.rates = _validate_rates(rates)
        super().__init__(len(self.rates), Domain(lower=Fraction(0), lower_open=True))

    def apply(self, x: Fraction, gen: int, power: int) -> Fraction:
        self.apply_calls += 1
        return x * self.rates[gen - 1] ** power

    def _scaled_steps(self) -> tuple:
        """Integer step multipliers for exact sphere sums without Fractions.

        With q_i = n_i/d_i and scale D = prod(n_i d_i), a value at depth k is
        stored as value * D^k: stepping by q_i^(+-1) then multiplies the
        stored integer by n_i^2 * prod_{j!=i}(n_j d_j) or d_i^2 * prod(...).
        """
        scale = math.prod(r.numerator * r.denominator for r in self.rates)
        steps = []
        for r in self.rates:
            base = scale // (r.numerator * r.denominator)
            steps.append(base * r.numerator * r.numerator)
            steps.append(base * r.denominator * r.denominator)
        return scale, tuple(steps)

    def exact_sphere_sums(self, x: Fraction, n_max: int, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> list:
        """Per-sphere orbit sums by recurrence (hook for cesaro_scan).

        The maps commute, so a word's value is x times its letters' rates in
        any order.  With S_d[j] the sum over sphere-d words whose leading
        letter is j and T_d = sum(S_d), prepending j to every word not led by
        its inverse gives S_{d+1}[j] = m_j * (T_d - S_d[j^1]), m_j the rate
        of letter j.  Sums are carried as scaled integers (see
        ``_scaled_steps``) and divided once per sphere.  The work is 2k steps
        per depth plus the root; ResourceLimitError is raised up front when
        it exceeds ``node_cap``.
        """
        scale, steps = self._scaled_steps()
        work = 1 + len(steps) * n_max
        if work > node_cap:
            raise ResourceLimitError(work, node_cap)
        raw = [x.numerator]
        layer = [0] * len(steps)
        for _ in range(n_max):
            total = raw[-1]
            layer = [m * (total - layer[j ^ 1]) for j, m in enumerate(steps)]
            raw.append(sum(layer))
        sums, den = [], x.denominator
        for value in raw:
            sums.append(Fraction(value, den))
            den *= scale
        return sums


def evaluate_closed_form(rates: Sequence, word: Word, x) -> Fraction:
    """Orbit value as x times the product of rates raised to exponent totals.

    Independent of the generic engine evaluation (which folds map
    applications); the two must agree because the maps commute.
    """
    rates = _validate_rates(rates)
    if word.n_gens != len(rates):
        raise WordSyntaxError("word and rate vector sizes differ")
    x = Fraction(x)
    if x <= 0:
        raise WordSyntaxError("deposit must be positive")
    return x * word_multiplier(rates, word)


def word_multiplier(rates: Sequence, word: Word) -> Fraction:
    """The factor a word applies to any deposit: prod q_i^(exponent total).

    A point is H-periodic iff this equals 1 for every member of H, so the
    classification below is a statement about the subgroup, not the point.
    """
    rates = _validate_rates(rates)
    out = Fraction(1)
    for gen, exp in word.runs:
        out *= rates[gen - 1] ** exp
    return out


@dataclass(frozen=True)
class PeriodicityClass:
    """Set-level classification of H-periodic deposits.

    kind is ``all_positive_reals`` (every deposit is H-periodic), ``empty``
    (witness word has multiplier != 1), or ``undecided`` (no witness within
    the searched ball).
    """

    kind: str
    witness: Optional[Word] = None
    multiplier: Optional[Fraction] = None
    depth: Optional[int] = None


def classify_periodicity(rates: Sequence, spec: SubgroupSpec, search_depth: int,
                         *, node_cap: int = DEFAULT_NODE_CAP) -> PeriodicityClass:
    """Decide the H-periodic set for the growth model.

    Order of attack: (a) a generator inside H kills periodicity outright
    (its multiplier is a rate > 1); (b) subgroups of the fully balanced
    subgroup have multiplier 1 everywhere; for a cyclic subgroup the single
    multiplier decides exactly; (c) otherwise scan the subgroup ball for a
    witness.
    """
    rates = _validate_rates(rates)
    if search_depth < 1:
        raise ValueError("search_depth must be >= 1")
    if spec.n_gens != len(rates):
        raise WordSyntaxError("subgroup and rate vector sizes differ")
    meta = spec.meta()
    if meta.has_generator:
        witness = Word.letter(spec.n_gens, meta.generator_witness)
        return PeriodicityClass("empty", witness, word_multiplier(rates, witness))
    if contained_in_fully_balanced(spec):
        return PeriodicityClass("all_positive_reals")
    if isinstance(spec, CyclicSubgroup):
        mult = word_multiplier(rates, spec.generator_word)
        if mult == 1:
            return PeriodicityClass("all_positive_reals")
        return PeriodicityClass("empty", spec.generator_word, mult)
    for member in _members(spec, search_depth, node_cap):
        mult = word_multiplier(rates, member)
        if mult != 1:
            return PeriodicityClass("empty", member, mult)
    return PeriodicityClass("undecided", depth=search_depth)


# -- ball sums and the limit trichotomy ----------------------------------------


def ball_sum_product_formula(rates: Sequence, x, radius: int) -> Fraction:
    """The closed-form product: x * prod_i (q_i^(n+1) - q_i^(-n)) / (q_i - 1).

    Equivalently x times the product over maps of the power sum over
    exponents -n..n (the box sum).
    """
    rates = _validate_rates(rates)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    x = Fraction(x)
    out = x
    for r in rates:
        out *= (r ** (radius + 1) - r ** (-radius)) / (r - 1)
    return out


def ball_sum_brute(rates: Sequence, x, radius: int, *, threads: int = 1,
                   node_cap: int = DEFAULT_NODE_CAP) -> Fraction:
    """True sum of orbit values over the ball, by walking every word.

    An oracle independent of the recurrence behind
    :func:`mdtds.cesaro.cesaro_scan`: the walk multiplies scaled integers
    (see ``BankFamily._scaled_steps``) and divides once per sphere.
    ``threads`` is accepted and has no effect.
    """
    family = BankFamily(rates)
    x = family.coerce_point(x)
    scale, steps = family._scaled_steps()
    raw = _kernels.scan_object(family.n_gens, radius,
                               lambda value, letter: value * steps[letter],
                               x.numerator, node_cap=node_cap)
    den = x.denominator
    return sum((Fraction(raw[k], den * scale ** k) for k in range(radius + 1)),
               Fraction(0))


def discrepancy_table(rates: Sequence, x, max_radius: int, *,
                      node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Rows (n, brute sum, product-formula sum, equal?) for n = 0..max_radius."""
    rows = []
    for n in range(max_radius + 1):
        brute = ball_sum_brute(rates, x, n, node_cap=node_cap)
        formula = ball_sum_product_formula(rates, x, n)
        rows.append((n, brute, formula, brute == formula))
    return rows


@dataclass(frozen=True)
class Trichotomy:
    """Limit of ball averages: zero, a finite multiple of x, or infinite.

    The branch is decided by comparing Q = prod q_i with q - 1 exactly;
    ``coefficient`` is set on the finite branch (limit = coefficient * x).
    """

    kind: str
    coefficient: Optional[Fraction] = None

    def limit_for(self, x) -> Optional[Fraction]:
        return None if self.coefficient is None else self.coefficient * Fraction(x)


def cesaro_limit(rates: Sequence) -> Trichotomy:
    """Classify the limiting ball average of the product-formula sums."""
    rates = _validate_rates(rates)
    if len(rates) < 2:
        raise WordSyntaxError("the trichotomy needs at least two maps")
    q = 2 * len(rates)
    product = math.prod(rates)
    if product < q - 1:
        return Trichotomy("zero")
    if product > q - 1:
        return Trichotomy("infinite")
    denom = q * math.prod(1 - 1 / r for r in rates)
    return Trichotomy("finite", Fraction(q - 2) / denom)
