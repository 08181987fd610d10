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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from . import _kernels
from .cesaro import _ball_sums
from .engine import Domain, MapFamily
from .errors import ResourceLimitError, WordSyntaxError
from .scalars import to_rational
from .subgroups import SubgroupSpec, _set_verdict
from .words import DEFAULT_NODE_CAP, Word


def _validate_rates(rates: Sequence) -> tuple:
    out = tuple(to_rational(r, "rate") for r in rates)
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
        # exact sphere sums run on scaled integers: with q_i = n_i/d_i and
        # scale D = prod(n_i d_i), a value at depth k is kept as value * D^k,
        # so a step by q_i^(+-1) multiplies the kept integer by
        # n_i^2 * prod_{j!=i}(n_j d_j) or d_i^2 * prod_{j!=i}(n_j d_j)
        self._scale = math.prod(r.numerator * r.denominator for r in self.rates)
        self._steps = tuple(self._scale // (r.numerator * r.denominator) * part * part
                            for r in self.rates for part in (r.numerator, r.denominator))

    def apply(self, x: Fraction, gen: int, power: int) -> Fraction:
        self.apply_calls += 1
        rate = self.rates[gen - 1]
        if power == 1:
            return x * rate
        if power == -1:
            return x / rate
        return x * rate ** power

    def exact_sphere_sums(self, x: Fraction, n_max: int, *,
                          node_cap: int = DEFAULT_NODE_CAP) -> tuple:
        """Per-sphere orbit sums by recurrence (hook for cesaro_scan).

        The maps commute, so a word's value is x times its letters' rates in
        any order.  The sphere sums follow the free group's three-term
        recurrence (see ``circle._sphere_counts``): with m the sum of the
        letters' rates, T_1 = m T_0, T_2 = m T_1 - q T_0 and
        T_{d+1} = m T_d - (q - 1) T_{d-1}, q = 2k, since a letter and its
        inverse multiply to 1.  Sums are carried as the family's scaled
        integers, where the cancelled pair multiplies by the square of the
        scale, and returned as they are: ``(raw, x.denominator, D)``, sphere
        d being raw[d] / (x.denominator * D**d), which ``cesaro_scan``
        reads with one running integer sum.  The work is one step per depth
        plus the root; ResourceLimitError is raised up front when it exceeds
        ``node_cap``.
        """
        work = 1 + n_max
        if work > node_cap:
            raise ResourceLimitError(work, node_cap, unit="steps")
        step_sum, square, q = sum(self._steps), self._scale ** 2, len(self._steps)
        raw = [x.numerator]
        for depth in range(1, n_max + 1):
            value = step_sum * raw[-1]
            if depth > 1:
                value -= (q if depth == 2 else q - 1) * square * raw[-2]
            raw.append(value)
        return raw, x.denominator, self._scale

    def _walked_sphere_sums(self, x, radius: int, node_cap: int) -> tuple:
        """Per-sphere orbit sums at the point ``x`` by the one tree walk over
        the scaled integers, in the hook's form ``(raw, x.denominator, D)``."""
        x = self.coerce_point(x)
        raw = _kernels.scan_object(self.n_gens, radius,
                                   [partial(operator.mul, step)
                                    for step in self._steps],
                                   x.numerator, node_cap=node_cap)
        return raw, x.denominator, self._scale


def evaluate_closed_form(rates: Sequence, word: Word, x) -> Fraction:
    """Orbit value as x times the product of rates raised to exponent totals.

    Independent of the generic engine evaluation (which folds map
    applications); the two must agree because the maps commute.
    """
    rates = _validate_rates(rates)
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
    if word.n_gens != len(rates):
        raise WordSyntaxError("word and rate vector sizes differ")
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

    A word moves a deposit when its multiplier is not 1, so the set is
    decided by ``subgroups._set_verdict``: subgroups of the fully balanced
    subgroup have multiplier 1 everywhere; a generator of the group inside
    H is the witness (its multiplier is a rate > 1); a cyclic subgroup is
    decided exactly by its generator's multiplier; otherwise the subgroup
    ball is searched for a witness.  A multiplier is a power whose size
    grows with the word, so a word with more letters than ``node_cap`` is
    refused with ResourceLimitError before its multiplier is built.  Only
    the generator of a cyclic H can be that long: every member the search
    reaches is shorter than the words it has already counted.
    """
    rates = _validate_rates(rates)
    if spec.n_gens != len(rates):
        raise WordSyntaxError("subgroup and rate vector sizes differ")

    def multiplier(word):
        if word.length > node_cap:
            raise ResourceLimitError(word.length, node_cap, unit="letters")
        return word_multiplier(rates, word)
    witness, proof = _set_verdict(spec, multiplier, lambda mult: mult == 1,
                                  search_depth, node_cap)
    if witness is not None:
        return PeriodicityClass("empty", witness, proof)
    if proof is not None:
        return PeriodicityClass("all_positive_reals")
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
    :func:`mdtds.cesaro.cesaro_scan`: the walk multiplies the family's
    scaled integers, and the ball sum is read by the scan's one rule.
    ``threads`` is accepted and has no effect.
    """
    spheres = BankFamily(rates)._walked_sphere_sums(x, radius, node_cap)
    return _ball_sums(spheres, True)[-1]


def discrepancy_table(rates: Sequence, x, max_radius: int, *,
                      node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Rows (n, brute sum, product-formula sum, equal?) for n = 0..max_radius.

    The brute sums are running totals of one walk over the ball of radius
    ``max_radius``, read by the scan's one rule; a ball over ``node_cap``
    is refused before that walk.
    """
    if max_radius < 0:
        raise ValueError("radius must be >= 0")
    spheres = BankFamily(rates)._walked_sphere_sums(x, max_radius, node_cap)
    rows = []
    for n, brute in enumerate(_ball_sums(spheres, True)):
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
