"""Rotation model: map i shifts a circle point by an angle theta_i (mod 1).

Orbit values depend only on the accumulated rotation of a word (the maps
commute): D_t(x) = (x + rotation(t)) mod 1.  Exact mode carries rational
angles and decides integrality outright; approximate mode carries float
angles with a tolerance and degrades certification accordingly (verdicts
are marked uncertified, and full-circle answers become undecided).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .engine import Domain, MapFamily
from .errors import ResourceLimitError, WordSyntaxError
from .scalars import DEFAULT_TOL, Scalar
from .subgroups import (CyclicSubgroup, SubgroupSpec,
                        _members, contained_in_fully_balanced)
from .words import DEFAULT_NODE_CAP, Word


def mod1(value: Scalar, tol: float = DEFAULT_TOL) -> Scalar:
    """value - floor(value), with floats just below 1 clamped to 0.

    The clamp keeps approximate orbits from straddling the seam: anything in
    [1 - tol, 1) is identified with 0.
    """
    out = value - math.floor(value)
    if isinstance(out, float) and out >= 1.0 - tol:
        return 0.0
    return out


class CircleFamily(MapFamily):
    """f_i(x) = (x + theta_i) mod 1 on [0, 1)."""

    def __init__(self, angles: Sequence, exact: bool = True,
                 tol: float = DEFAULT_TOL):
        if not angles:
            raise WordSyntaxError("need at least one angle")
        if exact:
            self.angles = tuple(Fraction(a) for a in angles)
        else:
            self.angles = tuple(float(a) for a in angles)
        if any(a <= 0 for a in self.angles):
            raise WordSyntaxError("angles must be positive")
        super().__init__(len(self.angles),
                         Domain(Fraction(0), Fraction(1), upper_open=True),
                         exact=exact, tol=tol)

    def apply(self, x: Scalar, gen: int, power: int) -> Scalar:
        self.apply_calls += 1
        return mod1(x + power * self.angles[gen - 1], self.tol)

    def exact_sphere_sums(self, x: Fraction, n_max: int, *,
                          node_cap: int = DEFAULT_NODE_CAP):
        """Per-sphere orbit sums from residue counts (hook for cesaro_scan).

        Exact mode only; approximate families return None and are walked.
        Every orbit value is a multiple of 1/M, M the common denominator of
        the angles and x, so sphere words are counted by (leading letter,
        residue mod M): prepending letter j to the words not led by its
        inverse shifts their residues by j's step.  The work is the number of
        (letter, residue) states over all depths plus the root, never more
        than the ball size; ResourceLimitError is raised once it exceeds
        ``node_cap``.
        """
        if not self.exact:
            return None
        denom = x.denominator
        for a in self.angles:
            denom = math.lcm(denom, a.denominator)
        steps = []
        for a in self.angles:
            step = a.numerator * (denom // a.denominator) % denom
            steps += [step, -step % denom]
        sums = [x]
        total = {x.numerator * (denom // x.denominator): 1}
        layer = [{} for _ in steps]
        work = 1
        for _ in range(n_max):
            led = []
            for j, step in enumerate(steps):
                avoid = layer[j ^ 1]
                led.append({(r + step) % denom: n - avoid.get(r, 0)
                            for r, n in total.items() if n != avoid.get(r, 0)})
            layer = led
            work += sum(map(len, layer))
            if work > node_cap:
                raise ResourceLimitError(work, node_cap)
            total = {}
            for counts in layer:
                for r, n in counts.items():
                    total[r] = total.get(r, 0) + n
            sums.append(Fraction(sum(r * n for r, n in total.items()), denom))
        return sums


def rotation_of(family: CircleFamily, word: Word) -> Scalar:
    """Total rotation of a word: the exponent-weighted angle sum.

    Additive under multiplication and negated by inversion (a homomorphism
    to the reals); the orbit value is x plus this, mod 1.
    """
    if word.n_gens != family.n_gens:
        raise WordSyntaxError("word and family sizes differ")
    total = Fraction(0) if family.exact else 0.0
    for gen, exp in word.runs:
        total += exp * family.angles[gen - 1]
    return total


def evaluate_closed_form(family: CircleFamily, word: Word, x: Scalar) -> Scalar:
    """(x + rotation) mod 1; independent of the generic engine fold."""
    x = family.coerce_point(x)
    return mod1(x + rotation_of(family, word), family.tol)


def _is_integer(family: CircleFamily, value: Scalar) -> bool:
    if family.exact:
        return Fraction(value).denominator == 1
    return abs(value - round(value)) <= family.tol


@dataclass(frozen=True)
class FixedSetVerdict:
    """Either every circle point is fixed or none is.

    ``full`` requires every angle to be an integer; otherwise the first
    non-integer angle index is the witness.  ``certified`` is False in
    approximate mode (integrality at a tolerance is evidence, not proof).
    """

    kind: str  # "full" | "empty"
    witness_index: Optional[int] = None
    certified: bool = True


def fixed_set(family: CircleFamily) -> FixedSetVerdict:
    for i, angle in enumerate(family.angles, start=1):
        if not _is_integer(family, angle):
            return FixedSetVerdict("empty", i, certified=family.exact)
    return FixedSetVerdict("full", certified=family.exact)


@dataclass(frozen=True)
class PeriodicSetVerdict:
    """H-periodic circle points are all-or-nothing.

    ``full`` when every subgroup member's rotation is an integer, ``empty``
    with a witness member otherwise, ``undecided`` when bounded search found
    no witness (or when approximate mode cannot certify a full answer).
    """

    kind: str  # "full" | "empty" | "undecided"
    witness: Optional[Word] = None
    rotation: Optional[Scalar] = None
    depth: Optional[int] = None
    certified: bool = True
    note: str = ""


def periodic_set(family: CircleFamily, spec: SubgroupSpec, search_depth: int,
                 *, node_cap: int = DEFAULT_NODE_CAP) -> PeriodicSetVerdict:
    """Decide the H-periodic set.

    Fast paths: subgroups of the fully balanced subgroup rotate by exactly 0;
    a cyclic subgroup is decided by its single generator's rotation.  All
    other families fall back to scanning the subgroup ball for a non-integer
    rotation.
    """
    if search_depth < 1:
        raise ValueError("search_depth must be >= 1")
    if spec.n_gens != family.n_gens:
        raise WordSyntaxError("subgroup and family sizes differ")
    if contained_in_fully_balanced(spec):
        if family.exact:
            return PeriodicSetVerdict("full")
        return PeriodicSetVerdict(
            "undecided", certified=False,
            note="balanced subgroup rotates by 0, but approximate mode "
                 "cannot certify a full answer")
    if isinstance(spec, CyclicSubgroup):
        rot = rotation_of(family, spec.generator_word)
        if not _is_integer(family, rot):
            return PeriodicSetVerdict("empty", spec.generator_word, rot,
                                      certified=family.exact)
        if family.exact:
            return PeriodicSetVerdict("full")
        return PeriodicSetVerdict(
            "undecided", certified=False,
            note="generator rotation is integral at tolerance only")
    for member in _members(spec, search_depth, node_cap):
        rot = rotation_of(family, member)
        if not _is_integer(family, rot):
            return PeriodicSetVerdict("empty", member, rot,
                                      certified=family.exact)
    return PeriodicSetVerdict("undecided", depth=search_depth,
                              certified=family.exact,
                              note="no witness within the searched ball")


def rational_period_subgroup(family: CircleFamily, gen: int) -> CyclicSubgroup:
    """The cyclic subgroup generated by s_gen^m, with m the angle denominator.

    Every member rotates by an integer, so the whole circle is periodic for
    it; requires the chosen angle to be rational (exact mode).
    """
    if not family.exact:
        raise WordSyntaxError("constructing a periodic subgroup needs exact angles")
    if not 1 <= gen <= family.n_gens:
        raise WordSyntaxError(f"map index {gen} out of range")
    m = family.angles[gen - 1].denominator
    return CyclicSubgroup(Word.from_runs(family.n_gens, [(gen, m)]))


@dataclass(frozen=True)
class DensityResult:
    """Largest circular gap of a sampled one-map orbit."""

    max_gap: Scalar
    eps: Scalar
    points: int

    @property
    def dense(self) -> bool:
        return self.max_gap < self.eps


def density_check(family: CircleFamily, gen: int, x: Scalar, steps: int,
                  eps: Scalar) -> DensityResult:
    """Sort {x + n*theta mod 1 : 0 <= n < steps} and report the largest gap.

    Rational angles give finite orbits (the gap stabilizes at 1/denominator);
    irrational angles fill the circle and the gap shrinks with ``steps``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 1 <= gen <= family.n_gens:
        raise WordSyntaxError(f"map index {gen} out of range")
    x = family.coerce_point(x)
    theta = family.angles[gen - 1]
    points = sorted({mod1(x + n * theta, family.tol) for n in range(steps)})
    if len(points) == 1:
        return DensityResult(points[0] * 0 + 1, eps, 1)
    gaps = [b - a for a, b in zip(points, points[1:])]
    gaps.append(1 - points[-1] + points[0])
    return DensityResult(max(gaps), eps, len(points))
