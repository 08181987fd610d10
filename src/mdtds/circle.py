"""Rotation model: map i shifts a circle point by an angle theta_i (mod 1).

Orbit values depend only on the accumulated rotation of a word (the maps
commute): D_t(x) = (x + rotation(t)) mod 1.  Exact mode carries rational
angles and decides integrality outright; it computes each rotation of a
rational point in integers, as one floor-mod over the product of the two
denominators.  Approximate mode carries float angles with a tolerance and
degrades certification accordingly (verdicts are marked uncertified, and
full-circle answers become undecided).  Ball sums count sphere words by
residue with the free group's three-term sphere recurrence, in exact
integers for both modes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .engine import Domain, MapFamily
from .errors import DomainViolationError, ResourceLimitError, WordSyntaxError
from .scalars import DEFAULT_TOL, Scalar, to_rational
from .subgroups import CyclicSubgroup, SubgroupSpec, _set_verdict
from .words import DEFAULT_NODE_CAP, Word, _ball_exceeds


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
            self.angles = tuple(to_rational(a, "angle") for a in angles)
        else:
            self.angles = tuple(float(a) for a in angles)
            if not all(map(math.isfinite, self.angles)):
                raise WordSyntaxError("angles must be finite")
        if any(a <= 0 for a in self.angles):
            raise WordSyntaxError("angles must be positive")
        super().__init__(len(self.angles),
                         Domain(Fraction(0), Fraction(1), upper_open=True),
                         exact=exact, tol=tol)

    def apply(self, x: Scalar, gen: int, power: int) -> Scalar:
        self.apply_calls += 1
        angle = self.angles[gen - 1]
        if self.exact and isinstance(x, Fraction):
            # (x + power*angle) mod 1 as one floor-mod over the product of
            # the denominators; Fraction() divides out their gcd
            x_den, a_den = x.denominator, angle.denominator
            den = x_den * a_den
            num = x.numerator * a_den + power * angle.numerator * x_den
            return Fraction(num % den, den)
        return mod1(x + power * angle, self.tol)

    def coerce_point(self, x) -> Scalar:
        """The base check; an approximate point in the seam [1 - tol, 1) is
        read as 0, as ``mod1`` reads every map value there."""
        x = super().coerce_point(x)
        return x if self.exact else mod1(x, self.tol)

    def exact_sphere_sums(self, x: Scalar, n_max: int, *,
                          node_cap: int = DEFAULT_NODE_CAP):
        """Per-sphere orbit sums from exact word counts (hook for cesaro_scan).

        The maps commute, so a word's orbit value is r/M, r the residue mod
        M of M(x + e.theta) for its exponent vector e and M the common
        denominator of x and the angles (a float is a dyadic rational, so
        float angles have one too).  Sphere words are counted by residue
        alone, with the free group's three-term sphere recurrence (see
        ``_sphere_counts``).  Two words share a residue only when their
        exact values are equal, so no float is ever compared or merged.
        Each sphere is one exact integer sum over the residues, with values
        in the seam [1 - tol, 1) counted as 0 for float angles (as ``mod1``
        does).  The sums are returned as ``(raw, M, 1)``, raw[0] the start
        residue and sphere d being raw[d] / M; ``cesaro_scan`` adds them as
        one running integer for exact angles, and rounds each sphere once
        for float angles.  So float sums are reproducible bit for bit and
        agree with the tree walk within rounding.  A float scan whose ball
        has more words than the largest float is refused with
        DomainViolationError before any state is counted.  The work is the
        number of distinct residues of each sphere, summed over the depths,
        plus the root: the (depth, exact value) pairs of the orbit ball,
        never more than the ball size.  ResourceLimitError is raised once it
        exceeds ``node_cap``.
        """
        if not self.exact and _ball_exceeds(n_max, self.n_gens,
                                            sys.float_info.max):
            raise DomainViolationError(math.inf, detail=(
                f"the ball of radius {n_max} has more words than the largest "
                "float"))
        point, *angles = map(Fraction, (x, *self.angles))
        modulus = math.lcm(point.denominator, *(a.denominator for a in angles))
        steps = []
        for a in angles:
            step = a.numerator * (modulus // a.denominator) % modulus
            steps += [step, -step % modulus]
        start = point.numerator * (modulus // point.denominator)
        seam = modulus if self.exact else \
            math.ceil(Fraction(1.0 - self.tol) * modulus)
        raw = [start]
        for counts in _sphere_counts(start, steps, modulus, n_max, node_cap):
            raw.append(sum(r * n for r, n in counts.items() if r < seam))
        return raw, modulus, 1


def _sphere_counts(start: int, steps: list, modulus: int, n_max: int,
                   node_cap: int):
    """Yield {state: number of sphere words} for depths 1 .. n_max.

    The root is ``start``; letter j moves a state to (state + steps[j]) %
    modulus.  With A the sum of the q = len(steps) letter shifts, the sphere
    counts T_d of any action of the free group satisfy T_1 = A T_0,
    T_2 = A T_1 - q T_0 and T_{d+1} = A T_d - (q - 1) T_{d-1}: prepending a
    letter to a word of length d >= 1 either lengthens it or cancels its
    first letter, and each word of length d - 1 arises by cancellation from
    q - 1 words of length d (q when it is the root).  Zero counts are
    dropped.  ``node_cap`` bounds the states held: the distinct states of
    every sphere, plus one for the root.
    """
    q = len(steps)
    previous, total = {}, {start: 1}
    work = 1
    for depth in range(1, n_max + 1):
        cancel = q if depth == 2 else q - 1
        counts = {r: -cancel * n for r, n in previous.items()}
        for step in steps:
            for r, n in total.items():
                to = (r + step) % modulus
                counts[to] = counts.get(to, 0) + n
        previous, total = total, {r: n for r, n in counts.items() if n}
        work += len(total)
        if work > node_cap:
            raise ResourceLimitError(work, node_cap, unit="states")
        yield total


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
        if not family.values_equal(angle, round(angle)):
            return FixedSetVerdict("empty", i, certified=family.exact)
    return FixedSetVerdict("full", certified=family.exact)


@dataclass(frozen=True)
class PeriodicSetVerdict:
    """H-periodic circle points are all-or-nothing.

    ``full`` when every subgroup member's rotation is an integer, ``empty``
    with a witness member otherwise, ``undecided`` when bounded search found
    no witness (``depth`` is the searched depth) or when approximate mode
    cannot certify a full answer (``note`` then names the proof it could
    not certify).
    """

    kind: str  # "full" | "empty" | "undecided"
    witness: Optional[Word] = None
    rotation: Optional[Scalar] = None
    depth: Optional[int] = None
    certified: bool = True
    note: str = ""


# why a full answer stays undecided in approximate mode, by its proof
_APPROXIMATE_NOTES = {
    "balanced": "balanced subgroup rotates by 0, but approximate mode "
                "cannot certify a full answer",
    "cyclic": "generator rotation is integral at tolerance only",
}


def periodic_set(family: CircleFamily, spec: SubgroupSpec, search_depth: int,
                 *, node_cap: int = DEFAULT_NODE_CAP) -> PeriodicSetVerdict:
    """Decide the H-periodic set.

    A word moves points when its rotation is not an integer, so the set is
    decided by ``subgroups._set_verdict``, as the growth model's is:
    subgroups of the fully balanced subgroup rotate by exactly 0; a
    generator of the group inside H that moves points is the witness; a
    cyclic subgroup is decided by its single generator's rotation, which
    costs O(runs) however long the generator is; all other families fall
    back to scanning the subgroup ball for a non-integer rotation.
    Approximate mode marks every answer uncertified and turns a full answer
    into ``undecided`` with a note.
    """
    if spec.n_gens != family.n_gens:
        raise WordSyntaxError("subgroup and family sizes differ")
    witness, proof = _set_verdict(spec, lambda word: rotation_of(family, word),
                                  lambda rot: family.values_equal(rot, round(rot)),
                                  search_depth, node_cap)
    if witness is not None:
        return PeriodicSetVerdict("empty", witness, proof, certified=family.exact)
    if proof is None:
        return PeriodicSetVerdict("undecided", depth=search_depth,
                                  certified=family.exact,
                                  note="no witness within the searched ball")
    if family.exact:
        return PeriodicSetVerdict("full")
    return PeriodicSetVerdict("undecided", certified=False,
                              note=_APPROXIMATE_NOTES[proof])


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
