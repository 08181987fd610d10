"""Rotation model: map i shifts a circle point by an angle theta_i (mod 1).

Orbit values depend only on the accumulated rotation of a word (the maps
commute): D_t(x) = (x + rotation(t)) mod 1.  Exact mode carries rational
angles and decides integrality outright; it computes each rotation of a
rational point in integers, as one floor-mod over the product of the two
denominators.  Approximate mode carries float angles with a tolerance and
degrades certification accordingly (verdicts are marked uncertified, and
full-circle answers become undecided).  Ball sums count sphere words by
residue with the free group's three-term sphere recurrence, or, in small
balls, by exponent vector from a table made once per generator count and
radius, in exact integers for both modes.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
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
        # exact sphere sums run on residues: each angle as a whole number over
        # the angles' common denominator
        exact_angles = tuple(map(Fraction, self.angles))
        den = math.lcm(*(a.denominator for a in exact_angles))
        self._angle_den = den
        self._angle_nums = tuple(a.numerator * (den // a.denominator)
                                 for a in exact_angles)

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
        exact values are equal, so no float is ever compared or merged.  A
        ball with at most ``_VECTOR_ENTRIES`` (depth, exponent vector)
        pairs is summed from its word counts by vector instead
        (``_sphere_vectors``, ``_vector_sums``), at a cost set by k and the
        radius alone, when the recurrence's bound on its dict updates,
        2k min(M, vectors) a sphere, is larger.  The pairs bound the
        residues, and the table is used only when they are within
        ``node_cap``, so both paths give the same sums and refusals.  The
        angles as whole numbers over their common denominator are built
        once, when the family is made; the seam is read from ``tol`` on each
        call, as ``mod1`` reads it.  Each sphere is one exact integer sum
        over the residues, sum(r * count) in C, less the residues at or
        above the seam M(1 - tol), since values in the seam [1 - tol, 1)
        count as 0 for float angles (as ``mod1`` does); exact angles have no
        seam states, their seam being M.  The sums are returned as
        ``(raw, M, 1)``, raw[0] the start residue and sphere d being
        raw[d] / M; ``cesaro_scan`` adds them as one running integer for exact
        angles, and rounds each sphere once for float angles.  So float sums
        are reproducible bit for bit and agree with the tree walk within
        rounding.  A float scan whose ball has more words than the largest
        float is refused with DomainViolationError before any state is
        counted.  The work is the number of distinct residues of each
        sphere, summed over the depths, plus the root: the (depth, exact
        value) pairs of the orbit ball, never more than the ball size.
        ResourceLimitError is raised once it exceeds ``node_cap``.
        """
        if not self.exact and _ball_exceeds(n_max, self.n_gens,
                                            sys.float_info.max):
            raise DomainViolationError(math.inf, detail=(
                f"the ball of radius {n_max} has more words than the largest "
                "float"))
        point = Fraction(x)
        modulus = math.lcm(point.denominator, self._angle_den)
        widen = modulus // self._angle_den
        steps = []
        for num in self._angle_nums:
            step = num * widen % modulus
            steps += [step, -step % modulus]
        start = point.numerator * (modulus // point.denominator)
        seam = modulus if self.exact else \
            math.ceil(Fraction(1.0 - self.tol) * modulus)
        # the dicts update at most min(M, size) states a letter for each
        # sphere; when that passes the table's entries, sum by vector
        sizes = _vector_sizes(self.n_gens, n_max)
        entries = sum(sizes)
        if entries and entries < node_cap and \
                len(steps) * sum(min(modulus, s) for s in sizes) > entries:
            return _vector_sums(start, steps[::2], modulus, seam,
                                _sphere_vectors(self.n_gens, n_max)), modulus, 1
        raw = [start]
        for counts in _sphere_counts(start, steps, modulus, n_max, node_cap):
            total = sum(map(operator.mul, counts, counts.values()))
            if seam < modulus:
                total -= sum(r * counts[r] for r in filter(seam.__le__, counts))
            raw.append(total)
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
    q - 1 words of length d (q when it is the root).  A letter permutes
    the residues, so sphere d starts as a dict of one letter's moves of
    sphere d - 1 and the other letters add to it.  Only a state of sphere
    d - 2 can lose count, when ``cancel * n`` is taken off it in place, and
    each such state is already a key: a word of sphere d - 2 lengthened by
    a letter and then shortened by its inverse.  A state whose count
    reaches 0 is deleted, so every yielded count is positive.  ``node_cap``
    bounds the states held: the distinct states of every sphere, plus one
    for the root.
    """
    q = len(steps)
    first, *rest = steps
    previous, total = {}, {start: 1}
    work = 1
    for depth in range(1, n_max + 1):
        cancel = q if depth == 2 else q - 1
        counts = {(r + first) % modulus: n for r, n in total.items()}
        get = counts.get
        for step in rest:
            for r, n in total.items():
                to = (r + step) % modulus
                counts[to] = get(to, 0) + n
        for r, n in previous.items():
            left = counts[r] - cancel * n
            if left:
                counts[r] = left
            else:
                del counts[r]
        previous, total = total, counts
        work += len(total)
        if work > node_cap:
            raise ResourceLimitError(work, node_cap, unit="states")
        yield total


# Sphere word counts by exponent vector are kept for balls with at most this
# many (depth, vector) entries, the vectors of radius 21 on two generators.
_VECTOR_ENTRIES = 1 << 12


@lru_cache(maxsize=64)
def _vector_sizes(n_gens: int, n_max: int) -> tuple:
    """For d = 1 .. n_max, how many exponent vectors e in Z^k (k = n_gens)
    have |e|_1 <= d and |e|_1 = d mod 2: those a word of length d can have.

    () when their sum passes ``_VECTOR_ENTRIES``.  There are
    sum_j 2^j C(k, j) C(m - 1, j - 1) vectors with |e|_1 = m >= 1: choose
    the j nonzero places, their signs, and a composition of m into j parts.
    """
    below, sizes, total = [1, 0], [], 0
    for m in range(1, n_max + 1):
        below[m % 2] += sum(2 ** j * math.comb(n_gens, j) * math.comb(m - 1, j - 1)
                            for j in range(1, min(n_gens, m) + 1))
        total += below[m % 2]
        if total > _VECTOR_ENTRIES:
            return ()
        sizes.append(below[m % 2])
    return tuple(sizes)


@lru_cache(maxsize=16)
def _sphere_vectors(n_gens: int, n_max: int) -> tuple:
    """Sphere words of F_k counted by exponent vector, for depths 1 .. n_max.

    Returns ``(columns, rows)``.  ``columns[p]`` holds the k coordinate
    tuples of the vectors e with |e|_1 = p mod 2 that some sphere of that
    parity reaches, in order of |e|_1; ``rows[d - 1]`` counts the words of
    length d with each of the first of those vectors, up to the last with
    |e|_1 <= d.  The counts do not depend on the angles, so they are made
    once per (k, n_max) with ``_sphere_counts`` on Z^k, each vector written
    as one whole number in base 2 n_max + 1 (coordinates offset by n_max),
    where no step wraps.
    """
    base = 2 * n_max + 1
    places = [base ** i for i in range(n_gens)]
    top, root = base ** n_gens, n_max * sum(places)
    spheres = list(_sphere_counts(root, [s for p in places for s in (p, top - p)],
                                  top, n_max, DEFAULT_NODE_CAP))

    def vector(code):
        return tuple(code // p % base - n_max for p in places)

    orders = []
    for parity in (0, 1):
        reached = {root} if parity == 0 else set()
        for counts in spheres[1 - parity::2]:
            reached.update(counts)
        orders.append(sorted((sum(map(abs, vector(c))), c) for c in reached))
    columns = tuple(tuple(zip(*(vector(c) for _, c in order))) for order in orders)
    rows = tuple(tuple(counts.get(c, 0) for norm, c in orders[d % 2] if norm <= d)
                 for d, counts in enumerate(spheres, 1))
    return columns, rows


def _vector_sums(start: int, gen_steps: list, modulus: int, seam: int,
                 vectors: tuple) -> list:
    """Sphere residue sums from ``_sphere_vectors``, as ``_sphere_counts``
    gives them: a vector e has residue (start + e . gen_steps) mod modulus,
    and residues at or above ``seam`` count as 0.

    Each parity's residues are made once, in C, and each sphere is one
    sum of counts times residues over a prefix of them, so the work is
    set by the number of vectors alone, not by how the residues collide.
    """
    columns, rows = vectors
    residues = []
    for cols in columns:
        size = len(cols[0]) if cols else 0
        values = repeat(start, size)
        for col, step in zip(cols, gen_steps):
            values = map(operator.add, values,
                         map(operator.mul, col, repeat(step, size)))
        parity = list(map(operator.mod, values, repeat(modulus, size)))
        if seam < modulus and max(parity, default=0) >= seam:
            parity = [r if r < seam else 0 for r in parity]
        residues.append(parity)
    return [start] + [sum(map(operator.mul, row, residues[d % 2]))
                      for d, row in enumerate(rows, 1)]


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
