"""Group-indexed dynamics: evaluation, orbit balls, periodicity verification.

Composition convention
----------------------
Words act on points as a **left action**: for a word ``t`` with expanded
letters ``l1 l2 ... ln``, the value is ``f[l1](f[l2](... f[ln](x) ...))``:
the rightmost letter acts first, and ``D[u * v] = D[u] o D[v]``.  Two
consequences worth knowing:

* the ball enumeration in :mod:`mdtds.words` grows words on the left, so a
  child's orbit value is one map application of its parent's value;
* a point is H-periodic iff every point of its orbit is fixed by every member
  of H, which is strictly stronger than the point itself being H-fixed when
  the maps do not commute.

Verification over the infinite group is impossible; the verdict types say
"verified up to these depths" rather than "true".
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import DomainViolationError, EvaluationError, WordSyntaxError
from .scalars import DEFAULT_TOL, Scalar, exact_sqrt
from .subgroups import CyclicSubgroup, SubgroupSpec, _members
from .words import DEFAULT_NODE_CAP, Word, ball_enumerate


@dataclass(frozen=True)
class Domain:
    """An interval of the reals; None bounds mean unbounded."""

    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    lower_open: bool = False
    upper_open: bool = False

    def contains(self, x: Scalar) -> bool:
        if self.lower is not None:
            if x < self.lower or (self.lower_open and x == self.lower):
                return False
        if self.upper is not None:
            if x > self.upper or (self.upper_open and x == self.upper):
                return False
        return True

    @property
    def bounded(self) -> bool:
        return self.lower is not None and self.upper is not None

    def __str__(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "+inf" if self.upper is None else str(self.upper)
        return ("(" if self.lower_open or self.lower is None else "[") + \
            f"{lo}, {hi}" + (")" if self.upper_open or self.upper is None else "]")


class MapFamily:
    """A family of invertible self-maps of an interval, indexed 1..n_gens.

    Subclasses implement ``apply(x, gen, power)`` meaning the ``power``-th
    iterate (negative powers use the closed-form inverse).  ``exact`` families
    work on Fractions and compare by equality; approximate families work on
    floats and compare within ``tol``.  ``apply_calls`` counts invocations of
    ``apply`` (an instrumentation hook for the one-application-per-edge
    orbit invariant; not thread-safe).
    """

    def __init__(self, n_gens: int, domain: Domain, exact: bool = True,
                 tol: float = DEFAULT_TOL):
        if n_gens < 1:
            raise WordSyntaxError("need at least one map")
        self.n_gens = n_gens
        self.domain = domain
        self.exact = exact
        self.tol = tol
        self.apply_calls = 0

    def apply(self, x: Scalar, gen: int, power: int) -> Scalar:
        raise NotImplementedError

    def reset_counter(self) -> None:
        self.apply_calls = 0

    def coerce_point(self, x) -> Scalar:
        """Validate mode and domain of an input point."""
        if self.exact:
            if isinstance(x, float):
                raise WordSyntaxError("exact family needs rational points, got float")
            x = Fraction(x)
        else:
            x = float(x)
        if not self.domain.contains(x):
            raise DomainViolationError(x, detail=f"domain {self.domain}")
        return x

    def values_equal(self, a: Scalar, b: Scalar) -> bool:
        if self.exact:
            return a == b
        return abs(a - b) <= self.tol


class CallableMapFamily(MapFamily):
    """A family given by explicit (forward, inverse) callables per map.

    Powers are iterated one step at a time; every intermediate value is
    checked against the domain so escapes surface as DomainViolationError.
    """

    def __init__(self, pairs: Sequence, domain: Domain, exact: bool = True,
                 tol: float = DEFAULT_TOL):
        super().__init__(len(pairs), domain, exact, tol)
        self._pairs = tuple(pairs)

    def apply(self, x: Scalar, gen: int, power: int) -> Scalar:
        self.apply_calls += 1
        if not 1 <= gen <= self.n_gens:
            raise WordSyntaxError(f"map index {gen} out of range")
        fn = self._pairs[gen - 1][0 if power > 0 else 1]
        value = x
        for _ in range(abs(power)):
            value = fn(value)
            if not self.domain.contains(value):
                raise DomainViolationError(value)
        return value


def identity_family(n_gens: int = 1) -> CallableMapFamily:
    """All maps are the identity on the whole line; handy for smoke tests."""
    pair = (lambda v: v, lambda v: v)
    return CallableMapFamily([pair] * n_gens, Domain())


def affine_and_square_family(exact: bool = True) -> CallableMapFamily:
    """Two noncommuting maps of [0, 1] with common fixed point 1.

    Map 1 is the affine contraction x -> 3x/4 + 1/4; map 2 is squaring
    (invertible on [0, 1]).  In exact mode the square-root inverse exists
    only at perfect squares and raises ExactnessError elsewhere; the affine
    inverse leaves [0, 1] below 1/4 and raises DomainViolationError.
    """
    if exact:
        a, b = Fraction(3, 4), Fraction(1, 4)
        pairs = [
            (lambda v: a * v + b, lambda v: (v - b) / a),
            (lambda v: v * v, exact_sqrt),
        ]
        return CallableMapFamily(pairs, Domain(Fraction(0), Fraction(1)))
    import math
    pairs = [
        (lambda v: 0.75 * v + 0.25, lambda v: (v - 0.25) / 0.75),
        (lambda v: v * v, math.sqrt),
    ]
    return CallableMapFamily(pairs, Domain(Fraction(0), Fraction(1)), exact=False)


# -- evaluation ----------------------------------------------------------------


def evaluate(family: MapFamily, word: Word, x: Scalar) -> Scalar:
    """The orbit value at ``word``: rightmost run applied first.

    Satisfies ``evaluate(u * v, x) == evaluate(u, evaluate(v, x))`` exactly
    (cancelled letters are undone pointwise by invertibility).
    """
    if word.n_gens != family.n_gens:
        raise WordSyntaxError("word and family sizes differ")
    value = family.coerce_point(x)
    try:
        for gen, exp in reversed(word.runs):
            value = family.apply(value, gen, exp)
    except EvaluationError as exc:
        exc.word = word
        raise
    return value


@dataclass(frozen=True)
class OrbitBall:
    """Orbit values for every word in a ball, in enumeration order."""

    base_point: Scalar
    radius: int
    values: dict

    def value(self, word: Word) -> Scalar:
        return self.values[word]

    def items(self):
        return self.values.items()


def _orbit_walk(family: MapFamily, x: Scalar, radius: int, node_cap: int,
                values: dict) -> Iterator[tuple]:
    """Yield (word, orbit value) over V_radius in enumeration order, lazily.

    One map application per tree edge: a child's value is its letter applied
    to its parent's, read back from ``values``, where every yielded pair is
    recorded.  An EvaluationError leaves with the failing word set.
    """
    for node in ball_enumerate(radius, family.n_gens, node_cap=node_cap):
        if node.parent is None:
            value = x
        else:
            try:
                value = family.apply(values[node.parent], node.letter.gen,
                                     node.letter.sign)
            except EvaluationError as exc:
                exc.word = node.word
                raise
        values[node.word] = value
        yield node.word, value


def orbit_ball(family: MapFamily, x: Scalar, radius: int, *,
               node_cap: int = DEFAULT_NODE_CAP) -> OrbitBall:
    """Evaluate the orbit over V_radius with one map application per edge."""
    x = family.coerce_point(x)
    values: dict = {}
    for _ in _orbit_walk(family, x, radius, node_cap, values):
        pass
    return OrbitBall(x, radius, values)


# -- fixed points ---------------------------------------------------------------


def fixed_point_residual(family: MapFamily, x: Scalar) -> Scalar:
    """max over maps of |f_i(x) - x|; zero iff x is fixed by every map."""
    x = family.coerce_point(x)
    return max(abs(family.apply(x, i, 1) - x) for i in range(1, family.n_gens + 1))


def is_fixed(family: MapFamily, x: Scalar) -> bool:
    residual = fixed_point_residual(family, x)
    return residual == 0 if family.exact else residual <= family.tol


# -- bounded H-fixedness / H-periodicity ----------------------------------------


@dataclass(frozen=True)
class VerifiedUpTo:
    """No violation found within the stated search depths."""

    depth_t: int
    depth_r: int

    @property
    def verified(self) -> bool:
        return True


@dataclass(frozen=True)
class Counterexample:
    """A witnessed violation: the value at r*t differs from the value at t."""

    t: Word
    r: Word
    lhs: Scalar
    rhs: Scalar

    @property
    def verified(self) -> bool:
        return False


PeriodicityVerdict = Union[VerifiedUpTo, Counterexample]


def _fixed_by(family: MapFamily, r: Word, value: Scalar):
    """Check D_r(value) == value, falling back to the inverse member.

    D_r fixes v iff D_{r^-1} fixes v (they are inverse bijections), so when
    one direction cannot be evaluated exactly the other is tried.  Returns
    (holds, member_used, rhs).
    """
    try:
        rhs = evaluate(family, r, value)
        return family.values_equal(rhs, value), r, rhs
    except EvaluationError:
        r_inv = r.inverse()
        rhs = evaluate(family, r_inv, value)
        return family.values_equal(rhs, value), r_inv, rhs


def _first_violation(family: MapFamily, members, t: Word,
                     value: Scalar) -> Optional[Counterexample]:
    """The first member r (in ``members`` order) with D_r(value) != value."""
    for r in members:
        holds, used, rhs = _fixed_by(family, r, value)
        if not holds:
            return Counterexample(t, used, value, rhs)
    return None


def is_h_fixed(family: MapFamily, spec: SubgroupSpec, x: Scalar, depth: int, *,
               node_cap: int = DEFAULT_NODE_CAP) -> PeriodicityVerdict:
    """Check D_y(x) = x for every subgroup member in the ball of ``depth``.

    Members are streamed, so the check stops at the first violation without
    enumerating the rest of the ball.
    """
    if spec.n_gens != family.n_gens:
        raise WordSyntaxError("subgroup and family sizes differ")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = family.coerce_point(x)
    return (_first_violation(family, _members(spec, depth, node_cap),
                             Word.identity(family.n_gens), x)
            or VerifiedUpTo(0, depth))


def is_h_periodic(family: MapFamily, spec: SubgroupSpec, x: Scalar,
                  depth_t: int, depth_r: int, *,
                  node_cap: int = DEFAULT_NODE_CAP) -> PeriodicityVerdict:
    """Check D_{r t}(x) = D_t(x) for t in V_depth_t and r in the H-ball.

    Since D_{r t} = D_r o D_t, the check walks the orbit ball once and tests
    every orbit value against every subgroup member; the first failure in
    (t, r) enumeration order is returned, which makes the counterexample
    deterministic.
    """
    if spec.n_gens != family.n_gens:
        raise WordSyntaxError("subgroup and family sizes differ")
    if depth_t < 1 or depth_r < 1:
        raise ValueError("depths must be >= 1")
    x = family.coerce_point(x)
    members = list(_members(spec, depth_r, node_cap))
    for t, value in _orbit_walk(family, x, depth_t, node_cap, {}):
        found = _first_violation(family, members, t, value)
        if found is not None:
            return found
    return VerifiedUpTo(depth_t, depth_r)


# -- omega-limit sampling ---------------------------------------------------------


@dataclass(frozen=True)
class Ray:
    """A strictly increasing word sequence: prefix * period^k for k = 1, 2, ...

    ``words`` validates monotonicity in the geodesic prefix order and raises
    WordSyntaxError when a step cancels instead of extending.
    """

    period: Word
    prefix: Optional[Word] = None

    def __post_init__(self):
        if self.period.is_identity:
            raise WordSyntaxError("ray period must not be the identity")
        if self.prefix is not None and self.prefix.n_gens != self.period.n_gens:
            raise WordSyntaxError("ray prefix and period over different groups")

    def words(self, steps: int) -> Iterator[Word]:
        current = self.prefix if self.prefix is not None \
            else Word.identity(self.period.n_gens)
        for _ in range(steps):
            nxt = current * self.period
            if not current.is_prefix_of(nxt) or nxt == current:
                raise WordSyntaxError(
                    f"ray is not strictly increasing at {current} -> {nxt}")
            yield nxt
            current = nxt


def _ray_values(family: MapFamily, x: Scalar, ray: Ray, steps: int):
    """Values along the ray, one period application per step.

    D_{prefix * period^k}(x) = D_prefix((D_period)^k(x)), so the inner value
    is iterated and the prefix applied on top.
    """
    inner = x
    out = []
    prefix = ray.prefix
    for _word in ray.words(steps):  # the generator validates monotonicity
        inner = evaluate(family, ray.period, inner)
        out.append(inner if prefix is None else evaluate(family, prefix, inner))
    return out


@dataclass(frozen=True)
class OmegaSample:
    """Cluster representatives of sampled tail values along one ray."""

    points: tuple
    diverged: bool
    samples: int


def cluster_values(values: Sequence[Scalar], radius) -> tuple:
    """Greedy 1-d clustering: sort, split at gaps > radius, take midpoints."""
    if not values:
        return ()
    ordered = sorted(values)
    reps = []
    group = [ordered[0]]
    for v in ordered[1:]:
        if v - group[-1] <= radius:
            group.append(v)
        else:
            reps.append((group[0] + group[-1]) / 2)
            group = [v]
    reps.append((group[0] + group[-1]) / 2)
    return tuple(reps)


def omega_sample(family: MapFamily, x: Scalar, ray, steps: int,
                 cluster_eps, *, divergence_bound=10 ** 9,
                 tail_fraction: float = 0.5) -> OmegaSample:
    """Sample D along the first ``steps`` ray words and cluster the tail.

    The result approximates a subset of the limit set reachable along this
    ray.  On an unbounded domain, values exceeding ``divergence_bound`` in
    absolute size mark the ray divergent and no clusters are reported.
    ``ray`` is a :class:`Ray` or an iterable of signed letters (an explicit
    letter stream, evaluated prefix by prefix).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = family.coerce_point(x)
    if isinstance(ray, Ray):
        values = _ray_values(family, x, ray, steps)
    else:
        letters = list(itertools.islice(iter(ray), steps))
        word = Word.identity(family.n_gens)
        values = []
        for letter in letters:
            extended = word * Word.letter(family.n_gens, letter.gen, letter.sign)
            if not word.is_prefix_of(extended) or extended == word:
                raise WordSyntaxError("letter stream backtracks")
            word = extended
            values.append(evaluate(family, word, x))
    if not family.domain.bounded and any(abs(v) > divergence_bound for v in values):
        return OmegaSample((), True, len(values))
    tail = values[int(len(values) * (1 - tail_fraction)):] or values
    return OmegaSample(cluster_values(tail, cluster_eps), False, len(values))


def stable_set_check(family: MapFamily, spec: SubgroupSpec, x_periodic: Scalar,
                     y: Scalar, steps: int, eps, *, ray_depth: int = 3,
                     max_rays: int = 16,
                     node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Search increasing sequences inside H that carry y toward x_periodic.

    Rays are powers of subgroup members: for a cyclic subgroup, the defining
    word and its inverse; otherwise the first ``max_rays`` members of
    V_ray_depth and their inverses.  True means some sampled sequence entered
    the eps-ball of x_periodic within ``steps``; False means not found at
    these bounds (never a proof of absence).  Rays that stop increasing, or
    that cannot be evaluated in exact mode, are skipped.
    """
    if spec.n_gens != family.n_gens:  # a caller error, not a ray to skip
        raise WordSyntaxError("subgroup and family sizes differ")
    x_periodic = family.coerce_point(x_periodic)
    y = family.coerce_point(y)
    if abs(y - x_periodic) <= eps:
        return True
    if isinstance(spec, CyclicSubgroup):
        seeds = [spec.generator_word, spec.generator_word.inverse()]
    else:
        seeds = list(itertools.islice(_members(spec, ray_depth, node_cap),
                                      max_rays))
        # truncation may have cut a member's inverse out of the ball order
        known = set(seeds)
        seeds += [w.inverse() for w in seeds if w.inverse() not in known]
    for seed in seeds:
        value = y
        try:
            for _word in Ray(seed).words(steps):  # raises once a step cancels
                value = evaluate(family, seed, value)
                if abs(value - x_periodic) <= eps:
                    return True
        except (EvaluationError, WordSyntaxError):
            continue
    return False
