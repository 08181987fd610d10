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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .errors import DomainViolationError, EvaluationError, WordSyntaxError
from .scalars import DEFAULT_TOL, Scalar, exact_sqrt
from .subgroups import SubgroupSpec, _cyclic_word, _members
from .words import DEFAULT_NODE_CAP, Word, _walk, check_ball_cap


@dataclass(frozen=True)
class Domain:
    """An interval of the reals; None bounds mean unbounded.

    NaN and the infinities are not reals, so no domain contains them.  A
    float is compared with a float copy of each bound that converts exactly
    (0, 1, 1/2, ...), which gives the exact comparison's answer without
    building a Fraction from the float; other bounds are compared as given.
    """

    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    lower_open: bool = False
    upper_open: bool = False
    _float_lower: Optional[Scalar] = field(init=False, repr=False,
                                           compare=False)
    _float_upper: Optional[Scalar] = field(init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_float_lower", _float_bound(self.lower))
        object.__setattr__(self, "_float_upper", _float_bound(self.upper))

    def contains(self, x: Scalar) -> bool:
        lower, upper = self.lower, self.upper
        if isinstance(x, float):
            if not math.isfinite(x):
                return False
            lower, upper = self._float_lower, self._float_upper
        if lower is not None:
            if x < lower or (self.lower_open and x == lower):
                return False
        if upper is not None:
            if x > upper or (self.upper_open and x == upper):
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


def _float_bound(bound):
    """``bound`` as a float when the conversion is exact, else as given.

    None (no bound) and a bound past the largest float stay as given.  The
    copy is exact when its integer ratio is the bound's, which compares
    integers, not a Fraction with a float.
    """
    if bound is None:
        return None
    try:
        copy = float(bound)
        exact = copy.as_integer_ratio() == bound.as_integer_ratio()
    except (OverflowError, ValueError):  # past the largest float; inf, NaN
        return bound
    return copy if exact else bound


class MapFamily:
    """A family of invertible self-maps of an interval, indexed 1..n_gens.

    Subclasses implement ``apply(x, gen, power)`` meaning the ``power``-th
    iterate (negative powers use the closed-form inverse).  ``exact`` families
    work on Fractions and compare by equality; approximate families work on
    floats and compare within ``tol``, and ``values_equal`` is the one place
    that decides which.  ``letter_maps()`` gives the same maps at powers +1
    and -1 as 2k unary callables, the ones the ball walk calls once per
    word; a subclass may override it with tighter callables that return
    what ``apply`` returns and raise what it raises.  Such an override need
    not count, and on a domain with no bounds it may leave the NaN/infinity
    check to the scan, which checks each sphere sum once and walks a
    non-finite one's ball again with this base class's maps.
    ``apply_calls`` counts map applications: ``apply`` counts its own calls,
    and a ball scan counts one application per non-root word (an
    instrumentation hook for the one-application-per-edge orbit invariant;
    not thread-safe).
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

    def letter_maps(self) -> list:
        """Unary maps per signed letter: ``[f_1, f_1^-1, f_2, f_2^-1, ...]``.

        Entry ``2*(gen-1) + (0 if sign > 0 else 1)`` maps ``v`` to
        ``apply(v, gen, sign)``.
        """
        apply = self.apply
        return [lambda value, gen=gen, sign=sign: apply(value, gen, sign)
                for gen in range(1, self.n_gens + 1) for sign in (1, -1)]

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

    Each signed letter has one checked step, built once: its callable, then
    a domain check that raises DomainViolationError on the value returned.
    ``apply`` iterates a power through that step, so every intermediate
    value is checked.  ``letter_maps()`` gives these same steps on a domain
    with a bound, and the callables themselves on a domain with none.
    """

    def __init__(self, pairs: Sequence, domain: Domain, exact: bool = True,
                 tol: float = DEFAULT_TOL):
        super().__init__(len(pairs), domain, exact, tol)
        # entry 2*(gen-1) + (0 if sign > 0 else 1), as in letter_maps()
        self._maps = tuple(pair[i] for pair in pairs for i in (0, 1))
        self._steps = tuple(_checked_step(fn, domain.contains) for fn in self._maps)

    def apply(self, x: Scalar, gen: int, power: int) -> Scalar:
        self.apply_calls += 1
        if not 1 <= gen <= self.n_gens:
            raise WordSyntaxError(f"map index {gen} out of range")
        step = self._steps[2 * (gen - 1) + (0 if power > 0 else 1)]
        for _ in range(abs(power)):
            x = step(x)
        return x

    def letter_maps(self) -> list:
        """The checked steps, or the given callables on a domain with no bounds.

        A domain with no bounds holds every value but NaN and the
        infinities, so there the scan checks each sphere sum for those
        values instead, walks a non-finite one's ball again through
        ``apply``, and replays the orbit walk only to name a word whose
        value fails.  Neither kind counts applications.
        """
        if self.domain.lower is None and self.domain.upper is None:
            return list(self._maps)
        return list(self._steps)


def _checked_step(fn, contains):
    """``fn`` followed by the domain check of the value it returns."""
    def step(value):
        value = fn(value)
        if not contains(value):
            raise DomainViolationError(value)
        return value
    return step


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
    a, b, root = ((Fraction(3, 4), Fraction(1, 4), exact_sqrt) if exact
                  else (0.75, 0.25, math.sqrt))
    pairs = [(lambda v: a * v + b, lambda v: (v - b) / a), (lambda v: v * v, root)]
    return CallableMapFamily(pairs, Domain(Fraction(0), Fraction(1)), exact=exact)


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

    def items(self):
        return self.values.items()


def _orbit_walk(family: MapFamily, x: Scalar, radius: int,
                node_cap: int) -> Iterator[tuple]:
    """Yield (word, orbit value) over V_radius in enumeration order, lazily.

    One map application per tree edge: a child's value is its letter applied
    to its parent's.  The words come from the preorder walk ``words._walk``
    (the order of ``ball_enumerate``, without its parent words), so the
    parent of a word at depth d is the last word yielded at depth d-1;
    ``path[d]`` holds that last value, and a child reads its parent's value
    from ``path[d - 1]`` with no lookup by word.  An EvaluationError leaves
    with the failing word set.
    """
    apply = family.apply
    path = [x] * (min(radius, node_cap) + 1)  # c words reach depth c-1 at most
    walk = _walk(family.n_gens, radius, node_cap)
    yield next(walk)[0], x
    for word, (gen, sign) in walk:
        depth = word.length
        try:
            value = apply(path[depth - 1], gen, sign)
        except EvaluationError as exc:
            exc.word = word
            raise
        path[depth] = value
        yield word, value


def orbit_ball(family: MapFamily, x: Scalar, radius: int, *,
               node_cap: int = DEFAULT_NODE_CAP) -> OrbitBall:
    """Evaluate the orbit over V_radius with one map application per edge.

    Raises ResourceLimitError before evaluating anything when the ball has
    more than ``node_cap`` words.
    """
    x = family.coerce_point(x)
    check_ball_cap(radius, family.n_gens, node_cap)
    return OrbitBall(x, radius, dict(_orbit_walk(family, x, radius, node_cap)))


# -- fixed points ---------------------------------------------------------------


def fixed_point_residual(family: MapFamily, x: Scalar) -> Scalar:
    """max over maps of |f_i(x) - x|; zero iff x is fixed by every map."""
    x = family.coerce_point(x)
    return max(abs(family.apply(x, i, 1) - x) for i in range(1, family.n_gens + 1))


def is_fixed(family: MapFamily, x: Scalar) -> bool:
    return family.values_equal(fixed_point_residual(family, x), 0)


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


def _first_violation(family: MapFamily, members, t: Word,
                     value: Scalar) -> Optional[Counterexample]:
    """The first member r (in ``members`` order) with D_r(value) != value.

    D_r fixes v iff D_{r^-1} fixes v (inverse bijections), so an r that
    cannot be evaluated exactly gives way to its inverse, which is named."""
    for r in members:
        try:
            rhs = evaluate(family, r, value)
        except EvaluationError:
            r = r.inverse()
            rhs = evaluate(family, r, value)
        if not family.values_equal(rhs, value):
            return Counterexample(t, r, value, rhs)
    return None


def _search(family: MapFamily, spec: SubgroupSpec, x: Scalar, depth_t: int,
            depth_r: int, node_cap: int) -> PeriodicityVerdict:
    """The first (t, r) in enumeration order with D_r(D_t(x)) != D_t(x), t in
    V_depth_t and r in H within V_depth_r, else VerifiedUpTo.  The members
    are streamed while t = e is checked, so a witness there ends the member
    walk, and those drawn are kept for every later t.  Both walks count only
    the words they visit against ``node_cap``."""
    if spec.n_gens != family.n_gens:
        raise WordSyntaxError("subgroup and family sizes differ")
    x = family.coerce_point(x)
    members = []

    def drawn():
        for r in _members(spec, depth_r, node_cap):
            members.append(r)
            yield r

    # An exact value equal to one already checked passed the same checks, so
    # the first counterexample in (t, r) order is unchanged by skipping it.
    checked = set() if family.exact else None
    source = drawn()
    for t, value in _orbit_walk(family, x, depth_t, node_cap):
        if checked is not None:
            if value in checked:
                continue
            checked.add(value)
        found = _first_violation(family, source, t, value)
        if found is not None:
            return found
        source = members
    return VerifiedUpTo(depth_t, depth_r)


def is_h_fixed(family: MapFamily, spec: SubgroupSpec, x: Scalar, depth: int, *,
               node_cap: int = DEFAULT_NODE_CAP) -> PeriodicityVerdict:
    """Check D_y(x) = x for every subgroup member in the ball of ``depth``:
    the search at t = e alone, which ends the member walk at a violation."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return _search(family, spec, x, 0, depth, node_cap)


def is_h_periodic(family: MapFamily, spec: SubgroupSpec, x: Scalar,
                  depth_t: int, depth_r: int, *,
                  node_cap: int = DEFAULT_NODE_CAP) -> PeriodicityVerdict:
    """Check D_{r t}(x) = D_t(x) for t in V_depth_t and r in the H-ball.

    As D_{r t} = D_r o D_t, one orbit walk tests each value against the
    members (see ``_search``), an exact family each distinct value once, and
    the first failure in (t, r) enumeration order is returned.
    """
    if depth_t < 1 or depth_r < 1:
        raise ValueError("depths must be >= 1")
    return _search(family, spec, x, depth_t, depth_r, node_cap)


# -- omega-limit sampling ---------------------------------------------------------


@dataclass(frozen=True)
class Ray:
    """The words prefix * period^k, k = 1, 2, ..., strictly increasing unless
    a seam cancels (``_cancels``): prefix with period at step 1, period with
    itself from step 2.  ``_ray_values`` checks both seams once."""

    period: Word
    prefix: Optional[Word] = None

    def __post_init__(self):
        if self.period.is_identity:
            raise WordSyntaxError("ray period must not be the identity")
        if self.prefix is not None and self.prefix.n_gens != self.period.n_gens:
            raise WordSyntaxError("ray prefix and period over different groups")


def _cancels(left: Word, right: Word) -> bool:
    """True iff left's last letter is the inverse of right's first: a product
    of reduced words is reduced exactly when nothing cancels at this seam."""
    return bool(left.runs and right.runs) and \
        left.last_letter() == right.first_letter().inverse()


def _ray_values(family: MapFamily, x: Scalar, ray: Ray, steps: int):
    """Yield the values at the first ``steps`` ray words, lazily.

    D_{prefix * period^k}(x) = D_prefix((D_period)^k(x)): each step applies
    the period once and puts the prefix on top, so the cost is linear in
    ``steps`` and no ray word is built.  The two seams are checked once;
    WordSyntaxError comes just before the first step whose word would cancel.
    """
    period, prefix = ray.period, ray.prefix
    stop = 1 if prefix is not None and _cancels(prefix, period) \
        else 2 if _cancels(period, period) else None
    for step in range(1, steps + 1):
        if step == stop:
            raise WordSyntaxError(f"ray is not strictly increasing at step {step}")
        x = evaluate(family, period, x)
        yield x if prefix is None else evaluate(family, prefix, x)


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
    letter stream).  A Ray increases unless a seam cancels, checked once, at
    a cost linear in ``steps``.  A letter stream evaluates each prefix from
    scratch, as the new letter acts first: for maps that do not commute,
    that quadratic cost cannot be avoided.  ``tail_fraction``, in (0, 1],
    is the share of the sample, from its end, that is clustered; the tail
    keeps at least the last value.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    x = family.coerce_point(x)
    if isinstance(ray, Ray):
        values = list(_ray_values(family, x, ray, steps))
    else:
        word = Word.identity(family.n_gens)
        values = []
        for letter in list(itertools.islice(iter(ray), steps)):
            step = Word.letter(family.n_gens, letter.gen, letter.sign)
            if _cancels(word, step):
                raise WordSyntaxError("letter stream backtracks")
            word = word * step
            values.append(evaluate(family, word, x))
    if not family.domain.bounded and any(abs(v) > divergence_bound for v in values):
        return OmegaSample((), True, len(values))
    tail = values[min(int(len(values) * (1 - tail_fraction)), len(values) - 1):]
    return OmegaSample(cluster_values(tail, cluster_eps), False, len(values))


def stable_set_check(family: MapFamily, spec: SubgroupSpec, x_periodic: Scalar,
                     y: Scalar, steps: int, eps, *, ray_depth: int = 3,
                     max_rays: int = 16,
                     node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Search increasing sequences inside H that carry y toward x_periodic.

    Rays are powers of subgroup members: for a cyclic subgroup (read by
    ``subgroups._cyclic_word``, so ``and(cyclic:u;full)`` is cyclic too),
    the defining word and its inverse; otherwise the first ``max_rays``
    members of V_ray_depth and their inverses.  True means some sampled
    sequence entered the eps-ball of x_periodic within ``steps``; False
    means not found at these bounds (never a proof of absence), which
    covers V_ray_depth holding no member of H but e: then no ray runs at
    all.  Each ray runs through ``_ray_values`` (seams checked once, cost
    linear in ``steps``); rays that stop increasing or cannot be evaluated
    in exact mode are skipped.
    """
    if spec.n_gens != family.n_gens:  # a caller error, not a ray to skip
        raise WordSyntaxError("subgroup and family sizes differ")
    x_periodic = family.coerce_point(x_periodic)
    y = family.coerce_point(y)
    if abs(y - x_periodic) <= eps:
        return True
    u = _cyclic_word(spec)
    if u is not None:
        seeds = [u, u.inverse()]
    else:
        seeds = list(itertools.islice(_members(spec, ray_depth, node_cap),
                                      max_rays))
        # truncation may have cut a member's inverse out of the ball order
        known = set(seeds)
        seeds += [w.inverse() for w in seeds if w.inverse() not in known]
    for seed in seeds:
        try:
            if any(abs(value - x_periodic) <= eps
                   for value in _ray_values(family, y, Ray(seed), steps)):
                return True
        except (EvaluationError, WordSyntaxError):
            continue
    return False
