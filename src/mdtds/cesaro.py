"""Ball averages over growing radii, the sign study, and bound arithmetic.

``cesaro_scan`` computes per-sphere orbit sums once, so every mean
C_n = (sum over the ball V_n) / |V_n| for n <= n_max comes from one pass.
A family with an ``exact_sphere_sums`` hook (the growth-rate and exact
rotation models) supplies the sums by recurrence; every other family, and a
hook that returns None, goes through the tree walk of :mod:`mdtds._kernels`.
Exact families sum in rationals; approximate families sum floats in the
walk's fixed reduction order, so output is reproducible bit for bit.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import _kernels
from .engine import MapFamily, _orbit_walk
from .errors import EvaluationError, WordSyntaxError
from .scalars import Scalar, format_scalar, parse_scalar
from .words import DEFAULT_NODE_CAP, ball_size


@dataclass(frozen=True)
class CesaroRow:
    radius: int
    ball_size: int
    ball_sum: Scalar
    mean: Scalar


@dataclass(frozen=True)
class CesaroReport:
    """Per-radius ball sums and means, plus even/odd tail views."""

    rows: tuple

    @property
    def final_mean(self) -> Scalar:
        return self.rows[-1].mean

    def tail(self, parity: int) -> Optional[Scalar]:
        """Last mean with radius of the given parity (0 even, 1 odd)."""
        for row in reversed(self.rows):
            if row.radius % 2 == parity:
                return row.mean
        return None

    @property
    def final_gap(self) -> Optional[Scalar]:
        """|C_n - C_{n-1}| at the largest radius; None below radius 1."""
        if len(self.rows) < 2:
            return None
        return abs(self.rows[-1].mean - self.rows[-2].mean)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "ball_size", "ball_sum", "C_n"])
        for row in self.rows:
            writer.writerow([row.radius, row.ball_size,
                             format_scalar(row.ball_sum), format_scalar(row.mean)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CesaroReport":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != ["n", "ball_size", "ball_sum", "C_n"]:
            raise WordSyntaxError("unexpected report header")
        rows = [CesaroRow(int(n), int(size), parse_scalar(total), parse_scalar(mean))
                for n, size, total, mean in reader]
        return cls(tuple(rows))


def _object_sphere_sums(family: MapFamily, x: Scalar, n_max: int,
                        node_cap: int) -> list:
    apply = family.apply
    letters = [(gen, sign) for gen in range(1, family.n_gens + 1)
               for sign in (1, -1)]

    def step(value, letter_index):
        gen, sign = letters[letter_index]
        return apply(value, gen, sign)

    try:
        sums = _kernels.scan_object(family.n_gens, n_max, step, x,
                                    node_cap=node_cap)
    except EvaluationError:
        # the walk does not track words: the orbit walk over the same ball
        # fails too, at the first failing word in enumeration order, and
        # names it
        for _ in _orbit_walk(family, x, n_max, node_cap, {}):
            pass
        raise
    return sums


def cesaro_scan(family: MapFamily, x: Scalar, n_max: int, *, threads: int = 1,
                node_cap: int = DEFAULT_NODE_CAP) -> CesaroReport:
    """Means of the orbit over balls V_0 .. V_n_max, one pass total.

    ``node_cap`` bounds the work: states visited on the recurrence paths,
    words in the ball on the walk.  ``threads`` is accepted and has no
    effect.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = family.coerce_point(x)
    sphere_sums = None
    scan_hook = getattr(family, "exact_sphere_sums", None)
    if scan_hook is not None:
        sphere_sums = scan_hook(x, n_max, node_cap=node_cap)
    if sphere_sums is None:
        sphere_sums = _object_sphere_sums(family, x, n_max, node_cap)
    rows = []
    running = sphere_sums[0] - sphere_sums[0]  # zero of the right type
    for n in range(n_max + 1):
        running = running + sphere_sums[n]
        size = ball_size(n, family.n_gens)
        mean = Fraction(running, size) if isinstance(running, (Fraction, int)) \
            else running / size
        rows.append(CesaroRow(n, size, running, mean))
    return CesaroReport(tuple(rows))


# -- the alternating-sign study --------------------------------------------------


def _check_even_q(q: int) -> int:
    if q < 4 or q % 2:
        raise ValueError("q must be an even vertex degree >= 4")
    return q // 2


def sign_ball_sum(radius: int, q: int) -> int:
    """Closed form for the ball sum of (-1)^|t|: (q-1)^n, negated for odd n."""
    _check_even_q(q)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    value = (q - 1) ** radius
    return value if radius % 2 == 0 else -value


def sign_ball_sum_brute(radius: int, q: int, *, threads: int = 1,
                        node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Brute-force ball sum of (-1)^|t| by walking the tree.

    ``threads`` is accepted and has no effect.
    """
    n_gens = _check_even_q(q)
    sums = _kernels.scan_object(n_gens, radius, lambda value, letter: -value,
                                1, node_cap=node_cap)
    return sum(sums)


def sign_cesaro(radius: int, q: int) -> Fraction:
    """Ball average of (-1)^|t|; the even/odd subsequences tend to +-(q-2)/q."""
    n_gens = _check_even_q(q)
    return Fraction(sign_ball_sum(radius, q), ball_size(radius, n_gens))


def sign_limits(q: int) -> tuple:
    """(even limit, odd limit) of the alternating-sign ball averages."""
    _check_even_q(q)
    return Fraction(q - 2, q), Fraction(-(q - 2), q)


# -- weighted geometric sums -------------------------------------------------------


def geometric_k_sum(x: Scalar, n: int) -> Scalar:
    """Sum of k * x^k for k = 1..n, in closed form.

    For x != 1: x(1 - x^n)/(1 - x)^2 - n x^(n+1)/(1 - x); the x = 1 case is
    the triangular number n(n+1)/2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(x, int):
        x = Fraction(x)
    if x == 1:
        return Fraction(n * (n + 1), 2) if isinstance(x, Fraction) else n * (n + 1) / 2
    one = 1
    return x * (one - x ** n) / (one - x) ** 2 - n * x ** (n + 1) / (one - x)


# -- ball-average bound calculator ---------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Per-map average offsets and contraction caps for the bound arithmetic.

    ``alphas``/``betas`` are the forward/backward average offsets per map;
    ``fwd_caps``/``bwd_caps`` bound the decaying parts and must satisfy
    0 < cap < q - 1 where q = 2 * (number of maps).
    """

    alphas: tuple
    betas: tuple
    fwd_caps: tuple
    bwd_caps: tuple

    def __post_init__(self):
        n = len(self.alphas)
        if n < 2:
            raise WordSyntaxError("bound arithmetic needs at least two maps")
        if not (len(self.betas) == len(self.fwd_caps) == len(self.bwd_caps) == n):
            raise WordSyntaxError("parameter tuples must have equal length")
        limit = 2 * n - 1
        for cap in (*self.fwd_caps, *self.bwd_caps):
            if not 0 < cap < limit:
                raise WordSyntaxError(
                    f"contraction cap {cap} outside (0, {limit})")

    @property
    def n_gens(self) -> int:
        return len(self.alphas)

    @property
    def q(self) -> int:
        return 2 * self.n_gens

    @property
    def offset_total(self) -> Fraction:
        return sum(self.alphas) + sum(self.betas)


def cesaro_bounds(params: BoundParams) -> tuple:
    """(lower, upper) for the limiting ball average under the decay condition.

    lower = (q-1) A / (q (q-2)) with A the total offset; the upper bound adds
    (q-2) * sum of cap/(q - cap - 1)^2 over both directions.
    """
    q = Fraction(params.q)
    total = Fraction(params.offset_total)
    lower = (q - 1) * total / (q * (q - 2))
    gap = sum(Fraction(a) / (q - a - 1) ** 2 + Fraction(b) / (q - b - 1) ** 2
              for a, b in zip(params.fwd_caps, params.bwd_caps))
    upper = lower + (q - 2) * gap
    return lower, upper
