"""Ball averages over growing radii, the sign study, and bound arithmetic.

``cesaro_scan`` computes per-sphere orbit sums once, so every mean
C_n = (sum over the ball V_n) / |V_n| for n <= n_max comes from one pass.
A family with an ``exact_sphere_sums`` hook (the growth-rate and rotation
models) supplies the sums from exact counts by leading letter; every other
family, and a hook that returns None, goes through the tree walk of
:mod:`mdtds._kernels` with the family's ``letter_maps()``: one unary map per
signed letter, called once per non-root word of the ball.  A walk that
succeeds adds the ball's non-root words to ``apply_calls`` once.  A NaN or
an infinity makes its sphere's sum non-finite, so it is caught once per
sphere; a non-finite sum walks the ball again through ``apply``, which checks
every value and builds no word.  Only a walk that fails replays the orbit
walk, which raises at the first failing word in enumeration order and names
it; sums that overflowed from finite values are returned as they are.  Exact
families sum in rationals.  Float rotations sum each sphere exactly and
round it once; other float families sum each sphere in depth-first
preorder, the walk's fixed reduction order.  Either way output is
reproducible bit for bit.  The sign study walks from the int 1 with
``operator.neg`` as every letter's map, so its sums are exact int sums.
"""
from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .engine import MapFamily, _orbit_walk
from .errors import WordSyntaxError
from .scalars import Scalar, format_scalar, int_text, parse_int, parse_scalar
from .words import DEFAULT_NODE_CAP, ball_size, check_ball_cap


@dataclass(frozen=True)
class CesaroRow:
    radius: int
    ball_size: int
    ball_sum: Scalar
    mean: Scalar


@dataclass(frozen=True)
class CesaroReport:
    """Per-radius ball sums and means."""

    rows: tuple

    @property
    def final_mean(self) -> Scalar:
        return self.rows[-1].mean

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "ball_size", "ball_sum", "C_n"])
        for row in self.rows:
            writer.writerow([row.radius, int_text(row.ball_size),
                             format_scalar(row.ball_sum), format_scalar(row.mean)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CesaroReport":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != ["n", "ball_size", "ball_sum", "C_n"]:
            raise WordSyntaxError("unexpected report header")
        rows = [CesaroRow(int(n), parse_int(size), parse_scalar(total), parse_scalar(mean))
                for n, size, total, mean in reader]
        return cls(tuple(rows))


def _object_sphere_sums(family: MapFamily, x: Scalar, n_max: int,
                        node_cap: int) -> list:
    n_gens = family.n_gens
    check_ball_cap(n_max, n_gens, node_cap)
    before = family.apply_calls
    try:
        sums = _kernels.scan_object(n_gens, n_max, family.letter_maps(), x,
                                    node_cap=node_cap)
        # a NaN or an infinity makes its sphere's float sum non-finite; the
        # maps through apply check every value, without building words
        if any(isinstance(s, float) and not math.isfinite(s) for s in sums):
            _kernels.scan_object(n_gens, n_max, MapFamily.letter_maps(family),
                                 x, node_cap=node_cap)
    except Exception:
        # the tree walk tracks no words: the orbit walk raises at the first
        # failing word in enumeration order and names it
        family.apply_calls = before
        for _ in _orbit_walk(family, x, n_max, node_cap):
            pass
        raise
    family.apply_calls = before + ball_size(n_max, n_gens) - 1
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
        rows.append(CesaroRow(n, size, running, running / size))
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
    sums = _kernels.scan_object(n_gens, radius, [operator.neg] * q, 1,
                                node_cap=node_cap)
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
