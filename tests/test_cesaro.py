import math
import sys
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdtds import (BankFamily, BoundParams, CallableMapFamily, CesaroReport,
                   CesaroRow, CircleFamily, Domain, DomainViolationError,
                   EvaluationError, ResourceLimitError, WordSyntaxError,
                   _kernels, affine_and_square_family, ball_enumerate,
                   ball_size, ball_sum_brute, cesaro_bounds, cesaro_scan,
                   geometric_k_sum, identity_family, sign_ball_sum,
                   orbit_ball, sign_ball_sum_brute, sign_cesaro, sign_limits)

from mdtds import cesaro, circle
from mdtds.words import DEFAULT_NODE_CAP

from conftest import (LETTER_MAP_FAMILIES, W, fold_spheres, preorder_spheres,
                      random_fraction)


class TestScan:
    def test_constant_family(self):
        report = cesaro_scan(identity_family(2), F(5, 7), 4)
        assert all(row.mean == F(5, 7) for row in report.rows)

    def test_bank_first_radius(self):
        report = cesaro_scan(BankFamily([2, 3]), F(1), 1)
        assert report.rows[1].ball_sum == F(41, 6)
        assert report.rows[1].mean == F(41, 30)

    def test_row_consistency(self):
        report = cesaro_scan(BankFamily([2, 3]), F(2, 3), 5)
        for row in report.rows:
            assert row.ball_size == ball_size(row.radius, 2)
            assert row.mean == F(row.ball_sum, row.ball_size)

    def test_matches_per_sphere_brute_force(self):
        # independent accumulation straight off the enumerated words
        family = BankFamily([F(3, 2), F(5, 2)])
        report = cesaro_scan(family, F(1), 6)
        sphere_sums = [F(0)] * 7
        from mdtds import evaluate
        for node in ball_enumerate(6, 2):
            sphere_sums[node.word.length] += evaluate(family, node.word, F(1))
        running = F(0)
        for n in range(7):
            running += sphere_sums[n]
            assert report.rows[n].ball_sum == running

    def test_circle_exact_kernel_matches_object_path(self):
        family = CircleFamily([F(1, 2), F(1, 3)])
        report = cesaro_scan(family, F(1, 7), 5)
        # recompute via the generic object scan by hiding the fast path
        family2 = CircleFamily([F(1, 2), F(1, 3)])
        family2.exact_sphere_sums = lambda *a, **k: None
        report2 = cesaro_scan(family2, F(1, 7), 5)
        assert report.to_csv() == report2.to_csv()

    def test_thread_counts_do_not_change_output(self):
        family = BankFamily([2, 3])
        base = cesaro_scan(family, F(1), 8).to_csv()
        for threads in (2, 4, 8):
            assert cesaro_scan(BankFamily([2, 3]), F(1), 8,
                               threads=threads).to_csv() == base

    def test_float_scan_deterministic_across_threads(self):
        family = CircleFamily([0.41421356, 0.59], exact=False)
        base = cesaro_scan(family, 0.1, 6).to_csv()
        again = cesaro_scan(CircleFamily([0.41421356, 0.59], exact=False),
                            0.1, 6, threads=8).to_csv()
        assert base == again

    def test_walk_error_names_the_word(self):
        family = affine_and_square_family(exact=False)
        with pytest.raises(DomainViolationError) as scan_error:
            cesaro_scan(family, 0.5, 9)
        assert scan_error.value.word == W("s1^-1 s2 s1^-2 s2 s1^4")
        with pytest.raises(DomainViolationError) as orbit_error:
            orbit_ball(family, 0.5, 9)
        assert orbit_error.value.word == scan_error.value.word

    def test_csv_round_trip(self):
        report = cesaro_scan(BankFamily([2, 3]), F(1), 3)
        assert CesaroReport.from_csv(report.to_csv()) == report

    def test_csv_round_trip_past_the_int_text_limit(self):
        # at radius 3,000 the exact sums have about 16,500 digits, far past
        # CPython's 4,300-digit int-to-text limit; the last rows carry them,
        # and a ball size passes it from radius 9,000 on
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        rows = cesaro_scan(BankFamily([2, 3]), F(1), 3000).rows[-2:]
        report = CesaroReport(rows + (CesaroRow(10 ** 4, ball_size(10 ** 4, 2),
                                                F(1), F(1)),))
        assert rows[-1].ball_sum.numerator.bit_length() > 4300 * 10 / 3
        text = report.to_csv()
        assert text.splitlines()[-2].startswith("3000,")
        assert CesaroReport.from_csv(text) == report
        assert limit() == before


def _walked(family):
    """The same family with its sphere-sum hook hidden, so scans walk."""
    family.exact_sphere_sums = lambda *a, **k: None
    return family


@st.composite
def _scan_cases(draw, params):
    """(1-3 model parameters, radius <= 7); radius <= 6 on 3 generators."""
    values = draw(st.lists(params, min_size=1, max_size=3))
    return values, draw(st.integers(0, 7 if len(values) < 3 else 6))


# rates > 1, integer or not
_rates = st.builds(lambda den, extra: F(den + extra, den),
                   st.integers(1, 9), st.integers(1, 30))
# positive angles with denominators up to 10^4
_angles = st.builds(F, st.integers(1, 3 * 10 ** 4), st.integers(1, 10 ** 4))
_deposits = st.builds(F, st.integers(1, 10 ** 3), st.integers(1, 10 ** 3))
_circle_points = st.integers(1, 10 ** 4).flatmap(
    lambda den: st.builds(F, st.integers(0, den - 1), st.just(den)))


class TestExactSphereSums:
    """The recurrence hooks against the tree walk, on random inputs."""

    @settings(max_examples=40, deadline=None)
    @given(_scan_cases(_rates), _deposits)
    def test_bank_recurrence_matches_walk(self, case, x):
        rates, radius = case
        report = cesaro_scan(BankFamily(rates), x, radius)
        walked = cesaro_scan(_walked(BankFamily(rates)), x, radius)
        assert report.rows == walked.rows
        assert ball_sum_brute(rates, x, radius) == report.rows[-1].ball_sum

    @settings(max_examples=40, deadline=None)
    @given(_scan_cases(_angles), _circle_points)
    def test_circle_residue_counts_match_walk(self, case, x):
        angles, radius = case
        report = cesaro_scan(CircleFamily(angles), x, radius)
        walked = cesaro_scan(_walked(CircleFamily(angles)), x, radius)
        assert report.rows == walked.rows

    def test_bank_cap_counts_recurrence_steps(self):
        # 1 root + 4 letters * 200 depths; the ball itself has ~10^95 words
        report = cesaro_scan(BankFamily([2, 3]), 1, 200)
        assert report.rows[-1].ball_size == ball_size(200, 2)
        cesaro_scan(BankFamily([2, 3]), 1, 200, node_cap=801)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(BankFamily([2, 3]), 1, 200, node_cap=800)

    def test_circle_cap_counts_residue_states(self):
        family = CircleFamily([F(1, 5), F(1, 6)])  # common denominator 30
        report = cesaro_scan(family, F(1, 3), 200)
        assert len(report.rows) == 201
        assert 0 <= report.final_mean < 1
        # at most 4 letters * 30 residues per depth
        cesaro_scan(family, F(1, 3), 200, node_cap=1 + 200 * 120)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, F(1, 3), 200, node_cap=1000)

    def test_walk_keeps_the_ball_size_cap(self):
        family = affine_and_square_family(exact=False)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, 0.1, 200)


def _float_rows_close(report, walked):
    """Per row, |sum - walked sum| <= 1e-9 (|walked sum| + |V_n|)."""
    assert [row.radius for row in report.rows] == \
        [row.radius for row in walked.rows]
    for row, other in zip(report.rows, walked.rows):
        assert row.ball_size == other.ball_size
        tol = 1e-9 * (abs(other.ball_sum) + other.ball_size)
        assert abs(row.ball_sum - other.ball_sum) <= tol


def _vector_states(n_gens, radius):
    """1 + the (depth, leading letter, exponent vector) triples of the ball,
    found by enumerating its words: the work of a float circle scan."""
    states = set()
    for node in ball_enumerate(radius, n_gens):
        runs = node.word.runs
        if runs:
            vector = [0] * n_gens
            for gen, exp in runs:
                vector[gen - 1] += exp
            states.add((node.word.length, runs[0][0], runs[0][1] > 0,
                        tuple(vector)))
    return 1 + len(states)


# (1-3 angles, radius <= 7, radius <= 5 on 3 generators)
_float_cases = st.lists(
    st.floats(1e-3, 3.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=3).flatmap(
    lambda angles: st.tuples(st.just(angles),
                             st.integers(0, 7 if len(angles) < 3 else 5)))


@st.composite
def _seam_cases(draw):
    """Floats of p/q angles and a base point r/q: x + rotation hits integers."""
    den = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(1, 3 * den), min_size=1, max_size=3))
    radius = draw(st.integers(0, 7 if len(nums) < 3 else 5))
    return ([F(p, den) for p in nums], F(draw(st.integers(0, den - 1)), den),
            radius)


class TestFloatRotationCounts:
    """Float circle scans count words by the residue of their exact value
    (a float angle is a dyadic rational); the walk is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(_float_cases, st.floats(0, 1, exclude_max=True))
    def test_vector_counts_match_walk(self, case, x):
        angles, radius = case
        report = cesaro_scan(CircleFamily(angles, exact=False), x, radius)
        walked = cesaro_scan(_walked(CircleFamily(angles, exact=False)),
                             x, radius)
        _float_rows_close(report, walked)

    @settings(max_examples=40, deadline=None)
    @given(_seam_cases())
    def test_orbits_through_the_seam_match_walk_and_exact(self, case):
        angles, x, radius = case
        floats = [float(a) for a in angles]
        report = cesaro_scan(CircleFamily(floats, exact=False), float(x),
                             radius)
        walked = cesaro_scan(_walked(CircleFamily(floats, exact=False)),
                             float(x), radius)
        _float_rows_close(report, walked)
        _float_rows_close(report, cesaro_scan(CircleFamily(angles), x, radius))

    def test_radius_60_runs_and_repeats_bit_for_bit(self):
        # the walk refuses this ball up front: it has ~10^28 words
        assert ball_size(60, 2) > DEFAULT_NODE_CAP
        family = CircleFamily([2 ** 0.5 - 1, 0.59], exact=False)
        report = cesaro_scan(family, 0.1, 60)
        assert all(0 <= row.mean < 1 for row in report.rows)
        again = cesaro_scan(CircleFamily([2 ** 0.5 - 1, 0.59], exact=False),
                            0.1, 60)
        assert report.to_csv() == again.to_csv()

    def test_cap_refuses_a_radius_200_scan(self):
        family = CircleFamily([0.2, 1 / 6], exact=False)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, 0.1, 200, node_cap=10_000)

    @pytest.mark.parametrize("n_gens, radius", [(1, 9), (2, 6), (3, 4)])
    def test_cap_counts_vector_states(self, n_gens, radius):
        family = CircleFamily([0.3, 2 ** 0.5, 0.7][:n_gens], exact=False)
        work = _vector_states(n_gens, radius)
        assert work <= ball_size(radius, n_gens)
        cesaro_scan(family, 0.1, radius, node_cap=work)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, 0.1, radius, node_cap=work - 1)

    def test_commensurate_angles_share_residues(self):
        # (1/2, 1/4) at x = 1/8 has 8 residues: 1,583 states to radius 100,
        # where exponent vectors need 1,981
        family = CircleFamily([0.5, 0.25], exact=False)
        report = cesaro_scan(family, 0.125, 100, node_cap=1583)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, 0.125, 100, node_cap=1582)
        exact = cesaro_scan(CircleFamily([F(1, 2), F(1, 4)]), F(1, 8), 100)
        for row, other in zip(report.rows, exact.rows):
            assert abs(row.mean - other.mean) <= 1e-15

    def test_ball_past_the_largest_float_is_refused_before_any_state(
            self, monkeypatch):
        assert ball_size(645, 2) <= sys.float_info.max < ball_size(646, 2)

        def no_counts(*args):
            raise AssertionError("a state was counted")
        monkeypatch.setattr(circle, "_sphere_counts", no_counts)
        family = CircleFamily([0.5, 0.25], exact=False)
        with pytest.raises(DomainViolationError, match="radius 646"):
            cesaro_scan(family, 0.125, 646, node_cap=100_000)

    def test_subnormal_base_point_matches_walk(self):
        # x = 2**-1074: the common denominator has over a thousand bits
        angles = [0.3, 2 ** 0.5]
        report = cesaro_scan(CircleFamily(angles, exact=False), 5e-324, 6)
        walked = cesaro_scan(_walked(CircleFamily(angles, exact=False)),
                             5e-324, 6)
        _float_rows_close(report, walked)


def _line_pairs(rates):
    return [((lambda v, a=a: v * a), (lambda v, a=a: v / a)) for a in rates]


_SQUARE_PAIRS = [(lambda v: 0.75 * v + 0.25, lambda v: (v - 0.25) / 0.75),
                 (lambda v: v * v, math.sqrt)]


class TestFloatWalkScans:
    """Float families without a hook: cesaro_scan against a preorder walk."""

    @pytest.mark.parametrize("frontier", [1024, 5])
    @pytest.mark.parametrize("pairs,domain,x,radius", [
        (_SQUARE_PAIRS, Domain(F(0), F(1)), 0.99, 6),
        (_line_pairs([1.25, 1.75]), Domain(), 2.25, 7),
        (_line_pairs([1.375, 2.0, 1.125]), Domain(), 0.75, 5),
    ])
    def test_sums_match_a_preorder_walk_bit_for_bit(self, monkeypatch,
                                                    frontier, pairs, domain,
                                                    x, radius):
        monkeypatch.setattr(_kernels, "_FRONTIER", frontier)
        family = CallableMapFamily(pairs, domain, exact=False)
        report = cesaro_scan(family, x, radius)
        assert family.apply_calls == ball_size(radius, family.n_gens) - 1

        def step(value, letter):
            return pairs[letter // 2][letter % 2](value)

        spheres = fold_spheres(
            preorder_spheres(family.n_gens, radius, step, x), x, list)
        running, expected = x - x, []
        for total in spheres:
            running = running + total
            expected.append(repr(running))
        assert [repr(row.ball_sum) for row in report.rows] == expected


def _float_lines(pairs):
    return lambda: CallableMapFamily(pairs, Domain(), exact=False)


# the families the scan walks (no sphere-sum hook), and line families whose
# orbits or sums leave the floats
_WALKED_KINDS = ("affine/square exact", "affine/square float",
                 "callable exact", "callable float", "identity")
_SCANNED = {kind: LETTER_MAP_FAMILIES[kind][0] for kind in _WALKED_KINDS}
_SCANNED.update({
    "lines 1.5, 1.25": _float_lines(_line_pairs([1.5, 1.25])),
    "lines 1.00001, 1.00002": _float_lines(_line_pairs([1.00001, 1.00002])),
    "lines -2, 1.5": _float_lines(_line_pairs([-2.0, 1.5])),
    # round() raises OverflowError on inf, not an evaluation error
    "scale and round": _float_lines([
        (lambda v: v * 1e10, lambda v: v / 1e10),
        (lambda v: v + 0 * round(v), lambda v: v - 0 * round(v))]),
})


@st.composite
def _walked_scan_cases(draw):
    kind = draw(st.sampled_from(_WALKED_KINDS))
    return kind, draw(LETTER_MAP_FAMILIES[kind][1]), draw(st.integers(0, 4))


class TestWalkedScanChecks:
    """A walked scan counts and checks once per sphere: it fails as the
    orbit walk over its ball does, or returns the preorder sums."""

    @pytest.mark.parametrize("frontier", [1024, 5])
    @settings(max_examples=150, deadline=None)
    @given(case=_walked_scan_cases())
    @example(case=("lines 1.5, 1.25", 1e308, 3))  # DomainViolationError at s1^2
    @example(case=("lines 1.00001, 1.00002", 1.7e308, 2))  # sums overflow
    @example(case=("lines -2, 1.5", 1e307, 4))  # a nan row, no error
    @example(case=("scale and round", 1e300, 3))  # DomainViolationError at s1
    def test_scan_fails_as_the_orbit_walk_or_folds_in_preorder(self, frontier,
                                                               case):
        kind, x, radius = case
        make = _SCANNED[kind]
        family, reference = make(), make()
        try:
            orbit_ball(reference, x, radius)
        except EvaluationError as exc:
            with mock.patch.object(_kernels, "_FRONTIER", frontier), \
                    pytest.raises(type(exc)) as info:
                cesaro_scan(family, x, radius)
            assert (type(info.value), info.value.word, str(info.value)) == \
                (type(exc), exc.word, str(exc))
            assert family.apply_calls == reference.apply_calls
            return
        with mock.patch.object(_kernels, "_FRONTIER", frontier):
            report = cesaro_scan(family, x, radius)
        assert family.apply_calls == ball_size(radius, family.n_gens) - 1
        x = family.coerce_point(x)

        def step(value, letter):
            return reference.apply(value, letter // 2 + 1,
                                   -1 if letter % 2 else 1)

        spheres = fold_spheres(
            preorder_spheres(family.n_gens, radius, step, x), x, list) \
            if radius else [x]
        running, expected = x - x, []
        for total in spheres:
            running = running + total
            expected.append(repr(running))
        assert [repr(row.ball_sum) for row in report.rows] == expected

    def test_only_a_failing_value_is_replayed_word_by_word(self,
                                                           monkeypatch):
        # every value is finite and only the sums overflow: the ball is
        # walked again through apply, never word by word
        def no_orbit_walk(*args):
            raise AssertionError("the orbit walk replayed the ball")

        with monkeypatch.context() as patch:
            patch.setattr(cesaro, "_orbit_walk", no_orbit_walk)
            family = _SCANNED["lines 1.00001, 1.00002"]()
            report = cesaro_scan(family, 1.7e308, 8)
        assert [repr(row.ball_sum) for row in report.rows] == \
            ["1.7e+308"] + ["inf"] * 8
        assert family.apply_calls == ball_size(8, 2) - 1
        # s1^2 leaves the floats: the orbit walk names it
        family, reference = (_SCANNED["lines 1.5, 1.25"]() for _ in range(2))
        with pytest.raises(EvaluationError) as expected:
            orbit_ball(reference, 1e308, 3)
        with pytest.raises(EvaluationError) as info:
            cesaro_scan(family, 1e308, 3)
        assert (type(info.value), info.value.word, str(info.value)) == \
            (type(expected.value), expected.value.word, str(expected.value))
        assert info.value.word == W("s1^2", 2)
        assert family.apply_calls == reference.apply_calls == 2


class TestSignStudy:
    def test_closed_form_examples(self):
        assert sign_ball_sum(2, 4) == 9
        assert sign_ball_sum(1, 4) == -3
        assert sign_cesaro(2, 4) == F(9, 17)

    @pytest.mark.parametrize("q", [4, 6])
    def test_brute_force_matches_closed_form(self, q):
        for n in range(13 if q == 4 else 9):
            assert sign_ball_sum_brute(n, q) == sign_ball_sum(n, q)

    def test_even_odd_tails_converge(self):
        even_limit, odd_limit = sign_limits(4)
        assert even_limit == F(1, 2) and odd_limit == -F(1, 2)
        assert abs(sign_cesaro(12, 4) - even_limit) < F(1, 10 ** 5)
        assert abs(sign_cesaro(13, 4) + even_limit) < F(1, 10 ** 5)

    def test_full_sequence_does_not_converge(self):
        for n in range(6, 13):
            gap = abs(sign_cesaro(n + 1, 4) - sign_cesaro(n, 4))
            assert gap > F(9, 10)

    def test_rejects_odd_or_small_degree(self):
        with pytest.raises(ValueError):
            sign_ball_sum(3, 2)
        with pytest.raises(ValueError):
            sign_ball_sum(3, 5)


class TestGeometricKSum:
    def test_examples(self):
        assert geometric_k_sum(F(2), 3) == 34
        assert geometric_k_sum(F(1, 2), 2) == 1
        assert geometric_k_sum(F(7, 3), 1) == F(7, 3)

    def test_unit_argument_is_triangular(self):
        assert geometric_k_sum(F(1), 6) == 21

    def test_against_direct_summation(self, rng):
        for _ in range(100):
            x = random_fraction(rng, 20)
            if x == 1:
                x += 1
            n = rng.randint(0, 20)
            direct = sum(k * x ** k for k in range(1, n + 1))
            assert geometric_k_sum(x, n) == direct


class TestBounds:
    def test_worked_example(self):
        params = BoundParams((F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
                             (F(1), F(1)))
        lower, upper = cesaro_bounds(params)
        assert (lower, upper) == (F(3, 4), F(11, 4))

    def test_zero_offsets_zero_lower(self):
        params = BoundParams((F(0), F(0)), (F(0), F(0)), (F(1), F(2)),
                             (F(1, 2), F(1)))
        lower, upper = cesaro_bounds(params)
        assert lower == 0 and upper > 0

    def test_vanishing_caps_close_the_gap(self):
        tiny = F(1, 10 ** 9)
        params = BoundParams((F(1), F(1)), (F(1), F(1)), (tiny, tiny),
                             (tiny, tiny))
        lower, upper = cesaro_bounds(params)
        assert upper - lower < F(1, 10 ** 8)

    def test_random_draws_ordered_and_exact_lower(self, rng):
        for _ in range(100):
            n = rng.choice([2, 3])
            q = 2 * n
            alphas = tuple(random_fraction(rng, 9) - random_fraction(rng, 9)
                           for _ in range(n))
            betas = tuple(random_fraction(rng, 9) - random_fraction(rng, 9)
                          for _ in range(n))
            caps = lambda: tuple(
                F(rng.randint(1, (q - 1) * 4 - 1), 4) for _ in range(n))
            params = BoundParams(alphas, betas, caps(), caps())
            lower, upper = cesaro_bounds(params)
            assert lower <= upper
            total = sum(alphas) + sum(betas)
            assert lower == F(q - 1) * total / (q * (q - 2))

    def test_rejects_caps_outside_window(self):
        with pytest.raises(WordSyntaxError):
            BoundParams((F(0), F(0)), (F(0), F(0)), (F(3), F(1)), (F(1), F(1)))
        with pytest.raises(WordSyntaxError):
            BoundParams((F(0),), (F(0),), (F(1, 2),), (F(1, 2),))
