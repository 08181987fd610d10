from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (BankFamily, BoundParams, CesaroReport, CircleFamily,
                   DomainViolationError, ResourceLimitError, WordSyntaxError,
                   affine_and_square_family, ball_enumerate,
                   ball_size, ball_sum_brute, cesaro_bounds, cesaro_scan,
                   geometric_k_sum, identity_family, sign_ball_sum,
                   orbit_ball, sign_ball_sum_brute, sign_cesaro, sign_limits)

from conftest import W, random_fraction


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
        family = CircleFamily([0.2, 1 / 6], exact=False)
        with pytest.raises(ResourceLimitError):
            cesaro_scan(family, 0.1, 200)


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
