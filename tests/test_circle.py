import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdtds import (Balanced, CircleFamily, CyclicSubgroup, EvenCount,
                   FullGroup, KernelSubgroup, VerifiedUpTo, WordSyntaxError,
                   ball_size, cesaro_scan, density_check, evaluate, fixed_set,
                   fixed_point_residual, is_fixed, is_h_fixed, is_h_periodic, mod1,
                   orbit_ball, parse_subgroup, periodic_set,
                   rational_period_subgroup, rotation_of)
from mdtds.circle import evaluate_closed_form

from conftest import W, random_fraction, random_word


@pytest.fixture
def family():
    return CircleFamily([F(1, 2), F(1, 3)])


class TestEvaluation:
    def test_examples(self, family):
        assert evaluate(family, W("e"), F(1, 4)) == F(1, 4)
        assert evaluate(family, W("s1 s2"), F(0)) == F(5, 6)
        # negative rotations wrap into [0, 1)
        assert evaluate(family, W("s2^-2"), F(1, 4)) == F(7, 12)

    def test_closed_form_agrees_with_engine(self, rng, family):
        for _ in range(300):
            t = random_word(rng, 2, 8)
            x = random_fraction(rng) % 1
            assert evaluate_closed_form(family, t, x) == evaluate(family, t, x)

    def test_commutativity(self, rng, family):
        for _ in range(500):
            t, y = random_word(rng, 2, 6), random_word(rng, 2, 6)
            x = random_fraction(rng) % 1
            assert evaluate(family, t * y, x) == evaluate(family, y * t, x)

    def test_mod1_exact_and_float_seam(self):
        assert mod1(F(-5, 12)) == F(7, 12)
        assert mod1(F(7, 3)) == F(1, 3)
        assert mod1(1.0 - 1e-12) == 0.0  # seam clamp
        assert mod1(0.25) == 0.25

    def test_angles_are_read_only(self):
        # the scan reads residues built from the angles when the family is
        # made, so a reassigned angle would make it disagree with apply
        family = CircleFamily([F(1, 3), F(1, 5)])
        with pytest.raises(AttributeError):
            family.angles = (F(1, 7), F(1, 11))
        assert family.angles == (F(1, 3), F(1, 5))
        walked = sum(orbit_ball(family, F(1, 5), 3).values.values())
        assert cesaro_scan(family, F(1, 5), 3).rows[-1].ball_sum == walked

    def test_rejects_nonpositive_angles(self):
        with pytest.raises(WordSyntaxError):
            CircleFamily([F(1, 2), F(0)])

    @pytest.mark.parametrize("angle", [float("nan"), float("inf")])
    def test_rejects_non_finite_float_angles(self, angle):
        with pytest.raises(WordSyntaxError):
            CircleFamily([angle, 0.6], exact=False)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf")])
    def test_rejects_non_finite_angles_in_exact_mode(self, angle):
        with pytest.raises(WordSyntaxError):
            CircleFamily([angle, F(3, 5)])

    @given(st.lists(st.fractions(min_value=F(1, 30), max_value=3,
                                 max_denominator=30), min_size=1, max_size=3),
           st.fractions(min_value=0, max_value=F(29, 30), max_denominator=30),
           st.data())
    def test_exact_unit_powers_equal_the_generic_step(self, angles, x, data):
        family = CircleFamily(angles)
        gen = data.draw(st.integers(1, len(angles)))
        angle = family.angles[gen - 1]
        for power in (1, -1, 0, 2, -3):
            got = family.apply(x, gen, power)
            assert type(got) is F and got == mod1(x + power * angle)
        assert family.apply_calls == 5

    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=3),
           st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.data())
    def test_float_unit_powers_are_bit_identical(self, angles, x, data):
        family = CircleFamily(angles, exact=False)
        gen = data.draw(st.integers(1, len(angles)))
        angle = family.angles[gen - 1]
        for power in (1, -1, 0, 2, -3):
            got = family.apply(x, gen, power)
            assert repr(got) == repr(mod1(x + power * angle, family.tol))

    @given(st.lists(st.fractions(min_value=F(1, 30), max_value=5,
                                 max_denominator=30), min_size=1, max_size=3),
           st.fractions(min_value=-3, max_value=3, max_denominator=1000),
           st.lists(st.integers(-7, 7), min_size=1, max_size=5),
           st.data())
    def test_any_point_and_power_matches_mod1(self, angles, x, powers, data):
        exact = CircleFamily(angles)
        approx = CircleFamily([float(a) for a in angles], exact=False)
        gen = data.draw(st.integers(1, len(angles)))
        for power in powers:
            got = exact.apply(x, gen, power)
            assert type(got) is F
            assert got == mod1(x + power * exact.angles[gen - 1])
            got = approx.apply(float(x), gen, power)
            want = mod1(float(x) + power * approx.angles[gen - 1], approx.tol)
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("exact", [True, False])
    def test_orbit_ball_applies_once_per_edge(self, exact):
        family = CircleFamily([F(1, 3), F(2, 7)] if exact else [1 / 3, 2 / 7],
                              exact=exact)
        orbit_ball(family, F(1, 5) if exact else 0.2, 5)
        assert family.apply_calls == ball_size(5, 2) - 1


class TestRotation:
    def test_examples(self, family):
        assert rotation_of(family, W("e")) == 0
        assert rotation_of(family, W("s1")) == F(1, 2)
        assert rotation_of(family, W("s1^2 s2^-3")) == 0

    def test_homomorphism(self, rng, family):
        for _ in range(200):
            a, b = random_word(rng, 2, 6), random_word(rng, 2, 6)
            assert rotation_of(family, a * b) == \
                rotation_of(family, a) + rotation_of(family, b)
            assert rotation_of(family, a.inverse()) == -rotation_of(family, a)


class TestFixedSet:
    def test_integer_angles_full(self):
        assert fixed_set(CircleFamily([1, 2])).kind == "full"
        assert fixed_set(CircleFamily([2, 3, 5])).kind == "full"

    def test_fractional_angle_empty_with_witness(self):
        verdict = fixed_set(CircleFamily([F(1, 2), F(1)]))
        assert verdict.kind == "empty" and verdict.witness_index == 1

    def test_cross_check_with_pointwise_residuals(self):
        full = CircleFamily([1, 2])
        empty = CircleFamily([F(1, 2), 1])
        for k in range(10):
            x = F(k, 10)
            assert fixed_point_residual(full, x) == 0
            assert fixed_point_residual(empty, x) != 0

    def test_approx_mode_uncertified(self):
        verdict = fixed_set(CircleFamily([0.5, 1.0], exact=False))
        assert verdict.kind == "empty" and not verdict.certified

    def test_an_angle_of_exactly_tol_is_integral(self):
        tol = CircleFamily([0.5], exact=False).tol
        verdict = fixed_set(CircleFamily([tol], exact=False))
        assert (verdict.kind, verdict.certified) == ("full", False)
        past = fixed_set(CircleFamily([math.nextafter(tol, 1)], exact=False))
        assert (past.kind, past.witness_index) == ("empty", 1)

    def test_a_point_in_the_seam_is_read_as_zero(self):
        # mod1 reads every map value in [1 - tol, 1) as 0, so an input point
        # there is 0 too: the set verdict, the pointwise check and the
        # subgroup check agree that integer angles fix it
        family = CircleFamily((1.0, 2.0), exact=False)
        x = 1 - 1e-10
        assert fixed_set(family).kind == "full"
        assert is_fixed(family, x)
        assert is_h_fixed(family, FullGroup(2), x, 2) == VerifiedUpTo(0, 2)
        assert family.coerce_point(x) == 0.0
        assert family.coerce_point(1 - 1e-8) == 1 - 1e-8
        # an exact point keeps its value
        exact = 1 - F(1, 10 ** 10)
        assert CircleFamily((1, 2)).coerce_point(exact) == exact

    @pytest.mark.parametrize("tol", [-1e-9, float("nan"), float("inf"),
                                     1.0, 1.5])
    def test_a_tolerance_that_breaks_verdicts_is_refused(self, tol):
        # below 0 a full turn would fix no point; from 1 on the seam
        # [1 - tol, 1) would cover the circle and every angle fix it
        with pytest.raises(WordSyntaxError, match="tol"):
            CircleFamily([1.0], exact=False, tol=tol)
        with pytest.raises(WordSyntaxError, match="tol"):
            CircleFamily([0.3], exact=False, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, math.nextafter(1.0, 0)])
    def test_a_tolerance_from_0_to_below_1_is_kept(self, tol):
        family = CircleFamily([1.0], exact=False, tol=tol)
        assert fixed_set(family).kind == "full" and is_fixed(family, 0.25)


class TestPeriodicSet:
    def test_cyclic_square_is_full(self, family):
        verdict = periodic_set(family, CyclicSubgroup(W("s1^2")), 4)
        assert verdict.kind == "full" and verdict.certified

    def test_cyclic_single_letter_is_empty(self, family):
        verdict = periodic_set(family, CyclicSubgroup(W("s1")), 4)
        assert verdict.kind == "empty"
        assert verdict.witness == W("s1") and verdict.rotation == F(1, 2)

    def test_balanced_is_full(self, family):
        assert periodic_set(family, Balanced.all_generators(2), 4).kind == "full"

    def test_balanced_parts_covering_every_generator_are_full(self, family):
        spec = parse_subgroup("and(bal:1;bal:2)", 2)
        assert periodic_set(family, spec, 4).kind == "full"

    def test_even_count_scan_finds_witness(self, family):
        verdict = periodic_set(family, EvenCount(2, frozenset([1, 2])), 3)
        assert verdict.kind == "empty"
        # s1^2 is a member but rotates by the integer 1; the first member
        # with fractional rotation in enumeration order is s2 s1
        assert verdict.witness == W("s2 s1")
        assert verdict.rotation == F(5, 6)

    def test_witness_search_walks_only_up_to_the_witness(self):
        # s1^2 is the third word enumerated; the rest of V_12 is never visited
        family = CircleFamily([F(1, 3), F(1, 5)])
        verdict = periodic_set(family, EvenCount(2, frozenset([1, 2])), 12,
                               node_cap=1000)
        assert verdict.kind == "empty" and verdict.witness == W("s1^2")
        assert verdict.rotation == F(2, 3)
        # ker:1,2 on 2 generators is {e}: its walk visits only the root
        verdict = periodic_set(family, KernelSubgroup(2, frozenset([1, 2])), 12,
                               node_cap=1000)
        assert verdict.kind == "undecided"

    def test_approx_mode_cannot_certify_full(self):
        family = CircleFamily([0.5, 1.0 / 3.0], exact=False)
        verdict = periodic_set(family, Balanced.all_generators(2), 3)
        assert verdict.kind == "undecided" and not verdict.certified

    def test_bounded_fixed_and_periodic_verdicts_coincide(self, family, rng):
        # rotations commute, so pointwise sub-fixedness and periodicity agree
        for spec in (CyclicSubgroup(W("s1^2")), CyclicSubgroup(W("s1")),
                     Balanced.all_generators(2)):
            for _ in range(10):
                x = random_fraction(rng) % 1
                fixed = is_h_fixed(family, spec, x, 4)
                periodic = is_h_periodic(family, spec, x, 4, 4)
                assert fixed.verified == periodic.verified


class TestConstructedSubgroup:
    def test_half_angle(self, family):
        spec = rational_period_subgroup(family, 1)
        assert spec.generator_word == W("s1^2")
        assert periodic_set(family, spec, 4).kind == "full"

    def test_other_denominators(self):
        family = CircleFamily([F(1, 2), F(3, 7)])
        assert rational_period_subgroup(family, 2).generator_word == W("s2^7")
        integral = CircleFamily([F(2), F(1, 3)])
        assert rational_period_subgroup(integral, 1).generator_word == W("s1")

    def test_needs_exact_angles(self):
        family = CircleFamily([0.5], exact=False)
        with pytest.raises(WordSyntaxError):
            rational_period_subgroup(family, 1)


class TestDensity:
    def test_rational_angles_have_exact_gaps(self, family):
        result = density_check(family, 1, F(0), 64, F(1, 100))
        assert result.max_gap == F(1, 2) and not result.dense
        result = density_check(family, 2, F(0), 64, F(1, 100))
        assert result.max_gap == F(1, 3)

    def test_irrational_angle_fills_the_circle(self):
        family = CircleFamily([math.sqrt(2) - 1], exact=False)
        result = density_check(family, 1, 0.0, 10 ** 4, 0.01)
        assert result.dense and result.max_gap < 0.01

    def test_coarse_sampling_is_not_dense(self):
        family = CircleFamily([math.sqrt(2) - 1], exact=False)
        result = density_check(family, 1, 0.0, 12, 0.01)
        assert not result.dense
