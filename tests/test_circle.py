import math
from fractions import Fraction as F

import pytest

from mdtds import (Balanced, CircleFamily, CyclicSubgroup, EvenCount,
                   KernelSubgroup, ResourceLimitError, WordSyntaxError,
                   density_check, evaluate, fixed_set,
                   fixed_point_residual, is_h_fixed, is_h_periodic, mod1,
                   periodic_set, rational_period_subgroup, rotation_of)
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

    def test_rejects_nonpositive_angles(self):
        with pytest.raises(WordSyntaxError):
            CircleFamily([F(1, 2), F(0)])


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
        with pytest.raises(ResourceLimitError):  # ker:1,2 on 2 generators is {e}
            periodic_set(family, KernelSubgroup(2, frozenset([1, 2])), 12,
                         node_cap=1000)

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
