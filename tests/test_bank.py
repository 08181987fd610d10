from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdtds import (Balanced, BankFamily, CyclicSubgroup, EvenCount,
                   IntersectionSubgroup, KernelSubgroup, ResourceLimitError,
                   WordSyntaxError, _kernels, ball_enumerate, ball_size,
                   ball_sum_brute,
                   ball_sum_product_formula, cesaro_limit, cesaro_scan,
                   classify_periodicity, discrepancy_table, evaluate,
                   orbit_ball, parse_subgroup, subgroup_ball,
                   word_multiplier)
from mdtds.bank import evaluate_closed_form

from conftest import W, random_fraction, random_word


def box_sum(rates, x, radius):
    """Product over maps of power sums over the exponent box; independent."""
    total = F(x)
    for r in rates:
        total *= sum(F(r) ** e for e in range(-radius, radius + 1))
    return total


class TestEvaluation:
    def test_examples(self):
        assert evaluate_closed_form((2, 3), W("e"), 5) == 5
        assert evaluate_closed_form((2, 3), W("s1^2 s2^-1"), 1) == F(4, 3)
        assert evaluate_closed_form((2, 3), W("s1 s2 s1^-1"), 1) == 3

    def test_rejects_bad_rates_and_points(self):
        with pytest.raises(WordSyntaxError):
            BankFamily([1, 2])
        with pytest.raises(WordSyntaxError):
            evaluate_closed_form((2, 3), W("s1"), 0)

    def test_rates_are_read_only(self):
        # the scan reads the scale and multipliers built from the rates when
        # the family is made, so a reassigned rate would make it disagree
        # with apply
        family = BankFamily([2, 3])
        with pytest.raises(AttributeError):
            family.rates = (F(5), F(7))
        assert family.rates == (F(2), F(3))
        assert cesaro_scan(family, F(1), 3).rows[-1].ball_sum == \
            ball_sum_brute(family.rates, F(1), 3)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"),
                                      Decimal("NaN"), "x"])
    def test_rejects_rates_that_are_not_finite_rationals(self, rate):
        with pytest.raises(WordSyntaxError):
            BankFamily([2, rate])

    @given(st.lists(st.fractions(min_value=F(11, 10), max_value=8,
                                 max_denominator=20), min_size=1, max_size=3),
           st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50),
           st.data())
    def test_unit_powers_equal_the_generic_power(self, rates, x, data):
        family = BankFamily(rates)
        gen = data.draw(st.integers(1, len(rates)))
        for power in (1, -1, 0, 2, -3):
            got = family.apply(x, gen, power)
            assert type(got) is F and got == x * family.rates[gen - 1] ** power
        assert family.apply_calls == 5

    def test_orbit_ball_applies_once_per_edge(self):
        family = BankFamily([F(3, 2), 5, F(7, 3)])
        orbit_ball(family, F(2, 3), 4)
        assert family.apply_calls == ball_size(4, 3) - 1

    def test_closed_form_agrees_with_engine(self, rng):
        rates = (F(5, 4), F(7, 2))
        family = BankFamily(rates)
        for _ in range(500):
            t = random_word(rng, 2, 8)
            x = random_fraction(rng)
            assert evaluate_closed_form(rates, t, x) == evaluate(family, t, x)

    def test_multiplier_examples(self):
        assert word_multiplier((2, 3), W("e")) == 1
        assert word_multiplier((2, 3), W("s1 s2 s1^-1 s2^-1")) == 1
        assert word_multiplier((2, 3), W("s1")) == 2

    @pytest.mark.parametrize("text, n_gens", [("s1", 1), ("s1 s3", 3)])
    def test_multiplier_refuses_a_word_over_another_group(self, text, n_gens):
        # the rates fix the group: a word on fewer or more generators is refused
        with pytest.raises(WordSyntaxError, match="sizes differ"):
            word_multiplier((2, 3), W(text, n_gens))
        with pytest.raises(WordSyntaxError, match="sizes differ"):
            evaluate_closed_form((2, 3), W(text, n_gens), 1)

    def test_multiplier_is_a_homomorphism(self, rng):
        rates = (F(3, 2), F(2))
        for _ in range(200):
            a, b = random_word(rng, 2, 6), random_word(rng, 2, 6)
            assert word_multiplier(rates, a * b) == \
                word_multiplier(rates, a) * word_multiplier(rates, b)
            assert word_multiplier(rates, a.inverse()) == \
                1 / word_multiplier(rates, a)


class TestClassification:
    def test_balanced_is_fully_periodic(self):
        result = classify_periodicity((2, 3), Balanced.all_generators(2), 3)
        assert result.kind == "all_positive_reals"

    def test_balanced_parts_covering_every_generator(self):
        spec = parse_subgroup("and(bal:1;bal:2)", 2)
        result = classify_periodicity((2, 3), spec, 3)
        assert result.kind == "all_positive_reals"

    def test_balanced_exhaustive_multboth(self):
        for w in subgroup_ball(Balanced.all_generators(2), 5):
            assert word_multiplier((2, 3), w) == 1

    def test_generator_member_forces_empty(self):
        result = classify_periodicity((2, 3), CyclicSubgroup(W("s1")), 3)
        assert result.kind == "empty"
        assert result.witness == W("s1")
        assert result.multiplier == 2

    def test_even_count_empty_with_witness(self):
        spec = EvenCount(2, frozenset([1, 2]))
        result = classify_periodicity((2, 3), spec, 3)
        assert result.kind == "empty"
        assert result.witness == W("s1^2")
        assert result.multiplier == 4

    def test_witness_disproves_periodicity_directly(self, rng):
        for spec in (CyclicSubgroup(W("s1")), EvenCount(2, frozenset([1, 2]))):
            result = classify_periodicity((2, 3), spec, 3)
            assert result.kind == "empty"
            for _ in range(5):
                x = random_fraction(rng)
                assert evaluate_closed_form((2, 3), result.witness, x) != x

    def test_cyclic_with_dependent_rates_is_fully_periodic(self):
        # q1 = q2^2 makes s1 s2^-2 a relation of the multipliers
        result = classify_periodicity((4, 2), CyclicSubgroup(W("s1 s2^-2")), 3)
        assert result.kind == "all_positive_reals"

    def test_partially_balanced_contains_a_generator(self):
        result = classify_periodicity((2, 3), Balanced(2, frozenset([1])), 3)
        assert result.kind == "empty" and result.witness == W("s2")

    def test_kernel_subgroup_scan(self):
        spec = KernelSubgroup(3, frozenset([1, 2]))
        result = classify_periodicity((2, 3, 5), spec, 2)
        assert result.kind == "empty" and result.witness == W("s3", 3)

    def test_intersection_of_even_counts_decided_by_scan(self):
        spec = IntersectionSubgroup((EvenCount(2, frozenset([1])),
                                     EvenCount(2, frozenset([2]))))
        result = classify_periodicity((4, 4), spec, 2)
        assert result.kind == "empty" and result.multiplier == 16

    def test_witness_search_walks_only_up_to_the_witness(self):
        # s1^2 is the third word enumerated; the rest of V_12 is never visited
        result = classify_periodicity((2, 3), EvenCount(2, frozenset([1, 2])),
                                      12, node_cap=1000)
        assert result.kind == "empty" and result.witness == W("s1^2")
        # ker:1,2 on 2 generators is {e}: its walk visits only the root
        result = classify_periodicity((2, 3), KernelSubgroup(2, frozenset([1, 2])),
                                      12, node_cap=1000)
        assert result.kind == "undecided" and result.depth == 12

    def test_undecided_when_no_witness_in_ball(self):
        # erasing every generator keeps only the identity word: the scan
        # sees no witness and the structural fast paths cannot prove
        # fullness, so the honest bounded answer is undecided
        spec = KernelSubgroup(2, frozenset([1, 2]))
        result = classify_periodicity((2, 3), spec, 4)
        assert result.kind == "undecided" and result.depth == 4


class TestBallSums:
    def test_product_formula_examples(self):
        assert ball_sum_product_formula((2, 3), 1, 0) == 1
        assert ball_sum_product_formula((2, 3), 1, 1) == F(91, 6)

    def test_brute_examples(self):
        assert ball_sum_brute((2, 3), 1, 0) == 1
        assert ball_sum_brute((2, 3), 1, 1) == F(41, 6)

    @pytest.mark.parametrize("rates", [(2, 3), (F(3, 2), F(5, 3)),
                                       (2, 3, F(7, 4))])
    def test_product_formula_equals_box_oracle(self, rates):
        for n in range(7):
            assert ball_sum_product_formula(rates, F(2, 5), n) == \
                box_sum(rates, F(2, 5), n)

    def test_formula_overcounts_the_ball(self):
        # the exponent box revisits group elements the ball visits once
        for n, brute, formula, equal in discrepancy_table((2, 3), 1, 5):
            if n == 0:
                assert equal
            else:
                assert not equal
                assert brute < formula

    def test_known_discrepancy_pair(self):
        rows = discrepancy_table((2, 3), 1, 1)
        assert rows[1][1] == F(41, 6)
        assert rows[1][2] == F(91, 6)

    def test_negative_radius_is_refused_like_the_brute_sum(self):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            ball_sum_brute((2, 3), 1, -1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            discrepancy_table((2, 3), 1, -1)
        assert len(discrepancy_table((2, 3), 1, 0)) == 1

    def test_table_walks_the_largest_ball_once(self):
        # the brute sums are running totals of one walk of V_6 (1,457
        # words), not one walk per radius; each is checked against the sum
        # of word multipliers over ball_enumerate's words
        totals = [F(0)] * 7
        for node in ball_enumerate(6, 2):
            totals[node.word.length] += word_multiplier((2, 3), node.word)
        expected = []
        for n in range(7):
            brute = sum(totals[:n + 1], F(0))
            formula = ball_sum_product_formula((2, 3), 1, n)
            expected.append((n, brute, formula, brute == formula))
        with mock.patch.object(_kernels, "scan_object",
                               wraps=_kernels.scan_object) as scan:
            rows = discrepancy_table((2, 3), 1, 6)
        assert scan.call_count == 1
        assert rows == expected
        assert all(type(brute) is F for _, brute, _, _ in rows)

    def test_table_over_the_cap_is_refused_before_any_walk(self):
        # the refusal names |V_8|, the ball the table would walk
        with mock.patch.object(_kernels, "subtree_scan_object") as walk, \
                pytest.raises(ResourceLimitError) as info:
            discrepancy_table((2, 3), 1, 8, node_cap=1000)
        assert walk.call_count == 0
        assert (info.value.requested, info.value.cap) == (ball_size(8, 2), 1000)


class TestTrichotomy:
    def test_three_branches(self):
        finite = cesaro_limit((F(3, 2), F(2)))
        assert finite.kind == "finite" and finite.coefficient == 3
        assert finite.limit_for(F(1, 2)) == F(3, 2)
        assert cesaro_limit((F(11, 10), F(11, 10))).kind == "zero"
        assert cesaro_limit((2, 3)).kind == "infinite"

    def test_boundary_is_exact(self):
        # product exactly q - 1 = 5 for three maps
        assert cesaro_limit((F(5, 2), F(4, 3), F(3, 2))).kind == "finite"

    def test_needs_two_maps(self):
        with pytest.raises(WordSyntaxError):
            cesaro_limit((2,))
