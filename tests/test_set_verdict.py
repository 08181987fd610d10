"""The set-level periodicity rule the growth and rotation models share, and
the one refusal of a group with no generators."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (CircleFamily, FullGroup, PeriodicSetVerdict, WordSyntaxError,
                   ball_decompose, ball_enumerate, ball_size,
                   classify_periodicity, parse_subgroup, periodic_set,
                   sphere_size, sphere_words, subgroup_ball,
                   traversal_sphere_counts)

from conftest import W
from test_members import groups

# a word of length <= 6 has exponent sums of size <= 6, and then both
# 2^a 3^b 5^c = 1 and a/7 + b/11 + c/13 integral hold only for a = b = c = 0:
# such a word moves points in either model exactly when one sum is nonzero
RATES = (2, 3, 5)
ANGLES = (F(1, 7), F(1, 11), F(1, 13))
SAME_KIND = {"empty": "empty", "all_positive_reals": "full",
             "undecided": "undecided"}


def both_verdicts(spec, depth):
    n_gens = spec.n_gens
    grown = classify_periodicity(RATES[:n_gens], spec, depth)
    turned = periodic_set(CircleFamily(ANGLES[:n_gens]), spec, depth)
    return (SAME_KIND[grown.kind], grown.witness), (turned.kind, turned.witness)


class TestOneRuleForBothModels:
    @settings(max_examples=400, deadline=None)
    @given(groups, st.integers(1, 5))
    def test_same_kind_and_witness(self, group, depth):
        # cyclic words c v^n c^-1 of the strategy have exponent sums <= 6
        n_gens, spec = group
        grown, turned = both_verdicts(spec, min(depth, 5 if n_gens < 3 else 4))
        assert grown == turned

    @pytest.mark.parametrize("text, witness", [("bal:1", "s2"),
                                               ("cyclic:s1^-1", "s1")])
    def test_a_generator_in_h_is_the_witness(self, text, witness):
        grown, turned = both_verdicts(parse_subgroup(text, 2), 3)
        assert grown == turned == ("empty", W(witness))


class TestApproximateNotes:
    @pytest.mark.parametrize("text, note", [
        ("bal:", "balanced subgroup rotates by 0, but approximate mode "
                 "cannot certify a full answer"),
        ("cyclic:s1^2", "generator rotation is integral at tolerance only")])
    def test_a_full_answer_at_tolerance_names_its_proof(self, text, note):
        family = CircleFamily([0.5, 0.25], exact=False)
        verdict = periodic_set(family, parse_subgroup(text, 2), 4)
        assert verdict == PeriodicSetVerdict("undecided", certified=False,
                                             note=note)


@pytest.mark.parametrize("call", [
    lambda: sphere_words(2, 0), lambda: ball_decompose(2, 0),
    lambda: ball_size(2, 0), lambda: sphere_size(2, 0),
    lambda: traversal_sphere_counts(2, 0), lambda: list(ball_enumerate(2, 0)),
    lambda: subgroup_ball(FullGroup(0), 2), lambda: FullGroup(0),
    lambda: parse_subgroup("full", 0)], ids=[
    "sphere_words", "ball_decompose", "ball_size", "sphere_size",
    "traversal_sphere_counts", "ball_enumerate", "subgroup_ball", "FullGroup",
    "parse_subgroup"])
def test_zero_generators_are_refused_as_a_word_syntax_error(call):
    with pytest.raises(WordSyntaxError, match="need at least one generator"):
        call()
