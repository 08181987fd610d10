"""The set-level periodicity rule the growth and rotation models share, the
same answers for every spelling of one subgroup, and the one refusal of a
group with no generators."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (CircleFamily, FullGroup, IntersectionSubgroup,
                   PeriodicSetVerdict, ResourceLimitError, SubgroupMeta,
                   WordSyntaxError, ball_decompose, ball_enumerate, ball_size,
                   classify_periodicity, parse_subgroup, periodic_set,
                   sphere_size, sphere_words, stable_set_check, subgroup_ball,
                   traversal_sphere_counts)
from mdtds import subgroups
from mdtds.subgroups import _automaton, _members

from conftest import W
from test_members import groups, outcome

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


def spellings(spec):
    """Other spellings of the same H: with ``full`` either side, and twice."""
    full = FullGroup(spec.n_gens)
    return [IntersectionSubgroup(parts)
            for parts in ((spec, full), (full, spec), (spec, spec))]


def answers(spec, depth):
    """Members, both models' set verdicts at rates (3, 2, 5) and angles
    (1/2, 1/3, 1/5), the stable-set search with its map applications on
    angles (1/4, 1/3, 1/5), and the index and generator metadata."""
    n_gens = spec.n_gens
    turned = CircleFamily([F(1, 4), F(1, 3), F(1, 5)][:n_gens])
    stable = outcome(lambda: stable_set_check(turned, spec, F(0), F(1, 7), 6,
                                              F(1, 20), ray_depth=min(depth, 3)))
    return (list(_members(spec, depth, 10 ** 6)),
            outcome(lambda: classify_periodicity((3, 2, 5)[:n_gens], spec, depth)),
            outcome(lambda: periodic_set(
                CircleFamily([F(1, 2), F(1, 3), F(1, 5)][:n_gens]), spec, depth)),
            stable, turned.apply_calls, spec.meta())


class TestEverySpellingOfH:
    @settings(max_examples=200, deadline=None)
    @given(groups, st.integers(1, 4))
    def test_full_and_repeated_parts_change_no_answer(self, group, depth):
        _, spec = group
        want = answers(spec, depth)
        for other in spellings(spec):
            assert answers(other, depth) == want

    @pytest.mark.parametrize("text", ["cyclic:s1^2", "and(cyclic:s1^2;full)",
                                      "and(cyclic:s1^2;cyclic:s1^2)",
                                      "and(and(full;cyclic:s1^2);full)"])
    def test_a_cyclic_h_is_decided_by_its_generator(self, text):
        # s1^2 turns circle (1/2, 1/3) a whole turn, so every point is periodic
        family = CircleFamily([F(1, 2), F(1, 3)])
        assert periodic_set(family, parse_subgroup(text, 2), 3) == \
            PeriodicSetVerdict("full")

    @pytest.mark.parametrize("text", ["cyclic:s1^100000000",
                                      "and(cyclic:s1^100000000;full)"])
    def test_a_generator_longer_than_the_cap_is_refused(self, text):
        # its multiplier 3^(10^8) is never built
        with pytest.raises(ResourceLimitError,
                           match="needs 100000000 letters, cap is 10"):
            classify_periodicity((3, 2), parse_subgroup(text, 2), 3, node_cap=10)

    def test_a_generator_within_the_cap_is_the_witness(self):
        verdict = classify_periodicity((3, 2), parse_subgroup("cyclic:s1^50", 2), 3,
                                       node_cap=100)
        assert (verdict.kind, verdict.witness, verdict.multiplier) == \
            ("empty", W("s1^50"), F(3) ** 50)

    @pytest.mark.parametrize("text, meta, n_gens", [
        ("and(full;full)", SubgroupMeta("finite", 1, (1, 2)), 2),
        ("and(and(even:1;even:2);even:1)", SubgroupMeta("finite_at_most", 4, ()), 2),
        ("and(cyclic:s1^2;full)", SubgroupMeta("finite", 2, ()), 1),
        ("and(even:1;even:1)", SubgroupMeta("finite", 2, (2,)), 2),
        ("and(cyclic:s1^2;even:1)", SubgroupMeta("finite_at_most", 4, ()), 1)])
    def test_index_reads_the_distinct_parts(self, text, meta, n_gens):
        assert parse_subgroup(text, n_gens).meta() == meta

    def test_both_dead_parts_share_one_automaton(self):
        # ker: keeping every generator and a cyclic part longer than the radius
        # hold no member but e within it
        kernel, cyclic = parse_subgroup("ker:1,2", 2), parse_subgroup("cyclic:s1^6", 2)
        assert _automaton(kernel, 5) is _automaton(cyclic, 5) is subgroups._DEAD
        assert _automaton(cyclic, 6) is not subgroups._DEAD


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
