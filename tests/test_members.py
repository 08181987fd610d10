"""Subgroup members found by one automaton walk, against the whole-ball walk.

``subgroups._members`` walks the ball once, carrying one left-action
automaton (the product of one per part of the spec and of the exponent sums
the ``bal:`` and ``ker:`` parts fix), and skips every subtree that holds no
member.  Every test here compares it, or a verdict built on it, with the
reference that tests each word of a ball built without that walk, or counts
the words it visits.
"""
import functools
import itertools
import tracemalloc
from contextlib import ExitStack
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (Balanced, BankFamily, CircleFamily, Counterexample,
                   CyclicSubgroup, EvenCount, FullGroup, IntersectionSubgroup,
                   KernelSubgroup, MdtdsError, ResourceLimitError,
                   VerifiedUpTo, Word, ball_enumerate, ball_size,
                   classify_periodicity, is_h_fixed, parse_subgroup,
                   periodic_set, stable_set_check)
from mdtds import engine, subgroups, words
from mdtds.subgroups import _members

from conftest import W, ball_key, words_strategy

CAP = 10 ** 8


@functools.cache
def reduced_ball(n_gens, radius):
    """V_radius without e, built apart from the walk under test: a word per
    letter-index tuple with no letter next to its inverse, in ball order."""
    level, tuples = [()], []
    for _ in range(radius):
        level = [t + (i,) for t in level for i in range(2 * n_gens)
                 if not t or t[-1] != i ^ 1]
        tuples += level
    return sorted((Word.from_runs(n_gens, [(i // 2 + 1, 1 - 2 * (i % 2)) for i in t])
                   for t in tuples), key=ball_key)


def reference(spec, radius, node_cap=CAP):
    """Members other than e, by testing every word of the ball in order."""
    return iter([word for word in reduced_ball(spec.n_gens, radius)
                 if spec.member(word)])


def cyclic_specs(n_gens):
    """Cyclic subgroups of words ``c v^n c^-1``."""
    return st.builds(
        lambda c, v, n: CyclicSubgroup(c * v ** n * c.inverse()),
        words_strategy(n_gens, 2),
        words_strategy(n_gens, 3).filter(lambda v: not v.is_identity),
        st.sampled_from([1, -1, 2, -2]))


def specs(n_gens):
    """Every spec kind, cyclic words ``c v^n c^-1`` and nested intersections."""
    indices = st.sets(st.integers(1, n_gens), min_size=1).map(frozenset)
    parts = [st.just(FullGroup(n_gens)), cyclic_specs(n_gens),
             st.builds(Balanced, st.just(n_gens), indices),
             st.builds(EvenCount, st.just(n_gens), indices)]
    if n_gens > 1:
        kept = st.sets(st.integers(1, n_gens), min_size=2).map(frozenset)
        parts.append(st.builds(KernelSubgroup, st.just(n_gens), kept))
    leaves = st.one_of(parts)

    def intersection(inner):
        return st.lists(inner, min_size=1, max_size=3).map(
            lambda ps: IntersectionSubgroup(tuple(ps)))

    # single specs as often as intersections, which may nest
    return st.one_of(leaves, intersection(
        st.recursive(leaves, intersection, max_leaves=3)))


groups = st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), specs(k)))


def outcome(call):
    """The verdict, or the type of error the call raised."""
    try:
        return call()
    except MdtdsError as exc:  # compared, not swallowed: both sides must agree
        return type(exc)


def by_reference(call):
    """``call()`` with every search reading its members from the reference."""
    with ExitStack() as patches:
        for module in (engine, subgroups):
            patches.enter_context(mock.patch.object(module, "_members", reference))
        return outcome(call)


class TestSameMembersInBallOrder:
    @settings(max_examples=150, deadline=None)
    @given(groups, st.integers(0, 6))
    def test_every_spec_kind(self, group, radius):
        n_gens, spec = group
        if n_gens == 3:
            radius = min(radius, 5)
        assert list(_members(spec, radius, CAP)) == list(reference(spec, radius))

    @pytest.mark.parametrize("text, n_gens", [
        ("cyclic:s1^3", 2), ("cyclic:s1^-2", 1), ("cyclic:s2*s1*s2^-1", 2),
        ("cyclic:s1*s2^2*s1^-1", 3), ("cyclic:s1^-1*s2^-1*s1*s2", 2),
        ("and(cyclic:s1*s2*s1^-1*s2^-1;bal:)", 2), ("and(cyclic:s1^2;even:1)", 2),
        ("and(bal:1;ker:2,3)", 3), ("and(even:1,2;bal:1)", 2),
        ("and(ker:1,2;cyclic:s3^2)", 3), ("and(and(bal:2;even:1);full)", 2),
        ("ker:1,2", 2), ("ker:1,3", 3), ("bal:", 3), ("bal:1", 1),
    ])
    def test_named_specs(self, text, n_gens):
        spec = parse_subgroup(text, n_gens)
        for radius in range(7 if n_gens < 3 else 6):
            assert list(_members(spec, radius, CAP)) == list(reference(spec, radius))


class TestSameVerdicts:
    @settings(max_examples=60, deadline=None)
    @given(groups, st.integers(1, 5), st.data())
    def test_circle_verdicts(self, group, depth, data):
        n_gens, spec = group
        angles = data.draw(st.lists(st.fractions(F(1, 12), 1, max_denominator=12),
                                    min_size=n_gens, max_size=n_gens))
        x = data.draw(st.fractions(0, 1, max_denominator=12))
        family = CircleFamily(angles)
        for call in (lambda: is_h_fixed(family, spec, x, depth),
                     lambda: periodic_set(family, spec, depth),
                     lambda: stable_set_check(family, spec, F(0), x, 4, F(1, 20),
                                              ray_depth=min(depth, 3))):
            assert outcome(call) == by_reference(call)

    @settings(max_examples=60, deadline=None)
    @given(groups, st.integers(1, 5), st.data())
    def test_bank_verdicts(self, group, depth, data):
        n_gens, spec = group
        rates = data.draw(st.lists(st.sampled_from([F(3, 2), 2, 3, 4]),
                                   min_size=n_gens, max_size=n_gens))
        family = BankFamily(rates)
        for call in (lambda: is_h_fixed(family, spec, F(1), depth),
                     lambda: classify_periodicity(rates, spec, depth)):
            assert outcome(call) == by_reference(call)


def zero_sum_gens(spec):
    """The generators whose exponent sum is zero on every member, as read
    from the spec's balanced and kernel parts."""
    if isinstance(spec, IntersectionSubgroup):
        return frozenset().union(*map(zero_sum_gens, spec.parts))
    if isinstance(spec, (Balanced, KernelSubgroup)):
        return spec.indices
    return frozenset()


class TestWorkDone:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(cyclic_specs), st.integers(0, 40))
    def test_a_cyclic_walk_is_linear_in_the_radius(self, spec, radius):
        # the folded graph of u = c v c^-1 is the path c and the cycle v: the
        # walk goes round the cycle both ways, 1 + 2 * radius words when c
        # is e, and each member also visits the |c| words of its own c
        u_len, v_len = spec._lengths
        # |u^n| = |u| + (|n| - 1)|v|, so u^n and u^-n fit for n <= powers
        powers = (radius - u_len) // v_len + 1 if radius >= u_len else 0
        stem = (u_len - v_len) // 2  # |c|
        cap = 1 + 2 * radius + stem * 2 * powers
        assert len(list(_members(spec, radius, cap))) == 2 * powers

    def test_a_balanced_walk_visits_under_a_third_of_the_ball(self):
        spec = Balanced(2, frozenset([2]))
        members = list(_members(spec, 6, ball_size(6, 2) // 3))
        assert members == list(reference(spec, 6))

    @settings(max_examples=150, deadline=None)
    @given(groups, st.integers(0, 5))
    def test_no_spec_visits_more_than_the_zero_sum_prune(self, group, radius):
        # the words within reach of exponent sum zero on the generators the
        # balanced and kernel parts fix, counted over the whole ball
        n_gens, spec = group
        radius = min(radius, 5 if n_gens < 3 else 4)
        fixed = zero_sum_gens(spec)
        bound = sum(1 for node in ball_enumerate(radius, n_gens)
                    if node.word.length + sum(abs(node.word.exponent_sum(i))
                                              for i in fixed) <= radius)
        assert list(_members(spec, radius, bound)) == list(reference(spec, radius))

    def test_a_kernel_keeping_every_generator_visits_only_the_root(self):
        assert list(_members(KernelSubgroup(2, frozenset([1, 2])), 12, 1)) == []

    @pytest.mark.parametrize("text", ["cyclic:s1^10000", "and(cyclic:s1^10000;even:1)"])
    def test_a_cyclic_part_longer_than_the_radius_visits_only_the_root(self, text):
        # every power u^n with n != 0 is at least as long as u
        assert list(_members(parse_subgroup(text, 2), 3, 1)) == []

    def test_a_cyclic_part_longer_than_the_depth_builds_no_graph(self):
        spec = CyclicSubgroup(W(f"s1^{10 ** 9}"))
        verdict = is_h_fixed(CircleFamily([F(1, 3), F(1, 5)]), spec, F(1, 7), 3,
                             node_cap=10)
        assert verdict == VerifiedUpTo(0, 3)

    def test_a_long_cyclic_part_within_the_depth_is_bounded_by_the_cap(self):
        # |u| = 200,000 fits the depth, so the walk starts, and the graph of
        # <u> is built only at the vertices the 10 allowed words reach
        family = CircleFamily([F(1, 3), F(1, 5)])
        spec = CyclicSubgroup(W("s1^200000"))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="needs 11 nodes, cap is 10"):
                is_h_fixed(family, spec, F(1, 7), 200_000, node_cap=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_deep_cyclic_search_lists_only_its_powers(self):
        # V_3000 is far over the cap; the 6,001 visited words are not
        family = CircleFamily([F(1, 3), F(1, 5)])
        spec = CyclicSubgroup(W("s1^3"))
        assert is_h_fixed(family, spec, F(1, 7), 3000, node_cap=10_000) == \
            VerifiedUpTo(0, 3000)

    def test_a_balanced_search_under_a_quarter_ball_cap_answers(self):
        cap = ball_size(8, 2) // 4
        verdict = is_h_fixed(BankFamily([2, 3]), Balanced.all_generators(2),
                             F(1), 8, node_cap=cap)
        assert verdict == VerifiedUpTo(0, 8)

    @pytest.mark.parametrize("spec", [
        FullGroup(2), CyclicSubgroup(W("s1")), Balanced.all_generators(2),
        KernelSubgroup(2, frozenset([1, 2]))])
    def test_every_route_counts_the_root(self, spec):
        with pytest.raises(ResourceLimitError) as info:
            list(_members(spec, 0, 0))
        assert (info.value.requested, info.value.cap) == (1, 0)
        assert list(_members(spec, 0, 1)) == []

    def test_each_visited_word_counts(self):
        # s1 s2 and its inverse, four powers a side within V_8; the walk
        # visits the root and the 8 words along each side of the 2-cycle,
        # the negative side first, so the cap stops the last positive power
        spec = CyclicSubgroup(W("s1 s2"))
        assert len(list(_members(spec, 8, 17))) == 8
        stream, got = _members(spec, 8, 16), []
        with pytest.raises(ResourceLimitError) as info:
            got.extend(stream)
        assert (info.value.requested, info.value.cap) == (17, 16)
        assert got == list(reference(spec, 8))[:7]

    @pytest.mark.parametrize("text, n_gens, radius, nodes", [
        ("bal:", 2, 6, 205),
        ("bal:1", 3, 5, 1649),
        ("ker:1,2", 3, 5, 419),
        ("and(bal:1;ker:2,3)", 3, 5, 69),
        ("and(ker:1,2;ker:2,3)", 3, 5, 53),
        ("and(even:1,2;bal:1)", 2, 6, 443),
        ("and(bal:1,2;even:1,2)", 2, 6, 205),
        ("and(even:1;cyclic:s1*s2)", 2, 10, 19)])
    def test_visited_node_counts_are_pinned(self, monkeypatch, text, n_gens,
                                            radius, nodes):
        # the walk visits exactly ``nodes`` words, the root included: a lone
        # kernel prunes by its image alone, and the zero-sum prune of several
        # parts reads the union of the generators they fix; a table of moves
        # emptied every two states changes neither
        spec = parse_subgroup(text, n_gens)
        for rows in (words._MOVE_ROWS, 2):
            monkeypatch.setattr(words, "_MOVE_ROWS", rows)
            assert list(_members(spec, radius, nodes)) == list(reference(spec, radius))
            with pytest.raises(ResourceLimitError,
                               match=f"needs {nodes} nodes, cap is {nodes - 1}$"):
                list(_members(spec, radius, nodes - 1))

    def test_a_walk_holds_a_bounded_table_of_moves(self, monkeypatch):
        # two kernels meet a new product state at nearly every word, and a
        # row kept for each would grow with the walk (1.6 MiB here); a full
        # table is emptied instead
        spec = parse_subgroup("and(ker:1,2;ker:2,3)", 3)
        members = list(_members(spec, 8, CAP))
        monkeypatch.setattr(words, "_MOVE_ROWS", 16)
        tracemalloc.start()
        try:
            assert list(_members(spec, 8, CAP)) == members
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19

    @pytest.mark.parametrize("text, n_gens, radius, states", [
        ("even:1,2", 2, 6, 2), ("cyclic:s1^3", 2, 3000, 3)])
    def test_each_state_is_stepped_once_per_letter(self, text, n_gens, radius,
                                                   states):
        # the walk keeps each state's moves, so a part's step runs once per
        # state and letter, not once per child word
        calls = []
        automaton = subgroups._automaton

        def counted(part, radius):
            start, step = automaton(part, radius)

            def counting(state, letter):
                calls.append((state, letter))
                return step(state, letter)
            return start, counting
        with mock.patch.object(subgroups, "_automaton", counted):
            subgroups.subgroup_ball(parse_subgroup(text, n_gens), radius,
                                    node_cap=10_000)
        assert len(set(calls)) == len(calls) <= states * 2 * n_gens

    @pytest.mark.parametrize("angles, text, cap, witness", [
        ((F(1, 3), F(1, 5)), "cyclic:s1", 20, "s1"),
        ((F(1, 4), F(1, 5)), "cyclic:s1^3", 4, "s1^3"),
        ((F(1, 3), F(1, 5)), "cyclic:s2*s1*s2^-1", 20, "s2 s1^10 s2^-1")])
    def test_a_witness_search_stops_at_its_witness(self, angles, text, cap, witness):
        # V_12 is far over the cap; the whole-ball walk reaches each witness
        # within it, and so must the pruned walk
        verdict = is_h_fixed(CircleFamily(angles), parse_subgroup(text, 2), F(0),
                             12, node_cap=cap)
        assert verdict.r == W(witness)

    @settings(max_examples=150, deadline=None)
    @given(groups, st.integers(0, 5))
    def test_no_member_needs_more_nodes_than_the_whole_ball_walk(self, group, radius):
        n_gens, spec = group
        radius = min(radius, 5 if n_gens < 3 else 4)
        reached = [count for count, node in enumerate(ball_enumerate(radius, n_gens), 1)
                   if node.parent is not None and spec.member(node.word)]
        for i, count in enumerate(reached[:10], 1):
            # the walk held its i-th member once it had counted ``count`` nodes
            assert len(list(itertools.islice(_members(spec, radius, count), i))) == i


class TestSpecTextRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(groups)
    def test_every_spec_kind_parses_back(self, group):
        n_gens, spec = group
        assert parse_subgroup(str(spec), n_gens) == spec


class TestStructureReadOnce:
    @pytest.mark.parametrize("text", ["and(cyclic:s1^2*s2^5;full)",
                                      "and(and(cyclic:s1^2*s2^5;full);even:1)"])
    def test_listed_powers_are_tested_only_by_the_other_parts(self, text):
        # the powers of u are tested only by the other parts: the member walk
        # calls no ``member`` of the cyclic part
        spec = parse_subgroup(text, 2)
        want = list(reference(spec, 8))
        # u = s1^2 s2^5 turns circle (1/2, 1/5) a whole turn, (1/3, 1/5) by 2/3
        fixed = CircleFamily([F(1, 2), F(1, 5)])
        moved = CircleFamily([F(1, 3), F(1, 5)])
        with mock.patch.object(CyclicSubgroup, "member",
                               side_effect=AssertionError("cyclic part tested")):
            assert list(_members(spec, 8, CAP)) == want
            assert is_h_fixed(fixed, spec, F(1, 7), 2000) == VerifiedUpTo(0, 2000)
            assert is_h_fixed(moved, spec, F(1, 7), 2000) == Counterexample(
                W("e"), W("s2^-5 s1^-2"), F(1, 7), F(10, 21))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda k: st.tuples(st.just(k), specs(k), specs(k), specs(k))),
        st.integers(0, 5))
    def test_nesting_gives_the_same_answers(self, drawn, radius):
        n_gens, a, b, c = drawn
        radius = min(radius, 5 if n_gens < 3 else 4)
        shapes = [IntersectionSubgroup((a, IntersectionSubgroup((b, c)))),
                  IntersectionSubgroup((IntersectionSubgroup((a, b)), c)),
                  IntersectionSubgroup((a, b, c))]
        rates = (2, 3, 5)[:n_gens]
        family = CircleFamily([F(1, 7), F(1, 11), F(1, 13)][:n_gens])
        depth = max(radius, 1)
        assert len({outcome(lambda: classify_periodicity(rates, s, depth))
                    for s in shapes}) == 1
        assert len({outcome(lambda: periodic_set(family, s, depth))
                    for s in shapes}) == 1
        flat_members = list(_members(shapes[-1], radius, CAP))
        for shape in shapes[:-1]:
            assert list(_members(shape, radius, CAP)) == flat_members
