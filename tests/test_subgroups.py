import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (Balanced, CyclicSubgroup, EvenCount, FullGroup,
                   IntersectionSubgroup, KernelSubgroup, ResourceLimitError,
                   SubgroupSpec,
                   Word, WordSyntaxError, ball_enumerate, ball_size,
                   parse_subgroup, subgroup_ball)
from mdtds.words import _reduce

from conftest import W, random_word, words_strategy


def all_specs(n_gens=2):
    return [
        FullGroup(n_gens),
        CyclicSubgroup(Word.parse("s1 s2", n_gens)),
        CyclicSubgroup(Word.parse("s1", n_gens)),
        Balanced.all_generators(n_gens),
        Balanced(n_gens, frozenset([1])),
        EvenCount(n_gens, frozenset([1])),
        EvenCount(n_gens, frozenset(range(1, n_gens + 1))),
        IntersectionSubgroup((EvenCount(n_gens, frozenset([1])),
                              EvenCount(n_gens, frozenset([2])))),
    ]


class TestMembership:
    def test_balanced_examples(self):
        assert Balanced.all_generators(2).member(W("s1 s2 s1^-1 s2^-1"))
        assert not Balanced.all_generators(2).member(W("s1"))
        assert Balanced(2, frozenset([1])).member(W("s2^3"))

    def test_even_count_examples(self):
        assert EvenCount(2, frozenset([1])).member(W("s1^2 s2"))
        assert not EvenCount(2, frozenset([1, 2])).member(W("s1^2 s2"))

    def test_kernel_erasure_with_cascading_cancellation(self):
        # erasing s3 from s3 s1 s3^-1 s1^-1 leaves s1 s1^-1 = e: a member
        spec = KernelSubgroup(3, frozenset([1, 2]))
        assert spec.member(Word.parse("s3 s1 s3^-1 s1^-1", 3))
        assert not spec.member(Word.parse("s1 s3", 3))

    def test_cyclic_examples(self):
        u = W("s1 s2")
        spec = CyclicSubgroup(u)
        assert spec.member(u ** 3)
        assert spec.member(u ** -2)
        assert spec.member(W("e"))
        assert not spec.member(W("s1"))
        assert not spec.member(W("s2 s1"))

    def test_cyclic_non_cyclically_reduced_generator(self):
        u = W("s1 s2 s1^-1")
        spec = CyclicSubgroup(u)
        assert spec.member(u ** 4)
        assert spec.member(u ** -3)
        assert not spec.member(W("s2^4"))

    def test_cyclic_rejects_identity_generator(self):
        with pytest.raises(WordSyntaxError):
            CyclicSubgroup(W("e"))

    def test_identity_is_member_of_everything(self):
        for spec in all_specs():
            assert spec.member(W("e")), str(spec)

    @pytest.mark.parametrize("n_gens", [2, 3])
    def test_closure_under_product_and_inverse(self, n_gens):
        for spec in all_specs(n_gens) if n_gens == 2 else [
                Balanced.all_generators(3), KernelSubgroup(3, frozenset([1, 2])),
                EvenCount(3, frozenset([1, 3]))]:
            members = subgroup_ball(spec, 3)
            for a, b in itertools.product(members, repeat=2):
                assert spec.member(a * b), f"{spec}: {a} * {b}"
            for a in members:
                assert spec.member(a.inverse())

    def test_kernel_agrees_with_homomorphism_oracle(self, rng):
        spec = KernelSubgroup(3, frozenset([1, 3]))

        def hom_image(word):
            # evaluate the erasure letter by letter as a homomorphism
            image = Word.identity(3)
            for letter in word.letters():
                if letter.gen in spec.indices:
                    image = image * Word.letter(3, letter.gen, letter.sign)
            return image

        for _ in range(200):
            w = random_word(rng, 3, 10)
            assert spec.member(w) == hom_image(w).is_identity

    def test_balanced_subset_of_even_count(self):
        # zero exponent sums force even occurrence totals per generator
        balanced = Balanced.all_generators(2)
        for w in subgroup_ball(balanced, 4):
            for indices in ([1], [2], [1, 2]):
                assert EvenCount(2, frozenset(indices)).member(w)


class TestCosets:
    def test_even_count_has_two_classes_on_a_ball(self):
        spec = EvenCount(2, frozenset([1, 2]))
        words = [node.word for node in ball_enumerate(4, 2)]
        classes = {}
        for w in words:
            rep = next((r for r in classes if spec.member(w * r.inverse())), None)
            if rep is None:
                classes[w] = [w]
            else:
                classes[rep].append(w)
        assert len(classes) == 2
        # same-class products of representatives stay inside the subgroup
        (rep1, members1), (rep2, members2) = classes.items()
        for w in members1[:20]:
            assert spec.member(w * rep1.inverse())
            assert not spec.member(w * rep2.inverse())


@st.composite
def _cyclic_cases(draw):
    """(u, words to test): u is c v c^-1, a power of one letter, or any word."""
    n_gens = draw(st.integers(1, 3))
    v = draw(words_strategy(n_gens, 4).filter(lambda w: not w.is_identity))
    c = draw(words_strategy(n_gens, 3))
    k = draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
    u = draw(st.sampled_from([c * v * c.inverse(), v,
                              Word.letter(n_gens, 1) ** k]))
    radius = 5 if n_gens < 3 else 4
    ball = [node.word for node in ball_enumerate(radius, n_gens)]
    return u, ball + [u ** j for j in range(-4, 5)]


class TestCyclicMembership:
    @settings(max_examples=60, deadline=None)
    @given(_cyclic_cases())
    def test_matches_brute_force_powers(self, case):
        u, words = case
        # |u^n| >= |n| for reduced u != e, so these powers cover every word
        top = max(w.length for w in words)
        powers = {u ** n for n in range(-top, top + 1)}
        spec = CyclicSubgroup(u)
        for w in words:
            assert spec.member(w) == (w in powers), (u, w)

    @pytest.mark.parametrize("n_gens, text, other", [
        (1, "s1^2", "s1^3"),
        (2, "s1 s2", "s2^-1 s1"),
        (2, "s1 s2 s1^-1", "s2^2 s1 s2^-2"),
        (2, "s2^-1 s1^2 s2 s1 s2", "s1"),
        (3, "s3 s1 s2^-1 s3^-1", "s2 s3"),
    ])
    def test_warm_powers_give_the_same_answers(self, n_gens, text, other):
        radius = 5 if n_gens < 3 else 4
        words = [node.word for node in ball_enumerate(radius, n_gens)]
        specs = [CyclicSubgroup(Word.parse(t, n_gens)) for t in (text, other)]
        words += [s.generator_word ** j for s in specs for j in range(-3, 4)]
        top = max(w.length for w in words)

        def expected(u):
            powers = [u ** n for n in range(-top, top + 1)]
            return [any(w == p for p in powers) for w in words]
        want = [expected(s.generator_word) for s in specs]
        # a cold pass, a warm pass in reverse order, then the two specs
        # interleaved, so no spec answers from the other's powers
        for spec, answers in zip(specs, want):
            assert [spec.member(w) for w in words] == answers
            assert [spec.member(w) for w in reversed(words)] == answers[::-1]
        for i, w in enumerate(words):
            assert [spec.member(w) for spec in specs] == [a[i] for a in want]

    def test_membership_leaves_equality_hash_and_repr(self):
        u = W("s1 s2 s1^-1")
        spec, fresh = CyclicSubgroup(u), CyclicSubgroup(u)
        assert spec.member(W("s1 s2^3 s1^-1"))
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh) and str(spec) == str(fresh)


def _index_set(n_gens, min_size):
    return st.sets(st.integers(1, n_gens), min_size=min_size).map(frozenset)


def _ball_and_random_words(data, n_gens):
    """The ball of radius 5 (4 on three generators) and a few longer words."""
    radius = 5 if n_gens < 3 else 4
    return ([node.word for node in ball_enumerate(radius, n_gens)]
            + data.draw(st.lists(words_strategy(n_gens, 16), max_size=10)))


class TestKernelMembership:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_matches_the_erasure_reduction(self, n_gens, data):
        # over two generators a kernel keeps both; over three it keeps two
        # or all three
        kept = data.draw(_index_set(n_gens, 2))
        spec = KernelSubgroup(n_gens, kept)
        for w in _ball_and_random_words(data, n_gens):
            erased = _reduce((g, e) for g, e in w.runs if g in kept)
            assert spec.member(w) == (not erased), (sorted(kept), w)


class TestBalancedMembership:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_matches_the_exponent_sums(self, n_gens, data):
        indices = data.draw(_index_set(n_gens, 1))
        spec = Balanced(n_gens, indices)
        even = EvenCount(n_gens, data.draw(_index_set(n_gens, 1)))
        both = IntersectionSubgroup((spec, even))
        for w in _ball_and_random_words(data, n_gens):
            balanced = all(w.exponent_sum(i) == 0 for i in indices)
            assert spec.member(w) == balanced, (sorted(indices), w)
            assert both.member(w) == (balanced and even.member(w)), w


def _every_family(n_gens):
    return all_specs(n_gens) + [
        KernelSubgroup(n_gens, frozenset([1, 2])),
        CyclicSubgroup(Word.parse("s1 s2 s1^-1", n_gens)),
        IntersectionSubgroup((Balanced.all_generators(n_gens),
                              EvenCount(n_gens, frozenset([2])))),
    ]


class TestSubgroupBall:
    @pytest.mark.parametrize("n_gens,radius", [(2, 5), (3, 3)])
    def test_equals_the_member_filter_in_order(self, n_gens, radius):
        for spec in _every_family(n_gens):
            expected = [node.word for node in ball_enumerate(radius, n_gens)
                        if spec.member(node.word)]
            assert subgroup_ball(spec, radius) == expected, str(spec)

    def test_full_group(self):
        assert len(subgroup_ball(FullGroup(2), 1)) == 5

    def test_cyclic_ball(self):
        u = W("s1 s2")
        members = {str(w) for w in subgroup_ball(CyclicSubgroup(u), 4)}
        assert members == {"e", "s1 s2", "s1 s2 s1 s2",
                           "s2^-1 s1^-1", "s2^-1 s1^-1 s2^-1 s1^-1"}

    def test_balanced_ball_radius_one(self):
        assert [str(w) for w in subgroup_ball(Balanced.all_generators(2), 1)] == ["e"]

    def test_cyclic_ball_far_smaller_than_its_radius_ball_is_walked(self):
        # the walk round the 3-cycle of <s1^3> visits 6,001 words, while
        # V_3000 has more than 2**64
        ball = subgroup_ball(CyclicSubgroup(W("s1^3")), 3000, node_cap=100_000)
        assert len(ball) == 2001

    def test_the_cap_counts_the_words_visited_root_included(self):
        with pytest.raises(ResourceLimitError) as info:
            subgroup_ball(FullGroup(2), 12, node_cap=1000)
        assert (info.value.requested, info.value.cap) == (1001, 1000)
        assert len(subgroup_ball(FullGroup(2), 6, node_cap=ball_size(6, 2))) == \
            ball_size(6, 2)


class TestMeta:
    def test_indices(self):
        assert FullGroup(2).meta().index_value == 1
        assert EvenCount(2, frozenset([1])).meta().index_kind == "finite"
        assert EvenCount(2, frozenset([1])).meta().index_value == 2
        assert CyclicSubgroup(W("s1 s2")).meta().index_kind == "infinite"
        assert Balanced.all_generators(2).meta().index_kind == "infinite"
        assert KernelSubgroup(3, frozenset([1, 2])).meta().index_kind == "infinite"

    def test_intersection_of_even_counts(self):
        spec = IntersectionSubgroup((EvenCount(2, frozenset([1])),
                                     EvenCount(2, frozenset([2]))))
        meta = spec.meta()
        assert meta.index_kind == "finite_at_most"
        assert meta.index_value == 4

    def test_intersection_with_infinite_part(self):
        spec = IntersectionSubgroup((EvenCount(2, frozenset([1])),
                                     Balanced.all_generators(2)))
        assert spec.meta().index_kind == "infinite"

    def test_cyclic_index_on_the_integer_line(self):
        spec = CyclicSubgroup(Word.parse("s1^3", 1))
        meta = spec.meta()
        assert meta.index_kind == "finite" and meta.index_value == 3

    def test_generator_membership_witnesses(self):
        assert KernelSubgroup(3, frozenset([1, 2])).meta().generators == (3,)
        assert Balanced.all_generators(2).meta().generators == ()
        # a partially balanced subgroup does contain untouched generators
        assert Balanced(2, frozenset([1])).meta().generators == (2,)
        assert EvenCount(2, frozenset([1])).meta().generators == (2,)
        assert EvenCount(2, frozenset([1, 2])).meta().generators == ()
        # both orientations of a one-letter cyclic generator contain s_i
        assert CyclicSubgroup(W("s1")).meta().generators == (1,)
        assert CyclicSubgroup(W("s1^-1")).meta().generators == (1,)
        assert CyclicSubgroup(W("s1 s2")).meta().generators == ()

    def test_a_spec_of_no_built_in_kind(self):
        # its membership oracle still answers, but its index is unknown and
        # the member walk, which reads only built-in parts, names its class
        @dataclass(frozen=True)
        class EvenLength(SubgroupSpec):
            n_gens: int

            def member(self, word):
                self._check_group(word)
                return word.length % 2 == 0

            def __str__(self):
                return "even-length"

        spec = EvenLength(2)
        meta = spec.meta()
        assert (meta.index_kind, meta.index_value, meta.generators) == \
            ("unknown", None, ())
        both = IntersectionSubgroup((spec, EvenCount(2, frozenset([1]))))
        assert both.meta().index_kind == "unknown"
        with pytest.raises(TypeError, match="no member walk for EvenLength"):
            subgroup_ball(spec, 2)


class TestSpecText:
    @pytest.mark.parametrize("text", [
        "full", "cyclic:s1*s2", "bal:", "bal:1", "even:1,2", "ker:1,2",
        "and(even:1;even:2)", "and(bal:;even:1)",
    ])
    def test_round_trip(self, text):
        spec = parse_subgroup(text, 2)
        assert parse_subgroup(str(spec), 2) == spec

    def test_bal_empty_means_all(self):
        assert parse_subgroup("bal:", 2) == Balanced.all_generators(2)

    @pytest.mark.parametrize("bad", ["", "nope", "cyclic:e", "even:", "ker:1",
                                     "bal:9", "and()", "bal:1,,2", "even:1,",
                                     "ker:1,1", "bal:1;2", "even:1e3"])
    def test_rejects(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_subgroup(bad, 2)

    @pytest.mark.parametrize("kind", [Balanced, EvenCount, KernelSubgroup])
    @pytest.mark.parametrize("index", [1.5, True, 2.0])
    def test_rejects_an_index_that_is_not_an_int(self, kind, index):
        with pytest.raises(WordSyntaxError):
            kind(3, frozenset([3, index]))
