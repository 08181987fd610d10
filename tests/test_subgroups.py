import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdtds import (Balanced, CyclicSubgroup, EvenCount, FullGroup,
                   IntersectionSubgroup, KernelSubgroup, Word,
                   WordSyntaxError, ball_enumerate, parse_subgroup,
                   subgroup_ball)

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
                if letter.gen in spec.kept:
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

    def test_membership_leaves_equality_hash_and_repr(self):
        u = W("s1 s2 s1^-1")
        spec, fresh = CyclicSubgroup(u), CyclicSubgroup(u)
        assert spec.member(W("s1 s2^3 s1^-1"))
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh) and str(spec) == str(fresh)


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
                                     "bal:9", "and()"])
    def test_rejects(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_subgroup(bad, 2)
