from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mdtds import (ResourceLimitError, SignedLetter, Word, WordSyntaxError,
                   alphabet, ball_decompose, ball_enumerate, ball_size,
                   parse_word, sphere_size, sphere_words,
                   traversal_sphere_counts)

from conftest import W, random_word, words_strategy


class TestParse:
    def test_identity(self):
        assert parse_word("e", 2).is_identity

    def test_already_reduced(self):
        assert parse_word("s1^2 s2^-1", 2).runs == ((1, 2), (2, -1))

    def test_cancellation(self):
        # s1 s1^-1 s2 collapses to s2
        assert parse_word("s1 s1^-1 s2", 2) == W("s2")

    def test_star_separator(self):
        assert parse_word("s1*s2^-1", 2) == W("s1 s2^-1")

    def test_round_trip_is_fixed_point(self):
        for text in ("e", "s1", "s1^2 s2^-1 s1", "s2^-3"):
            word = parse_word(text, 2)
            assert parse_word(str(word), 2) == word

    @pytest.mark.parametrize("bad", ["", "s0", "s3", "s1^0", "x1", "s1^", "s1 q"])
    def test_rejects(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad, 2)


class TestGroupOps:
    def test_mul_examples(self):
        assert W("e") * W("s1 s2") == W("s1 s2")
        assert W("s1^2") * W("s1^-2") == W("e")
        # seam cancellation: s1 s2 * s2^-1 s1 = s1^2
        assert W("s1 s2") * W("s2^-1 s1") == W("s1^2")

    def test_inverse_examples(self):
        assert W("e").inverse() == W("e")
        assert W("s1^3").inverse() == W("s1^-3")
        assert W("s1 s2^-2").inverse() == W("s2^2 s1^-1")

    def test_length(self):
        assert W("e").length == 0
        assert W("s1^2 s2^-3").length == 5
        assert W("s1 s2 s1").length == 3

    def test_mixed_groups_rejected(self):
        with pytest.raises(WordSyntaxError):
            W("s1") * parse_word("s1", 3)

    @given(words_strategy(), words_strategy(), words_strategy())
    def test_group_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        e = Word.identity(2)
        assert e * a == a and a * e == a
        assert a * a.inverse() == e and a.inverse() * a == e
        assert a.inverse().inverse() == a

    @given(words_strategy(), words_strategy())
    def test_length_subadditive_and_parity(self, a, b):
        product = a * b
        assert product.length <= a.length + b.length
        assert (product.length - a.length - b.length) % 2 == 0

    @given(words_strategy())
    def test_reduction_idempotent(self, a):
        assert Word.from_runs(2, a.runs) == a

    def test_pow(self):
        u = W("s1 s2")
        assert u ** 0 == W("e")
        assert u ** 3 == W("s1 s2 s1 s2 s1 s2")
        assert u ** -2 == (u * u).inverse()

    @given(words_strategy(max_len=6), st.integers(-6, 6))
    @example(W("s1 s2 s1^-1"), 3)
    @example(W("s1 s2 s1^-1"), -4)
    @example(W("s2^-2 s1 s2^3"), 5)
    def test_pow_equals_repeated_product(self, u, n):
        base = u if n >= 0 else u.inverse()
        product = Word.identity(2)
        for _ in range(abs(n)):
            product = product * base
        assert u ** n == product
        # independent of run merging: free reduction of the expanded letters
        stack = []
        for letter in list(base.letters()) * abs(n):
            if stack and stack[-1] == letter.inverse():
                stack.pop()
            else:
                stack.append(letter)
        assert list((u ** n).letters()) == stack


class TestLetters:
    def test_last_letter(self):
        assert W("s1^2").last_letter() == SignedLetter(1, 1)
        assert W("s1 s2^-3").last_letter() == SignedLetter(2, -1)
        assert W("s2^-1 s1").last_letter() == SignedLetter(1, 1)
        with pytest.raises(WordSyntaxError):
            W("e").last_letter()

    def test_count_letter(self):
        assert W("e").count_letter(SignedLetter(1, 1)) == 0
        assert W("s1^3").count_letter(SignedLetter(1, 1)) == 3
        assert W("s1^2 s2^-1 s1^-1").count_letter(SignedLetter(1, -1)) == 1

    def test_count_minus_inverse_is_exponent_sum(self, rng):
        for _ in range(50):
            w = random_word(rng, 2, 10)
            for gen in (1, 2):
                plus = w.count_letter(SignedLetter(gen, 1))
                minus = w.count_letter(SignedLetter(gen, -1))
                assert plus - minus == w.exponent_sum(gen)

    def test_letter_index_round_trip(self):
        for letter in alphabet(3):
            assert SignedLetter.from_index(letter.index) == letter
            assert letter.inverse().index == letter.index ^ 1


class TestPrefixOrder:
    def test_examples(self):
        assert W("e").is_prefix_of(W("s1 s2"))
        assert W("s1").is_prefix_of(W("s1^2 s2"))
        assert not W("s2").is_prefix_of(W("s1 s2"))
        assert not W("s1^3").is_prefix_of(W("s1^2 s2"))
        assert W("s1^2").is_prefix_of(W("s1^2 s2"))

    @given(words_strategy(max_len=6), words_strategy(max_len=6))
    def test_partial_order(self, a, b):
        # antisymmetry plus consistency with concatenation
        assert a.is_prefix_of(a)
        if a.is_prefix_of(b) and b.is_prefix_of(a):
            assert a == b
        left = a * b
        if not a.is_identity and not b.is_identity:
            seam_cancels = a.last_letter() == b.first_letter().inverse()
            assert a.is_prefix_of(left) == (not seam_cancels)

    @given(words_strategy(max_len=5), words_strategy(max_len=5),
           words_strategy(max_len=5))
    def test_transitive(self, a, b, c):
        if a.is_prefix_of(b) and b.is_prefix_of(c):
            assert a.is_prefix_of(c)


class TestCardinalities:
    def test_examples(self):
        assert sphere_size(1, 2) == 4
        assert ball_size(2, 2) == 17
        assert ball_size(0, 3) == 1
        assert ball_size(4, 1) == 9  # the integer line

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_enumeration_matches_closed_forms(self, n_gens):
        words = [node.word for node in ball_enumerate(6, n_gens)]
        assert len(words) == len(set(words)) == ball_size(6, n_gens)
        by_len = Counter(w.length for w in words)
        for n in range(7):
            assert by_len[n] == sphere_size(n, n_gens)

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_kernel_counts_match_closed_forms(self, n_gens):
        counts = traversal_sphere_counts(8, n_gens)
        assert counts == [sphere_size(n, n_gens) for n in range(9)]

    def test_ratio_law(self):
        # |W_n| / |V_n| approaches (q-2)/(q-1), exactly evaluated
        q = 4
        ratio = Fraction(sphere_size(30, 2), ball_size(30, 2))
        assert abs(ratio - Fraction(q - 2, q - 1)) < Fraction(1, 10 ** 6)


class TestEnumeration:
    def test_radius_zero(self):
        nodes = list(ball_enumerate(0, 2))
        assert len(nodes) == 1 and nodes[0].word.is_identity

    def test_radius_one_set(self):
        words = {str(node.word) for node in ball_enumerate(1, 2)}
        assert words == {"e", "s1", "s1^-1", "s2", "s2^-1"}

    def test_parent_before_child_and_letter_link(self):
        seen = set()
        for node in ball_enumerate(4, 2):
            if node.parent is None:
                assert node.word.is_identity
            else:
                assert node.parent in seen
                assert node.parent.prepend(node.letter) == node.word
                # no backtracking: the prepended letter never cancels
                assert node.word.length == node.parent.length + 1
            seen.add(node.word)

    def test_deterministic_order(self):
        first = [str(n.word) for n in ball_enumerate(3, 2)]
        second = [str(n.word) for n in ball_enumerate(3, 2)]
        assert first == second

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            list(ball_enumerate(5, 2, node_cap=10))

    def test_sphere_words(self):
        assert len(sphere_words(2, 2)) == 12


class TestDecomposition:
    def test_radius_one(self):
        comps = ball_decompose(1, 2)
        kinds = Counter(c.kind for c in comps)
        assert kinds == {"identity": 1, "axis_ray": 4}
        assert all(len(c.words) == 1 for c in comps)

    def test_radius_two_block_structure(self):
        comps = ball_decompose(2, 2)
        sizes = sorted(len(c.words) for c in comps)
        # {e}, four axis rays of two words, eight singleton word rays
        assert sizes == [1] + [1] * 8 + [2] * 4

    @pytest.mark.parametrize("n_gens,radius", [(2, r) for r in range(1, 7)]
                             + [(3, r) for r in range(1, 5)])
    def test_partition_equals_ball(self, n_gens, radius):
        comps = ball_decompose(radius, n_gens)
        union = [w for c in comps for w in c.words]
        assert len(union) == len(set(union)), "blocks overlap"
        enumerated = {node.word for node in ball_enumerate(radius, n_gens)}
        assert set(union) == enumerated

    def test_block_sizes_sum_to_ball_size(self):
        for radius in range(1, 6):
            comps = ball_decompose(radius, 2)
            assert sum(len(c.words) for c in comps) == ball_size(radius, 2)

    @pytest.mark.parametrize("n_gens,radius", [(2, 4), (3, 3)])
    def test_ray_words_are_letter_powers(self, n_gens, radius):
        for comp in ball_decompose(radius, n_gens):
            if comp.kind == "identity":
                continue
            step = Word.letter(n_gens, comp.letter.gen, comp.letter.sign)
            base = comp.base if comp.kind == "word_ray" else Word.identity(n_gens)
            for j, word in enumerate(comp.words, start=1):
                assert word == base * step ** j

    def test_block_order_is_pinned(self):
        word_rays = [
            ("s1", "s2"), ("s1", "s2^-1"), ("s1^2", "s2"), ("s1^2", "s2^-1"),
            ("s2 s1", "s2"), ("s2 s1", "s2^-1"),
            ("s2^-1 s1", "s2"), ("s2^-1 s1", "s2^-1"),
            ("s1^-1", "s2"), ("s1^-1", "s2^-1"), ("s1^-2", "s2"), ("s1^-2", "s2^-1"),
            ("s2 s1^-1", "s2"), ("s2 s1^-1", "s2^-1"),
            ("s2^-1 s1^-1", "s2"), ("s2^-1 s1^-1", "s2^-1"),
            ("s2", "s1"), ("s2", "s1^-1"), ("s1 s2", "s1"), ("s1 s2", "s1^-1"),
            ("s1^-1 s2", "s1"), ("s1^-1 s2", "s1^-1"),
            ("s2^2", "s1"), ("s2^2", "s1^-1"), ("s2^-1", "s1"), ("s2^-1", "s1^-1"),
            ("s1 s2^-1", "s1"), ("s1 s2^-1", "s1^-1"),
            ("s1^-1 s2^-1", "s1"), ("s1^-1 s2^-1", "s1^-1"),
            ("s2^-2", "s1"), ("s2^-2", "s1^-1"),
        ]
        expected = ([("identity", None, None)]
                    + [("axis_ray", None, s) for s in ("s1", "s1^-1", "s2", "s2^-1")]
                    + [("word_ray", base, s) for base, s in word_rays])
        got = [(c.kind, None if c.base is None else str(c.base),
                None if c.letter is None else str(c.letter))
               for c in ball_decompose(3, 2)]
        assert got == expected

    def test_word_ray_letters_avoid_final_generator(self):
        for comp in ball_decompose(4, 2):
            if comp.kind == "word_ray":
                assert comp.letter.gen != comp.base.last_letter().gen
