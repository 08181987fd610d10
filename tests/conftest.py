import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import strategies as st

from mdtds import (BankFamily, CallableMapFamily, CircleFamily, Domain,
                   SignedLetter, Word, affine_and_square_family,
                   identity_family)


def W(text: str, n_gens: int = 2) -> Word:
    return Word.parse(text, n_gens)


def random_word(rng: random.Random, n_gens: int, max_len: int) -> Word:
    """Uniform-ish random reduced word built letter by letter."""
    word = Word.identity(n_gens)
    for _ in range(rng.randrange(max_len + 1)):
        choices = [SignedLetter.from_index(i) for i in range(2 * n_gens)]
        if not word.is_identity:
            blocked = word.last_letter().inverse()
            choices = [c for c in choices if c != blocked]
        letter = rng.choice(choices)
        word = word * Word.letter(n_gens, letter.gen, letter.sign)
    return word


def ball_key(word: Word) -> list:
    """The letter indices of a word read from the right end, its path from
    the root: sorting by them puts words in ``ball_enumerate`` order."""
    return [2 * gen - (2 if exp > 0 else 1)
            for gen, exp in reversed(word.runs) for _ in range(abs(exp))]


def random_fraction(rng: random.Random, max_num: int = 50) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_num))


def words_strategy(n_gens: int = 2, max_len: int = 8):
    """Hypothesis strategy for reduced words, built from letter indices."""
    letter_lists = st.lists(st.integers(0, 2 * n_gens - 1), max_size=max_len)

    def build(indices):
        word = Word.identity(n_gens)
        for idx in indices:
            letter = SignedLetter.from_index(idx)
            word = word * Word.letter(n_gens, letter.gen, letter.sign)
        return word

    return letter_lists.map(build)


def preorder_spheres(n_gens, n_max, step, x0):
    """Per-sphere value lists of each root subtree, by recursive preorder."""
    def visit(depth, value, last, spheres):
        spheres[depth].append(value)
        if depth < n_max:
            for letter in range(2 * n_gens):
                if letter != last ^ 1:
                    visit(depth + 1, step(value, letter), letter, spheres)

    parts = []
    for root in range(2 * n_gens):
        spheres = [[] for _ in range(n_max + 1)]
        visit(1, step(x0, root), root, spheres)
        parts.append(spheres)
    return parts


def fold_spheres(parts, x0, order):
    """Ball sums: each subtree's spheres in ``order``, subtrees by letter."""
    sums = [x0]
    for depth in range(1, len(parts[0])):
        totals = [reduce(add, order(spheres[depth])) for spheres in parts]
        sums.append(reduce(add, totals))
    return sums


# every family of the package, with the points its maps take
_exact_unit = st.integers(1, 12).flatmap(
    lambda den: st.builds(Fraction, st.integers(0, den), st.just(den)))
_exact_circle = st.integers(1, 12).flatmap(
    lambda den: st.builds(Fraction, st.integers(0, den - 1), st.just(den)))
_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
_positive = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))
LINE_PAIRS = [(lambda v: 2 * v + 1, lambda v: (v - 1) / 2),
              (lambda v: -v, lambda v: -v)]
LETTER_MAP_FAMILIES = {
    "callable exact": (lambda: CallableMapFamily(LINE_PAIRS, Domain()),
                       _rationals),
    # large or non-finite points leave the domain through inf and nan
    "callable float": (lambda: CallableMapFamily(LINE_PAIRS, Domain(),
                                                 exact=False), st.floats()),
    "affine/square exact": (affine_and_square_family, _exact_unit),
    "affine/square float": (lambda: affine_and_square_family(exact=False),
                            st.floats(0, 1)),
    "identity": (lambda: identity_family(2), _rationals),
    "bank": (lambda: BankFamily([Fraction(3, 2), 4, Fraction(7, 5)]), _positive),
    "circle exact": (lambda: CircleFamily([Fraction(1, 3), Fraction(2, 7)]), _exact_circle),
    "circle float": (lambda: CircleFamily([0.3, 0.7], exact=False),
                     st.floats(0, 1, exclude_max=True)),
}


@pytest.fixture
def rng():
    return random.Random(20260810)
