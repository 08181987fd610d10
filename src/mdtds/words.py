"""Reduced words over a finitely generated free group, and Cayley-ball geometry.

A word is stored run-length encoded: a tuple of ``(generator, exponent)``
pairs with nonzero exponents and distinct adjacent generators.  The empty
tuple is the identity ``e``.  Geodesic length is the sum of ``|exponent|``.

Ball enumeration grows words on the *left*: the child of ``w`` is ``l*w`` for
a signed letter ``l`` that is not the inverse of ``w``'s first letter.  Words
act on points as a left action (see :mod:`mdtds.engine`), so a child's orbit
value is exactly one map application of its parent's value.  The enumerated
set is the full ball ``V_n`` either way.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ResourceLimitError, WordSyntaxError

DEFAULT_NODE_CAP = 100_000_000

Run = tuple  # (generator index >= 1, nonzero exponent)


class SignedLetter(NamedTuple):
    """One generator or inverse generator: ``sign`` is +1 or -1."""

    gen: int
    sign: int

    @property
    def index(self) -> int:
        """Dense index 0..2|S|-1; generator order, +1 before -1."""
        return 2 * (self.gen - 1) + (0 if self.sign > 0 else 1)

    @classmethod
    def from_index(cls, idx: int) -> "SignedLetter":
        return cls(idx // 2 + 1, 1 if idx % 2 == 0 else -1)

    def inverse(self) -> "SignedLetter":
        return SignedLetter(self.gen, -self.sign)

    def __str__(self) -> str:
        return f"s{self.gen}" if self.sign > 0 else f"s{self.gen}^-1"


def alphabet(n_gens: int) -> tuple[SignedLetter, ...]:
    """All 2|S| signed letters in dense-index order."""
    return tuple(SignedLetter.from_index(i) for i in range(2 * n_gens))


def _reduce(runs) -> tuple:
    """Fold a run sequence into reduced form (merge/cancel at every seam)."""
    out: list = []
    for gen, exp in runs:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return tuple(out)


_TOKEN = re.compile(r"^s([0-9]+)(?:\^(-?[0-9]+))?$")


@dataclass(frozen=True)
class Word:
    """A reduced word; immutable and hashable.  Use the factory methods."""

    n_gens: int
    runs: tuple

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n_gens: int) -> "Word":
        if n_gens < 1:
            raise WordSyntaxError("need at least one generator")
        return cls(n_gens, ())

    @classmethod
    def letter(cls, n_gens: int, gen: int, sign: int = 1) -> "Word":
        if not 1 <= gen <= n_gens:
            raise WordSyntaxError(f"generator s{gen} out of range 1..{n_gens}")
        if sign not in (1, -1):
            raise WordSyntaxError("sign must be +1 or -1")
        return cls(n_gens, ((gen, sign),))

    @classmethod
    def from_runs(cls, n_gens: int, runs: Sequence) -> "Word":
        for gen, exp in runs:
            if not 1 <= gen <= n_gens:
                raise WordSyntaxError(f"generator s{gen} out of range 1..{n_gens}")
            if exp == 0:
                raise WordSyntaxError("zero exponent run")
        return cls(n_gens, _reduce(runs))

    @classmethod
    def parse(cls, text: str, n_gens: int) -> "Word":
        """Parse ``e`` or tokens ``s<i>[^<k>]`` separated by spaces or ``*``.

        Parsing, printing and re-parsing is a fixed point: the result is the
        reduced word equal to the written product.
        """
        stripped = text.strip()
        if not stripped:
            raise WordSyntaxError("empty word text")
        if stripped == "e":
            return cls.identity(n_gens)
        runs = []
        for token in re.split(r"[\s*]+", stripped):
            m = _TOKEN.match(token)
            if not m:
                raise WordSyntaxError(f"bad token {token!r}")
            gen = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
            if exp == 0:
                raise WordSyntaxError(f"zero exponent in {token!r}")
            if not 1 <= gen <= n_gens:
                raise WordSyntaxError(f"generator s{gen} out of range 1..{n_gens}")
            runs.append((gen, exp))
        return cls(n_gens, _reduce(runs))

    # -- structure ---------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.runs

    @property
    def length(self) -> int:
        """Geodesic length: sum of |exponent| over runs."""
        return sum(abs(e) for _, e in self.runs)

    def letters(self) -> Iterator[SignedLetter]:
        """The fully expanded letter sequence, left to right."""
        for gen, exp in self.runs:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield SignedLetter(gen, sign)

    def first_letter(self) -> SignedLetter:
        if not self.runs:
            raise WordSyntaxError("identity word has no letters")
        gen, exp = self.runs[0]
        return SignedLetter(gen, 1 if exp > 0 else -1)

    def last_letter(self) -> SignedLetter:
        """The final signed letter of the reduced word (undefined for e)."""
        if not self.runs:
            raise WordSyntaxError("identity word has no letters")
        gen, exp = self.runs[-1]
        return SignedLetter(gen, 1 if exp > 0 else -1)

    def count_letter(self, letter: SignedLetter) -> int:
        """Occurrences of a signed letter in the expanded reduced word."""
        want = 1 if letter.sign > 0 else -1
        return sum(abs(e) for g, e in self.runs
                   if g == letter.gen and (1 if e > 0 else -1) == want)

    def exponent_sum(self, gen: int) -> int:
        """Signed exponent total of one generator (abelianized image)."""
        return sum(e for g, e in self.runs if g == gen)

    # -- group operations ----------------------------------------------------

    def _check_group(self, other: "Word") -> None:
        if self.n_gens != other.n_gens:
            raise WordSyntaxError("words from different groups")

    def __mul__(self, other: "Word") -> "Word":
        """Reduced concatenation (other written after self)."""
        self._check_group(other)
        return Word(self.n_gens, _reduce(self.runs + other.runs))

    def inverse(self) -> "Word":
        """Reverse the runs and negate exponents; an involution."""
        return Word(self.n_gens, tuple((g, -e) for g, e in reversed(self.runs)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(self.n_gens, _reduce(base.runs * abs(n)))

    def prepend(self, letter: SignedLetter) -> "Word":
        """Multiply by a single letter on the left."""
        runs = self.runs
        if runs and runs[0][0] == letter.gen:
            merged = runs[0][1] + letter.sign
            if merged == 0:
                return Word(self.n_gens, runs[1:])
            return Word(self.n_gens, ((letter.gen, merged),) + runs[1:])
        return Word(self.n_gens, ((letter.gen, letter.sign),) + runs)

    def is_prefix_of(self, other: "Word") -> bool:
        """True iff self lies on the geodesic from e to other.

        Equivalent to: self's expanded letters are an initial segment of
        other's.  Defines a partial order with e below everything.
        """
        self._check_group(other)
        a, b = self.runs, other.runs
        if len(a) > len(b):
            return False
        if not a:
            return True
        for i in range(len(a) - 1):
            if a[i] != b[i]:
                return False
        ga, ea = a[-1]
        gb, eb = b[len(a) - 1]
        if ga != gb or (ea > 0) != (eb > 0):
            return False
        # self's final run may stop partway through the matching run of other
        return abs(ea) <= abs(eb)

    def __str__(self) -> str:
        if not self.runs:
            return "e"
        return " ".join(f"s{g}" if e == 1 else f"s{g}^{e}" for g, e in self.runs)

    def __repr__(self) -> str:
        return f"Word({self!s})"


def parse_word(text: str, n_gens: int) -> Word:
    return Word.parse(text, n_gens)


# -- sphere/ball cardinalities ------------------------------------------------


def sphere_size(radius: int, n_gens: int) -> int:
    """|W_n|: number of reduced words of length exactly ``radius``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n_gens < 1:
        raise ValueError("need at least one generator")
    if radius == 0:
        return 1
    q = 2 * n_gens
    return q * (q - 1) ** (radius - 1)


def ball_size(radius: int, n_gens: int) -> int:
    """|V_n|: number of reduced words of length at most ``radius``.

    For one generator the tree degenerates to the integer line (2n+1 words);
    otherwise the closed form q((q-1)^n - ...) / (q-2) applies with q = 2|S|.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if n_gens < 1:
        raise ValueError("need at least one generator")
    if n_gens == 1:
        return 2 * radius + 1
    q = 2 * n_gens
    total = (q * (q - 1) ** radius - 2) // (q - 2)
    return total


# -- enumeration ---------------------------------------------------------------


class BallNode(NamedTuple):
    """One enumerated word with its tree parent and the letter applied.

    ``word == letter * parent`` (left extension); the letter is the map that
    turns the parent's orbit value into this word's value.  The root ``e``
    has parent and letter ``None``.
    """

    word: Word
    parent: Optional[Word]
    letter: Optional[SignedLetter]


def ball_enumerate(radius: int, n_gens: int, *,
                   node_cap: int = DEFAULT_NODE_CAP) -> Iterator[BallNode]:
    """Stream the ball V_radius in deterministic depth-first order.

    Children are ordered by generator index, sign +1 before -1.  Each word is
    emitted exactly once, parents before children; a child never prepends the
    inverse of its parent's leading letter (no backtracking on the tree).
    Raises ResourceLimitError when the stream would exceed ``node_cap`` nodes.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    root = Word.identity(n_gens)
    yield BallNode(root, None, None)
    if radius == 0:
        return
    letters = alphabet(n_gens)
    count = 1
    # stack entries: (word, parent, letter, depth, blocked index)
    stack = []
    for letter in reversed(letters):
        stack.append((root.prepend(letter), root, letter, 1, letter.index ^ 1))
    while stack:
        word, parent, letter, depth, blocked = stack.pop()
        count += 1
        if count > node_cap:
            raise ResourceLimitError(count, node_cap)
        yield BallNode(word, parent, letter)
        if depth < radius:
            for li in range(2 * n_gens - 1, -1, -1):
                if li != blocked:
                    child_letter = letters[li]
                    stack.append((word.prepend(child_letter), word,
                                  child_letter, depth + 1, li ^ 1))


def sphere_words(radius: int, n_gens: int, *,
                 node_cap: int = DEFAULT_NODE_CAP) -> list[Word]:
    """All words of length exactly ``radius`` in enumeration order."""
    return [node.word for node in ball_enumerate(radius, n_gens, node_cap=node_cap)
            if node.word.length == radius]


# -- Cayley ball decomposition -------------------------------------------------


@dataclass(frozen=True)
class BallComponent:
    """One block of the ball partition: {e}, an axis ray, or a word ray.

    * ``identity``: the single word e.
    * ``axis_ray``: {s, s^2, ..., s^n} for a signed letter s.
    * ``word_ray``: {t s, t s^2, ..., t s^(n-|t|)} for a word t of length >= 1
      and a signed letter s whose generator differs from t's last letter.
    """

    kind: str
    base: Optional[Word]
    letter: Optional[SignedLetter]
    words: tuple


def ball_decompose(radius: int, n_gens: int, *,
                   node_cap: int = DEFAULT_NODE_CAP) -> list[BallComponent]:
    """Partition V_radius into {e}, axis rays, and word rays.

    The blocks are pairwise disjoint and their union is exactly the
    enumerated ball; empty rays (bases of length = radius) are omitted.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    root = Word.identity(n_gens)

    def ray(base: Word, s: SignedLetter, count: int) -> tuple:
        # base is e or ends in another generator, so one more run stays reduced
        return tuple(Word(n_gens, base.runs + ((s.gen, s.sign * j),))
                     for j in range(1, count + 1))

    comps = [BallComponent("identity", None, None, (root,))]
    for s in alphabet(n_gens):
        comps.append(BallComponent("axis_ray", None, s, ray(root, s, radius)))
    if radius == 1:
        return comps
    for node in ball_enumerate(radius - 1, n_gens, node_cap=node_cap):
        t = node.word
        k = t.length
        if k == 0:
            continue
        last_gen = t.last_letter().gen
        for s in alphabet(n_gens):
            if s.gen != last_gen:
                comps.append(BallComponent("word_ray", t, s, ray(t, s, radius - k)))
    return comps
