"""Reduced words over a finitely generated free group, and Cayley-ball geometry.

A word is stored run-length encoded: a tuple of ``(generator, exponent)``
pairs with nonzero exponents and distinct adjacent generators.  The empty
tuple is the identity ``e``.  Geodesic length is the sum of ``|exponent|``.

Ball enumeration grows words on the *left*: the child of ``w`` is ``l*w`` for
a signed letter ``l`` that is not the inverse of ``w``'s first letter.  Words
act on points as a left action (see :mod:`mdtds.engine`), so a child's orbit
value is exactly one map application of its parent's value.  The enumerated
set is the full ball ``V_n`` either way.  One preorder walk, ``_walk``,
visits the ball for every reader: ``ball_enumerate`` adds each word's
parent to it, the other enumerations read it directly, and the subgroup
member walk (``subgroups._members``) runs it pruned by the one automaton
it is handed.
"""
from __future__ import annotations

import functools
import re
from dataclasses import FrozenInstanceError
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ResourceLimitError, WordSyntaxError

DEFAULT_NODE_CAP = 100_000_000
# rows of moves a pruned walk holds (see ``_walk``): some automata meet a new
# state at nearly every word, and a row for each would grow with the walk
_MOVE_ROWS = 4096

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
        return _run_text(self)  # the one-letter run (gen, +-1)


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


@functools.lru_cache(maxsize=4096)
def _run_text(run: Run) -> str:
    """``s<g>`` or ``s<g>^<e>``: one run as printed, cached across words."""
    gen, exp = run
    return f"s{gen}" if exp == 1 else f"s{gen}^{exp}"


_TOKEN = re.compile(r"^s([0-9]+)(?:\^(-?[0-9]+))?$")


class _WordSlots:
    """The storage of a Word, filled once when the word is made.

    A fresh instance of this unguarded base gets its slots filled with plain
    stores and only then becomes a Word, whose ``__setattr__`` refuses every
    assignment; that is cheaper than routing each store past the guard.
    ``Word.__new__`` and the ball walk ``_walk`` make words this
    way; ``Word.length`` fills ``_length`` later if it was not given.
    """

    __slots__ = ("n_gens", "runs", "_length")


_blank = object.__new__
_set_length = _WordSlots._length.__set__


class Word(_WordSlots):
    """A reduced word; immutable and hashable.  Use the factory methods.

    ``length`` is cached: given at construction by callers that know it
    (the ball enumeration passes each word its depth), otherwise computed
    on first use.
    """

    __slots__ = ()
    __match_args__ = ("n_gens", "runs")

    def __new__(cls, n_gens: int, runs: tuple, length: Optional[int] = None):
        self = _blank(_WordSlots)
        self.n_gens = n_gens
        self.runs = runs
        self._length = length
        self.__class__ = cls
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Word, (self.n_gens, self.runs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n_gens == other.n_gens and self.runs == other.runs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n_gens, self.runs))

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
        """The reduced product of ``(generator, exponent)`` runs.

        Every generator must lie in ``1..n_gens`` and every exponent be
        nonzero; otherwise WordSyntaxError names the run (``zero exponent in
        s2^0``).  Adjacent runs may share a generator and are merged.
        """
        for gen, exp in runs:
            if not 1 <= gen <= n_gens:
                raise WordSyntaxError(f"generator s{gen} out of range 1..{n_gens}")
            if exp == 0:
                raise WordSyntaxError(f"zero exponent in s{gen}^0")
        return cls(n_gens, _reduce(runs))

    @classmethod
    def parse(cls, text: str, n_gens: int) -> "Word":
        """Parse ``e`` or tokens ``s<i>[^<k>]`` separated by spaces or ``*``.

        A token that is not of that form is a ``bad token``; the runs the
        tokens spell are then checked and reduced by :meth:`from_runs`.
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
            runs.append((int(m.group(1)), int(m.group(2) or 1)))
        return cls.from_runs(n_gens, runs)

    # -- structure ---------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.runs

    @property
    def length(self) -> int:
        """Geodesic length: sum of |exponent| over runs."""
        length = self._length
        if length is None:
            length = sum(abs(e) for _, e in self.runs)
            _set_length(self, length)
        return length

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
        return " ".join(map(_run_text, self.runs))

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
        raise WordSyntaxError("need at least one generator")
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
        raise WordSyntaxError("need at least one generator")
    if n_gens == 1:
        return 2 * radius + 1
    q = 2 * n_gens
    total = (q * (q - 1) ** radius - 2) // (q - 2)
    return total


def _ball_exceeds(radius: int, n_gens: int, limit) -> bool:
    """Whether |V_radius| > ``limit`` (an int or a float).

    On two or more generators |V_r| >= 4 * 3**(r-1) >= 2**(r+1), so every
    radius from the limit's bit length on is over it, decided without
    building |V_radius|; a smaller radius compares the closed form.
    """
    return (n_gens > 1 and radius >= int(limit).bit_length()
            or ball_size(radius, n_gens) > limit)


_NAMED_SIZE_LIMIT = 1 << 64  # refusals name ball sizes up to this exactly


def check_ball_cap(radius: int, n_gens: int, node_cap: int) -> None:
    """Raise ResourceLimitError when V_radius has more than ``node_cap`` words.

    The error names the ball size when it is at most the larger of the cap
    and 2**64, and otherwise says that it exceeds that limit, decided by
    ``_ball_exceeds``, which builds no size for a radius from the limit's
    bit length on.
    """
    limit = max(node_cap, _NAMED_SIZE_LIMIT)
    if _ball_exceeds(radius, n_gens, limit):
        raise ResourceLimitError(limit, node_cap, exact=False)
    size = ball_size(radius, n_gens)
    if size > node_cap:
        raise ResourceLimitError(size, node_cap)


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


def _walk(n_gens: int, radius: int, node_cap: int,
          automaton=None) -> Iterator[tuple]:
    """Yield ``(word, letter)`` in preorder over V_radius, pruned on request.

    Children are ordered by generator index, sign +1 before -1, and never
    prepend the inverse of their parent's leading letter; ``letter`` is the
    one prepended to the parent (None for the root, which comes first).  So
    the parent of a word of length d is the last word of length d-1 visited
    before it, and words come in the order of their letter indices read from
    the right end (the path from the root), a word before its extensions.

    The one prune is ``automaton``, a ``(start, step)`` left action with
    ``step(state, letter)`` giving ``(state, need)`` or None when dead;
    ``need`` is a lower bound on the letters still to prepend to reach a
    wanted word, 0 exactly at one.  The walk keeps each state's row of 2k
    ``step`` results in ``moves``, built the first time it leaves that
    state, so ``step`` runs once per distinct (state, letter) while the
    walk meets at most ``_MOVE_ROWS`` states; past that, a full ``moves``
    is emptied and rows are built again as states come back, so its memory
    stays bounded however many words the walk visits.  A subtree whose
    state is dead or with ``|w| + need > radius`` is skipped unvisited, and
    only the words with ``need == 0`` are yielded and built; with no
    automaton every word is.

    The root and each visited word count against ``node_cap``, and past it
    ResourceLimitError is raised (a cap below 1 refuses the root).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if node_cap < 1:
        raise ResourceLimitError(1, node_cap)
    if n_gens < 1:
        raise WordSyntaxError("need at least one generator")
    letters = alphabet(n_gens)
    start, step = automaton or (None, None)
    # state -> its (state, need) after each letter, in letter index order
    moves = {} if step else {None: [(None, 0)] * len(letters)}
    # per letter in descending index order, so that the stack pops children
    # in ascending order: index, letter, gen, sign, one-letter runs
    table = [(li, letter, letter.gen, letter.sign, ((letter.gen, letter.sign),))
             for li, letter in reversed(tuple(enumerate(letters)))]
    # entries: runs, length, the automaton's (state, need), the letter prepended
    stack = [((), 0, (start, 0), None)]
    count = 0
    while stack:
        runs, depth, (state, need), letter = stack.pop()
        count += 1
        if count > node_cap:
            raise ResourceLimitError(count, node_cap)
        if not need:
            # Word(n_gens, runs, depth) with the slots filled in place
            word = _blank(_WordSlots)
            word.n_gens = n_gens
            word.runs = runs
            word._length = depth
            word.__class__ = Word
            yield word, letter
        if depth == radius:
            continue
        row = moves.get(state)
        if row is None:
            if len(moves) >= _MOVE_ROWS:
                moves.clear()
            row = moves[state] = [step(state, each) for each in letters]
        # the root has no head: generator 0 blocks and merges with no letter
        head_gen, head_exp = runs[0] if runs else (0, 0)
        blocked = 2 * head_gen - (1 if head_exp > 0 else 2)  # inverse of the head
        tail = runs[1:]
        depth += 1
        room = radius - depth  # the largest need a child may have
        for li, letter, gen, sign, run in table:
            got = row[li]
            if li == blocked or got is None or got[1] > room:
                continue
            # the letter merges into a leading run of its generator
            stack.append((((gen, head_exp + sign),) + tail if gen == head_gen
                          else run + runs, depth, got, letter))


def ball_enumerate(radius: int, n_gens: int, *,
                   node_cap: int = DEFAULT_NODE_CAP) -> Iterator[BallNode]:
    """Stream the ball V_radius in deterministic depth-first order.

    Children are ordered by generator index, sign +1 before -1.  Each word is
    emitted exactly once, parents before children; a child never prepends the
    inverse of its parent's leading letter (no backtracking on the tree).
    Raises ResourceLimitError when V_radius has more than ``node_cap`` words
    (the root counts as the first, so a cap below 1 refuses it too), and
    WordSyntaxError for fewer than one generator, both at the first ``next``,
    before any node.

    The order is the preorder of ``_walk``, the one walk of the ball behind
    every enumeration here and the pruned member walk of
    ``subgroups._members``: the parent of a word of length d is the last
    word of length d-1 emitted before it.  That is how the parents are
    found here, from a path of the last word per depth; the internal readers
    that need no parent (``engine._orbit_walk``, ``cli.cmd_ball``,
    ``sphere_words``, ``ball_decompose``) read ``_walk`` directly.
    """
    check_ball_cap(radius, n_gens, node_cap)
    walk = _walk(n_gens, radius, node_cap)
    root = next(walk)[0]
    yield BallNode(root, None, None)
    path = [root] * (min(radius, node_cap) + 1)  # c words reach depth c-1 at most
    node = tuple.__new__
    for word, letter in walk:
        depth = word._length
        path[depth] = word
        yield node(BallNode, (word, path[depth - 1], letter))


def sphere_words(radius: int, n_gens: int, *,
                 node_cap: int = DEFAULT_NODE_CAP) -> list[Word]:
    """All words of length exactly ``radius`` in enumeration order.

    An over-cap V_radius is refused before the first word.
    """
    check_ball_cap(radius, n_gens, node_cap)
    return [word for word, _ in _walk(n_gens, radius, node_cap)
            if word._length == radius]


# -- Cayley ball decomposition -------------------------------------------------


class BallComponent(NamedTuple):
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
    An over-cap V_radius is refused before the first block.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    check_ball_cap(radius, n_gens, node_cap)
    root = Word.identity(n_gens)
    # per letter s: s and the runs of s^1 .. s^radius as one-run tails
    tails = [(s, [((s.gen, s.sign * j),) for j in range(1, radius + 1)])
             for s in alphabet(n_gens)]
    node = tuple.__new__

    def ray(runs: tuple, length: int, tail: list) -> tuple:
        # the base is e or ends in another generator, so each word is reduced
        return tuple([Word(n_gens, runs + run, size)
                      for size, run in zip(range(length + 1, radius + 1), tail)])

    comps = [BallComponent("identity", None, None, (root,))]
    comps += [BallComponent("axis_ray", None, s, ray((), 0, tail)) for s, tail in tails]
    # letters that may follow a base whose last generator is g
    after = {g: [(s, tail) for s, tail in tails if s.gen != g]
             for g in range(1, n_gens + 1)}
    words = _walk(n_gens, radius - 1, node_cap)
    next(words)  # the root is no base
    for t, _ in words:
        runs, length = t.runs, t._length
        for s, tail in after[runs[-1][0]]:
            comps.append(node(BallComponent,
                              ("word_ray", t, s, ray(runs, length, tail))))
    return comps
