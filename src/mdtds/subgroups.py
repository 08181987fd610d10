"""Symbolic subgroup families with exact membership decision procedures.

Families (over a group on ``n_gens`` generators):

* ``FullGroup``: the whole group.
* ``CyclicSubgroup(u)``: powers of a fixed nonempty word.
* ``Balanced(A)``: exponent sum zero for every generator in A
  (A = all generators gives the fully balanced subgroup).
* ``EvenCount(A)``: total occurrences of generators in A is even; a normal
  subgroup of index 2.
* ``KernelSubgroup(M)``: words that reduce to the identity after erasing all
  generators outside M; the kernel of the erasure homomorphism, a normal
  subgroup of infinite index (|M| > 1).
* ``IntersectionSubgroup(parts)``: conjunction of the above.

Membership is purely syntactic per family; there is no general membership
test for arbitrary finitely generated subgroups.  Searches get a subgroup's
members from the one preorder walk of the ball, ``words._walk``, pruned by
``_members`` with one left-action automaton, the product of an automaton
per part (a folded Stallings graph for a cyclic part) and of the exponent
sums the ``bal:`` and ``ker:`` parts fix (``_zero_sums``); it tests no
word, and the ``member`` methods are the independent oracle.  Every
structural decision, the index metadata (``_index``) among them, reads a
spec only through ``_parts``, so spellings of one H such as ``S``,
``and(S;full)``, ``and(S;S)`` and nested intersections get the same
answers.
``_set_verdict`` is the one set-level periodicity rule of the growth and
rotation models: it reads a witness or a proof that H acts trivially from
the spec's structure where it can, and searches the members otherwise.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional

from .errors import WordSyntaxError
from .words import DEFAULT_NODE_CAP, Word, _reduce, _walk


@dataclass(frozen=True)
class SubgroupMeta:
    """Known analytic facts about a subgroup.

    ``index_kind`` is one of ``finite`` (exact value), ``finite_at_most``
    (upper bound), ``infinite``, or ``unknown``, read from the spec's
    distinct parts (``_parts``) by one rule, ``_index``: ``full`` has index
    1 and a single part its own (2 for ``even:``, |k| for ``cyclic:s1^k``
    on one generator, infinite otherwise); several parts give infinite when
    one is, else at most the product of their indices.  Only a part of no
    built-in kind makes it ``unknown``.  ``generators`` lists the
    generator indices i with s_i a member, computed exactly by direct
    membership tests, so it is never unknown.
    """

    index_kind: str
    index_value: Optional[int]
    generators: tuple


class SubgroupSpec(ABC):
    """Base class: an exact membership oracle plus metadata."""

    n_gens: int

    @abstractmethod
    def member(self, word: Word) -> bool:
        """Exact membership decision."""

    @abstractmethod
    def __str__(self) -> str:
        """Canonical spec text, re-parseable by :func:`parse_subgroup`."""

    def _check_group(self, word: Word) -> None:
        if word.n_gens != self.n_gens:
            raise WordSyntaxError("word and subgroup over different groups")

    def meta(self) -> SubgroupMeta:
        gens = tuple(i for i in range(1, self.n_gens + 1)
                     if self.member(Word.letter(self.n_gens, i)))
        return SubgroupMeta(*_index(_parts(self)), gens)


@dataclass(frozen=True)
class FullGroup(SubgroupSpec):
    n_gens: int

    def __post_init__(self):
        if self.n_gens < 1:
            raise WordSyntaxError("need at least one generator")

    def member(self, word: Word) -> bool:
        self._check_group(word)
        return True

    def __str__(self) -> str:
        return "full"


@dataclass(frozen=True)
class CyclicSubgroup(SubgroupSpec):
    """All integer powers of a fixed reduced word u != e."""

    generator_word: Word

    def __post_init__(self):
        if self.generator_word.is_identity:
            raise WordSyntaxError("cyclic subgroup needs a nonidentity word")

    @property
    def n_gens(self) -> int:  # type: ignore[override]
        return self.generator_word.n_gens

    @cached_property
    def _lengths(self) -> tuple:
        """(|u|, |v|) for u = c v c^-1 with v cyclically reduced."""
        u = self.generator_word
        return u.length, (u ** 2).length - u.length

    def member(self, word: Word) -> bool:
        self._check_group(word)
        if word.is_identity:
            return True
        # |u^n| = |u| + (|n|-1)|v| for n != 0, so the length of word fixes |n|
        u_len, v_len = self._lengths
        steps, rest = divmod(word.length - u_len, v_len)
        if rest or steps < 0:
            return False
        power = self.generator_word ** (steps + 1)
        return word == power or word == power.inverse()

    def __str__(self) -> str:
        return "cyclic:" + str(self.generator_word).replace(" ", "*")


@dataclass(frozen=True)
class _IndexSubgroup(SubgroupSpec):
    """A subgroup named by at least ``least`` generator indices, each an
    int in 1..n_gens, with spec text ``prefix`` and the sorted indices."""

    n_gens: int
    indices: frozenset
    prefix = ""
    least = 1

    def __post_init__(self):
        if (len(self.indices) < self.least
                or not all(type(i) is int and 1 <= i <= self.n_gens
                           for i in self.indices)):
            raise WordSyntaxError(f"{self.prefix} needs {self.least} or more "
                                  f"integer indices, each in 1..{self.n_gens}")

    def __str__(self) -> str:
        return self.prefix + ",".join(str(i) for i in sorted(self.indices))


class Balanced(_IndexSubgroup):
    """Exponent sum zero for every generator in ``indices``."""

    prefix = "bal:"

    @classmethod
    def all_generators(cls, n_gens: int) -> "Balanced":
        return cls(n_gens, frozenset(range(1, n_gens + 1)))

    def member(self, word: Word) -> bool:
        self._check_group(word)
        sums = [0] * (self.n_gens + 1)  # exponent sum per generator, one pass
        for gen, exp in word.runs:
            sums[gen] += exp
        return not any(map(sums.__getitem__, self.indices))

    def __str__(self) -> str:
        return "bal:" if len(self.indices) == self.n_gens else super().__str__()


class EvenCount(_IndexSubgroup):
    """Total occurrence count of generators in ``indices`` is even."""

    prefix = "even:"

    def member(self, word: Word) -> bool:
        self._check_group(word)
        total = sum(abs(e) for g, e in word.runs if g in self.indices)
        return total % 2 == 0


class KernelSubgroup(_IndexSubgroup):
    """Words erased to the identity by dropping generators outside
    ``indices``, the kept generators."""

    prefix = "ker:"
    least = 2

    def member(self, word: Word) -> bool:
        self._check_group(word)
        remaining = _reduce((g, e) for g, e in word.runs if g in self.indices)
        return not remaining


@dataclass(frozen=True)
class IntersectionSubgroup(SubgroupSpec):
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise WordSyntaxError("intersection needs at least one part")
        sizes = {p.n_gens for p in self.parts}
        if len(sizes) != 1:
            raise WordSyntaxError("intersection parts over different groups")

    @property
    def n_gens(self) -> int:  # type: ignore[override]
        return self.parts[0].n_gens

    def member(self, word: Word) -> bool:
        return all(p.member(word) for p in self.parts)

    def __str__(self) -> str:
        return "and(" + ";".join(str(p) for p in self.parts) + ")"


def _parts(spec: SubgroupSpec) -> list:
    """The one structural reading of a spec: its parts with nested
    intersections flattened, each repeated part kept once (at its first
    occurrence) and ``full`` left out, so every spelling of H reads the
    same; ``full`` alone has no parts."""
    if isinstance(spec, IntersectionSubgroup):
        return list(dict.fromkeys(leaf for part in spec.parts for leaf in _parts(part)))
    return [] if isinstance(spec, FullGroup) else [spec]


def _cyclic_word(spec: SubgroupSpec) -> Optional[Word]:
    """The generator u when H is cyclic, that is when its parts are one
    cyclic part <u>; else None."""
    parts = _parts(spec)
    cyclic = len(parts) == 1 and isinstance(parts[0], CyclicSubgroup)
    return parts[0].generator_word if cyclic else None


def _index(parts: list) -> tuple:
    """``(index_kind, index_value)`` of the intersection of ``parts`` by the
    rule ``SubgroupMeta`` states (``cyclic:s1^k`` on one generator is k Z in
    the integer line).  H sits inside each part, so one infinite part makes
    its index infinite, and the index of an intersection is at most the
    product of the parts' indices.  ``None`` stands for the index of a part
    of no built-in kind."""
    own = []
    for part in parts:
        if isinstance(part, EvenCount):
            own.append(2)
        elif isinstance(part, CyclicSubgroup) and part.n_gens == 1:
            own.append(abs(part.generator_word.runs[0][1]))
        elif isinstance(part, (Balanced, CyclicSubgroup, KernelSubgroup)):
            return "infinite", None
        else:
            own.append(None)
    if None in own:
        return "unknown", None
    return "finite" if len(own) < 2 else "finite_at_most", math.prod(own)


# a part with no member but e within the radius: dead below the root
_DEAD = (None, lambda state, letter: None)


def _automaton(part: SubgroupSpec, radius: int) -> tuple:
    """``(start, step)`` of a part's left action on V_radius, as
    ``words._walk`` reads it: ``step(state, letter)`` is ``(state, need)``
    after prepending ``letter``, or None when the state is dead; the walk
    keeps each state's moves, so no step caches its own.  A part
    with no member but e within the radius is ``_DEAD``: ``ker:`` keeping
    every generator (only e erases to e) and a cyclic part longer than the
    radius (``|u^n| >= |u|`` for n != 0)."""
    if (isinstance(part, KernelSubgroup) and len(part.indices) == part.n_gens
            or isinstance(part, CyclicSubgroup) and part.generator_word.length > radius):
        return _DEAD
    if isinstance(part, EvenCount):
        indices = part.indices

        def step(parity, letter):
            parity ^= letter.gen in indices
            return parity, parity
        return 0, step
    if isinstance(part, KernelSubgroup):
        kept = part.indices

        def step(image, letter):
            if letter.gen in kept:
                image = image.prepend(letter)
            return image, image.length
        return Word.identity(part.n_gens), step
    if isinstance(part, CyclicSubgroup):
        u_len, v_len = part._lengths
        stem = (u_len - v_len) // 2  # |c| for u = c v c^-1
        runs = part.generator_word.runs
        ends = list(accumulate(abs(exp) for _, exp in runs))

        def letter_at(p):  # the letter of u at 0-based position p
            gen, exp = runs[bisect_right(ends, p)]
            return gen, 1 if exp > 0 else -1

        def reached(p):  # (vertex, need) after reading p letters of u
            # reading u from the base 0 goes out along c to vertex ``stem``,
            # round the cycle v back to it, then home along c^-1; vertex i
            # is min(i, |u| - i) letters from the base
            b = p if p < stem + v_len else u_len - p
            return b, min(b, u_len - b)

        def edges(vertex):
            out = {}
            # the positions of u at the vertex: i, and |u| - i on the stem
            for p in (vertex, u_len - vertex) if vertex <= stem else (vertex,):
                # prepending a letter to w reads its inverse at the end of w^-1
                if p < u_len:
                    gen, sign = letter_at(p)
                    out[gen, -sign] = reached(p + 1)
                if p:
                    out[letter_at(p - 1)] = reached(p - 1)
            return out

        # the walk keeps each vertex's moves, so edges are built when it
        # leaves a vertex and never for one it does not reach: the graph
        # stays bounded by the words visited, not by |u|
        def step(vertex, letter):
            return edges(vertex).get(letter)
        return 0, step
    raise TypeError(f"no member walk for {type(part).__name__}")


def _zero_sums(n_gens: int, indices: frozenset) -> tuple:
    """``(start, step)`` of the exponent sums of the generators in
    ``indices``: the state is the sums by generator (slot 0 unused), and
    ``need`` is their L1 norm, since a prepended letter moves one sum by
    one."""
    def step(sums, letter):
        gen = letter.gen
        if gen in indices:
            sums = sums[:gen] + (sums[gen] + letter.sign,) + sums[gen + 1:]
        return sums, sum(map(abs, sums))
    return (0,) * (n_gens + 1), step


def _product(automata: list) -> tuple:
    """The automata side by side: dead when one is, with the largest need."""
    steps = [step for _, step in automata]

    def step(states, letter):
        got = [part_step(state, letter) for part_step, state in zip(steps, states)]
        if None in got:
            return None
        return tuple(state for state, _ in got), max(need for _, need in got)
    return tuple(start for start, _ in automata), step


def _members(spec: SubgroupSpec, radius: int, node_cap: int) -> Iterator[Word]:
    """Members other than e in V_radius, streamed in ``ball_enumerate`` order.

    The members are the words of the pruned walk ``words._walk`` whose
    ``need`` is 0; no ``member`` test runs.  Here the spec's parts
    (``_parts``: nested intersections flattened, repeats and ``full`` left
    out) become the walk's prune:

    * ``bal:`` parts and the kept generators of ``ker:`` parts: one
      ``_zero_sums`` over the union of the generators they fix, whose
      exponent sums must all be zero, with ``need`` their L1 norm (over the
      union, which prunes more than any one part's); left out when one
      ``ker:`` part keeps every one of those generators, since its image is
      never shorter than that norm, so the sums would prune nothing;
    * ``even:I``: an automaton on the parity of the letters in I;
    * ``ker:K``: the reduced image on K, with ``need`` its length;
    * ``cyclic:u`` with ``u = c v c^-1``: the vertex reached by reading
      ``w^-1`` from the base of the folded Stallings graph of ``<u>``, the
      path c and then the cycle v, with ``need`` its distance to the base
      and a missing edge dead; at most ``1 + 2 * radius`` words are visited,
      plus ``|c|`` per member.  A vertex's edges are read from the runs of
      ``u`` when the walk leaves it, so the graph built is bounded by the
      words visited, not by ``|u|``.

    A part with no member but e within the radius (``ker:`` keeping every
    generator, a cyclic part longer than the radius) is dead below the root
    (see ``_automaton``), so the walk ends at the root.  Several automata
    run as their product, with ``need`` the largest, and the walk is handed
    that one automaton; it steps each state once per letter (see
    ``words._walk`` for the bound on the states it keeps).  The root and
    each visited word count against ``node_cap``, and past it
    ResourceLimitError is raised (a cap below 1 refuses the root), so a
    search that stops at a witness has done only the work up to it.
    """
    parts = _parts(spec)
    fixed = frozenset().union(*(
        p.indices for p in parts if isinstance(p, (Balanced, KernelSubgroup))))
    automata = [_automaton(p, radius) for p in parts if not isinstance(p, Balanced)]
    if fixed and not any(isinstance(p, KernelSubgroup) and fixed <= p.indices
                         for p in parts):
        automata.append(_zero_sums(spec.n_gens, fixed))
    walk = _walk(spec.n_gens, radius, node_cap,
                 automata[0] if len(automata) == 1 else
                 _product(automata) if automata else None)
    next(walk)  # e: checked and counted first, and not yielded
    for word, _ in walk:
        yield word


def subgroup_ball(spec: SubgroupSpec, radius: int, *,
                  node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Members of the subgroup within the ball V_radius, enumeration order.

    The member walk counts the words it visits, the root included, against
    ``node_cap`` (see ``_members``); V_radius itself is never sized.
    """
    return [Word.identity(spec.n_gens), *_members(spec, radius, node_cap)]


def _first_mover(words, act, fixes) -> tuple:
    """``(word, act(word))`` for the first of ``words`` whose action moves
    points, else ``(None, None)``."""
    for word in words:
        value = act(word)
        if not fixes(value):
            return word, value
    return None, None


def _set_verdict(spec: SubgroupSpec, act, fixes, search_depth: int,
                 node_cap: int) -> tuple:
    """The H-periodic set of a model whose maps commute, as
    ``(witness, proof)``.

    ``act(word)`` is what a word does to every point (a multiplier, a
    rotation) and ``fixes(value)`` says whether that moves no point.  Such
    a word acts through its exponent sums alone, the same on every point,
    so one member that moves points leaves no point H-periodic, and when no
    member moves one every point is.  H is read only through ``_parts``, so
    every spelling of it gets the same answer.  The rule, in order:

    1. when the ``bal:`` parts together name every generator, or a cyclic
       part's generator has exponent sum zero on each, every member has
       zero exponent sums and H acts trivially (proof ``"balanced"``);
    2. the generators s_i in H (``meta().generators``) and, when H is
       cyclic (``_cyclic_word``), its generator u are the candidates: the
       first that moves points is the witness;
    3. a cyclic H whose generator moves no point acts trivially (proof
       ``"cyclic"``);
    4. the first member of the ``_members`` walk of V_search_depth that
       moves points is the witness; the walk counts against ``node_cap``.

    Clause 1 comes first because it holds only when no generator is in H.
    The answer is ``(witness, act(witness))`` when no point is H-periodic
    (the witness's action is the proof), ``(None, proof)`` with the clause
    name when every point is, and ``(None, None)`` when the searched ball
    holds no witness.  A ``search_depth`` below 1 is refused with
    ValueError.  ``ker:`` indices are not read as a cover (``ker:1,2`` on
    two generators is {e}, left to the search), and a cyclic part of an
    intersection with other parts is not decided by its generator, which
    need not be a member when a power of it is.
    """
    if search_depth < 1:
        raise ValueError("search_depth must be >= 1")
    n_gens = spec.n_gens
    parts = _parts(spec)
    covered = set().union(*(p.indices for p in parts if isinstance(p, Balanced)))
    balanced_cyclic = any(isinstance(p, CyclicSubgroup) and not any(
        map(p.generator_word.exponent_sum, range(1, n_gens + 1))) for p in parts)
    if len(covered) == n_gens or balanced_cyclic:
        return None, "balanced"
    letters = [Word.letter(n_gens, gen) for gen in spec.meta().generators]
    u = _cyclic_word(spec)
    witness, value = _first_mover(letters + ([] if u is None else [u]), act, fixes)
    if witness is not None:
        return witness, value
    if u is not None:
        return None, "cyclic"
    return _first_mover(_members(spec, search_depth, node_cap), act, fixes)


_INDEX_KINDS = {kind.prefix: kind for kind in (Balanced, EvenCount, KernelSubgroup)}


def parse_subgroup(text: str, n_gens: int) -> SubgroupSpec:
    """Parse spec text: ``full``, ``cyclic:<word>``, ``bal:<i,..>`` (empty
    list means all), ``even:<i,..>``, ``ker:<i,..>``, ``and(<spec>;<spec>;..)``.
    Indices are in 1..n_gens, and ``ker:`` needs at least two.
    """
    text = text.strip()
    if text == "full":
        return FullGroup(n_gens)
    if text.startswith("cyclic:"):
        return CyclicSubgroup(Word.parse(text[len("cyclic:"):], n_gens))
    if text == "bal" or text == "bal:":
        return Balanced.all_generators(n_gens)
    head, colon, body = text.partition(":")
    kind = _INDEX_KINDS.get(head + colon)
    if kind is not None:
        try:
            indices = frozenset(int(i) for i in body.split(","))
        except ValueError as exc:
            raise WordSyntaxError(f"bad {head} index list {body!r}") from exc
        return kind(n_gens, indices)
    if text.startswith("and(") and text.endswith(")"):
        inner = text[4:-1]
        parts, depth, start = [], 0, 0
        for pos, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == ";" and depth == 0:
                parts.append(inner[start:pos])
                start = pos + 1
        parts.append(inner[start:])
        return IntersectionSubgroup(tuple(parse_subgroup(p, n_gens) for p in parts))
    raise WordSyntaxError(f"bad subgroup spec {text!r}")
