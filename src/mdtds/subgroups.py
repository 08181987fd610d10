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
test for arbitrary finitely generated subgroups.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .errors import WordSyntaxError
from .words import DEFAULT_NODE_CAP, Word, _reduce, ball_enumerate


@dataclass(frozen=True)
class SubgroupMeta:
    """Known analytic facts about a subgroup.

    ``index_kind`` is one of ``finite`` (exact value), ``finite_at_most``
    (upper bound), ``infinite``, or ``unknown``.  ``generators`` lists the
    generator indices i with s_i a member, computed exactly by direct
    membership tests, so it is never unknown.
    """

    index_kind: str
    index_value: Optional[int]
    generators: tuple

    @property
    def has_generator(self) -> bool:
        return bool(self.generators)

    @property
    def generator_witness(self) -> Optional[int]:
        return self.generators[0] if self.generators else None


class SubgroupSpec(ABC):
    """Base class: an exact membership oracle plus metadata."""

    n_gens: int

    @abstractmethod
    def member(self, word: Word) -> bool:
        """Exact membership decision."""

    @abstractmethod
    def _index_info(self) -> tuple:
        """(kind, value) for the subgroup index."""

    @abstractmethod
    def __str__(self) -> str:
        """Canonical spec text, re-parseable by :func:`parse_subgroup`."""

    def _check_group(self, word: Word) -> None:
        if word.n_gens != self.n_gens:
            raise WordSyntaxError("word and subgroup over different groups")

    def meta(self) -> SubgroupMeta:
        kind, value = self._index_info()
        gens = tuple(i for i in range(1, self.n_gens + 1)
                     if self.member(Word.letter(self.n_gens, i)))
        return SubgroupMeta(kind, value, gens)


@dataclass(frozen=True)
class FullGroup(SubgroupSpec):
    n_gens: int

    def member(self, word: Word) -> bool:
        self._check_group(word)
        return True

    def _index_info(self):
        return ("finite", 1)

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

    def _index_info(self):
        if self.n_gens == 1:
            # The group is the integer line; u = s1^k has index |k|.
            return ("finite", abs(self.generator_word.runs[0][1]))
        return ("infinite", None)

    def __str__(self) -> str:
        return "cyclic:" + str(self.generator_word).replace(" ", "*")


@dataclass(frozen=True)
class Balanced(SubgroupSpec):
    """Exponent sum zero for every generator in ``indices``."""

    n_gens: int
    indices: frozenset

    def __post_init__(self):
        if not self.indices:
            raise WordSyntaxError("balanced subgroup needs generator indices")
        if not all(1 <= i <= self.n_gens for i in self.indices):
            raise WordSyntaxError("balanced index out of range")

    @classmethod
    def all_generators(cls, n_gens: int) -> "Balanced":
        return cls(n_gens, frozenset(range(1, n_gens + 1)))

    @property
    def is_fully_balanced(self) -> bool:
        return len(self.indices) == self.n_gens

    def member(self, word: Word) -> bool:
        self._check_group(word)
        return all(word.exponent_sum(i) == 0 for i in self.indices)

    def _index_info(self):
        return ("infinite", None)

    def __str__(self) -> str:
        if self.is_fully_balanced:
            return "bal:"
        return "bal:" + ",".join(str(i) for i in sorted(self.indices))


@dataclass(frozen=True)
class EvenCount(SubgroupSpec):
    """Total occurrence count of generators in ``indices`` is even."""

    n_gens: int
    indices: frozenset

    def __post_init__(self):
        if not self.indices:
            raise WordSyntaxError("even-count subgroup needs generator indices")
        if not all(1 <= i <= self.n_gens for i in self.indices):
            raise WordSyntaxError("even-count index out of range")

    def member(self, word: Word) -> bool:
        self._check_group(word)
        total = sum(abs(e) for g, e in word.runs if g in self.indices)
        return total % 2 == 0

    def _index_info(self):
        return ("finite", 2)

    def __str__(self) -> str:
        return "even:" + ",".join(str(i) for i in sorted(self.indices))


@dataclass(frozen=True)
class KernelSubgroup(SubgroupSpec):
    """Words erased to the identity by dropping generators outside ``kept``."""

    n_gens: int
    kept: frozenset

    def __post_init__(self):
        if len(self.kept) <= 1:
            raise WordSyntaxError("kernel subgroup needs at least two kept generators")
        if not all(1 <= i <= self.n_gens for i in self.kept):
            raise WordSyntaxError("kernel index out of range")

    def member(self, word: Word) -> bool:
        self._check_group(word)
        remaining = _reduce((g, e) for g, e in word.runs if g in self.kept)
        return not remaining

    def _index_info(self):
        return ("infinite", None)

    def __str__(self) -> str:
        return "ker:" + ",".join(str(i) for i in sorted(self.kept))


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

    def _index_info(self):
        kinds = [p._index_info() for p in self.parts]
        if any(kind == "infinite" for kind, _ in kinds):
            # the intersection sits inside each part, so its index dominates
            return ("infinite", None)
        if all(isinstance(p, EvenCount) for p in self.parts):
            distinct = len({p.indices for p in self.parts})
            return ("finite_at_most", 2 ** distinct)
        return ("unknown", None)

    def __str__(self) -> str:
        return "and(" + ";".join(str(p) for p in self.parts) + ")"


def contained_in_fully_balanced(spec: SubgroupSpec) -> bool:
    """True when the spec is provably inside the fully balanced subgroup.

    Structural check only: balanced-on-all specs, cyclic subgroups of a
    balanced word, and intersections with such a part qualify.  False means
    "not proven", not "false".
    """
    if isinstance(spec, Balanced) and spec.is_fully_balanced:
        return True
    if isinstance(spec, CyclicSubgroup):
        u = spec.generator_word
        return all(u.exponent_sum(i) == 0 for i in range(1, u.n_gens + 1))
    if isinstance(spec, IntersectionSubgroup):
        return any(contained_in_fully_balanced(p) for p in spec.parts)
    return False


def _members(spec: SubgroupSpec, radius: int, node_cap: int) -> Iterator[Word]:
    """Members other than e in V_radius, streamed in enumeration order."""
    for node in ball_enumerate(radius, spec.n_gens, node_cap=node_cap):
        if node.parent is not None and spec.member(node.word):
            yield node.word


def subgroup_ball(spec: SubgroupSpec, radius: int, *,
                  node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Members of the subgroup within the ball V_radius, enumeration order."""
    return [Word.identity(spec.n_gens), *_members(spec, radius, node_cap)]


def _parse_indices(text: str, n_gens: int, what: str) -> frozenset:
    if not text:
        raise WordSyntaxError(f"{what} needs indices")
    try:
        indices = frozenset(int(p) for p in text.split(","))
    except ValueError as exc:
        raise WordSyntaxError(f"bad {what} index list {text!r}") from exc
    return indices


def parse_subgroup(text: str, n_gens: int) -> SubgroupSpec:
    """Parse spec text: ``full``, ``cyclic:<word>``, ``bal:<i,..>`` (empty
    list means all), ``even:<i,..>``, ``ker:<i,..>``, ``and(<spec>;<spec>;..)``.
    """
    text = text.strip()
    if text == "full":
        return FullGroup(n_gens)
    if text.startswith("cyclic:"):
        return CyclicSubgroup(Word.parse(text[len("cyclic:"):], n_gens))
    if text == "bal" or text == "bal:":
        return Balanced.all_generators(n_gens)
    if text.startswith("bal:"):
        return Balanced(n_gens, _parse_indices(text[4:], n_gens, "balanced"))
    if text.startswith("even:"):
        return EvenCount(n_gens, _parse_indices(text[5:], n_gens, "even-count"))
    if text.startswith("ker:"):
        return KernelSubgroup(n_gens, _parse_indices(text[4:], n_gens, "kernel"))
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
