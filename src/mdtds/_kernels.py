"""The one tree walk over a whole Cayley ball.

This is the brute-force oracle of the package: it computes the value of
every word of the ball from its parent's and sums per sphere.  Closed forms
and recurrences (the ``exact_sphere_sums`` hooks of the growth-rate and
rotation models) are tested against it, and every family without such a hook
is scanned by it.

The caller passes ``maps``, one unary map per signed letter, at index
``2*(gen-1) + (0 if sign>0 else 1)``; the inverse of letter ``i`` is
``i ^ 1``.  A word's value is ``maps[i]`` applied to its parent's value,
``i`` the word's leading letter: one map call per non-root word.

The ball is split at the root: the root itself at depth 0, plus one subtree
per signed letter (all words ending with that letter), whose per-depth
totals are folded in letter order.  A subtree is walked depth first in
blocks, each the ``h`` levels below one word: ``h`` is at most
``_FRONTIER`` and the most whose bottom level, ``(q-1)^h`` words, fits it.
Levels are built in preorder from the block root's cached
``_letter_patterns``, the bottom words root the next blocks, and a short
first block makes every later one end on the last depth.  So each sphere
adds its words in depth-first preorder within each subtree, and memory is
bounded by ``_FRONTIER`` words per tier of blocks, never by a sphere.

Folding: an ``int`` start value ``x0`` promises int values throughout, and
each level is folded with ``sum``, which is exact for ints.  Any other start
value is folded left to right with ``+`` in preorder, so integers, Fractions
and floats all go through the same walk, the reduction tree is fixed and
float sums are reproducible bit for bit.
"""
from __future__ import annotations

import sys
from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import add

from .words import DEFAULT_NODE_CAP, check_ball_cap

# perfbench/tracing.py reads the active walk module by this name; it goes
# when the tracer reads a stats record instead (ROADMAP item 5)
_impl = sys.modules[__name__]

_FRONTIER = 1024


def kernel_backend() -> str:
    """Name of the traversal backend; the walk is pure Python."""
    return "python"


def scan_object(n_gens: int, n_max: int, maps, x0, *,
                node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Per-depth ball sums; [0] is x0, a child's value is maps[letter](parent).

    ``maps`` holds ``2 * n_gens`` unary callables.  An exception a map
    raises leaves the walk at the node where it happened.  Raises
    ResourceLimitError before walking when the ball has more than
    ``node_cap`` words.
    """
    if len(maps) != 2 * n_gens:
        raise ValueError(f"need {2 * n_gens} letter maps, got {len(maps)}")
    check_ball_cap(n_max, n_gens, node_cap)
    sums: list = [x0] + [None] * n_max
    for letter in range(2 * n_gens):
        part = subtree_scan_object(n_gens, n_max, maps, x0, letter)
        for d in range(1, n_max + 1):
            sums[d] = part[d] if sums[d] is None else sums[d] + part[d]
    return sums


@lru_cache(maxsize=16)
def _letter_patterns(q: int, h: int) -> list:
    """``[l][i]``: the leading letters, in preorder, of the words ``i``
    levels below a word led by letter ``l``, for ``i`` up to ``h``."""
    patterns = [[(letter,)] for letter in range(q)]
    for rows in patterns:
        for _ in range(h):
            rows.append(tuple(li for last in rows[-1]
                              for li in range(q) if li != last ^ 1))
    return patterns


def subtree_scan_object(n_gens: int, n_max: int, maps, x0, root_letter: int):
    """Per-depth sums of one subtree; child = maps[letter_index](parent).

    Index 0 is unused: the root ``e`` belongs to ``scan_object``.  Each
    sphere sum adds its words in depth-first preorder, left to right, so
    floating-point results are reproducible for a fixed subtree.
    """
    sums = [None] * (n_max + 1)
    if n_max < 1:
        return sums
    q = 2 * n_gens
    # not sum() on floats: from Python 3.12 it compensates float rounding
    fold = sum if type(x0) is int else partial(reduce, add)
    # at most _FRONTIER levels too: one word a level (q - 1 = 1) fits any h
    h = 1
    while h < min(n_max - 1, _FRONTIER) and (q - 1) ** (h + 1) <= _FRONTIER:
        h += 1
    patterns = _letter_patterns(q, h)
    kid_maps = [[maps[li] for li in rows[1]] for rows in patterns]
    sums[1] = maps[root_letter](x0)
    stack = [(1, sums[1], root_letter)] if n_max > 1 else []
    height = (n_max - 1) % h or h
    while stack:
        depth, value, letter = stack.pop()
        pattern, values = patterns[letter], [value]
        for row in pattern[:height]:
            values = [m(v) for v, l in zip(values, row) for m in kid_maps[l]]
            depth += 1
            acc = sums[depth]
            sums[depth] = fold(values) if acc is None else fold(values, acc)
        if depth < n_max:
            stack += zip(repeat(depth), reversed(values),
                         reversed(pattern[height]))
        height = h
    return sums


def _identity(value):
    return value


def traversal_sphere_counts(radius: int, n_gens: int, *,
                            node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Per-depth node counts obtained by actually walking the tree.

    Independent of the closed-form cardinalities: this is the brute-force
    side of the sphere/ball counting cross-check.
    """
    return scan_object(n_gens, radius, [_identity] * (2 * n_gens), 1,
                       node_cap=node_cap)
