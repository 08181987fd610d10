"""The tree walk: per-sphere accumulation over one subtree of a Cayley ball.

The function walks one top-level subtree (all words ending with a fixed
signed letter) and returns per-depth sums, index 0 unused (the root ``e``
belongs to the caller in :mod:`mdtds._kernels`).  A child's value is
``maps[letter](parent_value)``: one unary map per signed letter, called
exactly once per non-root node.  Values are opaque objects combined with
``+``, so integers, Fractions and floats all go through the same walk.

The walk is a depth-first stack of blocks, each the ``h`` levels below one
word: ``h`` is at most ``_FRONTIER`` and the most whose bottom level,
``(q-1)^h`` words, fits it.  Levels are built in preorder from the block
root's ``_letter_patterns``, the bottom words root the next blocks, and a
short first block makes every later one end on the last depth.  So each
sphere sum adds its words in preorder (floats are bit for bit those of a
depth-first walk), and memory is bounded by ``_FRONTIER`` words per tier of
blocks, never by a sphere.

Folding: an ``int`` start value promises int values throughout, and each
level is folded with ``sum``, which is exact for ints.  Any other start
value is folded left to right with ``+`` in preorder.

Letter indexing: ``2*(gen-1) + (0 if sign>0 else 1)``; the inverse of letter
``i`` is ``i ^ 1``.
"""
from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import repeat
from operator import add

_FRONTIER = 1024


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

    Each sphere sum adds its words in depth-first preorder, left to right,
    so floating-point results are reproducible for a fixed subtree.
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
