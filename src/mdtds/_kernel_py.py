"""The tree walk: per-sphere accumulation over one subtree of a Cayley ball.

The function walks one top-level subtree (all words ending with a fixed
signed letter) one depth at a time and returns per-depth sums, index 0
unused (the root ``e`` belongs to the caller in :mod:`mdtds._kernels`).
Values are opaque objects combined with ``+``, so integers, Fractions and
floats all go through the same walk.

The walk is level order over bounded frontiers.  A frontier lists the words
of one depth parent by parent, children in ascending letter order, which is
exactly the order a depth-first preorder reaches them.  A frontier longer
than ``_FRONTIER`` words is split in half and the left half's whole subtree
is finished before the right half, so every sphere sum adds its words in
preorder (floats are bit for bit those of a depth-first walk) while memory
stays bounded by frontier size times depth, never by a sphere.

Letter indexing: ``2*(gen-1) + (0 if sign>0 else 1)``; the inverse of letter
``i`` is ``i ^ 1``.
"""
from __future__ import annotations

from functools import reduce
from operator import add

_FRONTIER = 1024


def subtree_scan_object(n_gens: int, n_max: int, step, x0, root_letter: int):
    """Per-depth sums with an opaque step: child = step(parent, letter_index).

    Each sphere sum adds its words in depth-first preorder, left to right,
    so floating-point results are reproducible for a fixed subtree.
    """
    sums = [None] * (n_max + 1)
    if n_max < 1:
        return sums
    q = 2 * n_gens
    kids = [[li for li in range(q) if li != last ^ 1] for last in range(q)]
    stack = [(1, [step(x0, root_letter)], [root_letter])]
    while stack:
        depth, values, lasts = stack.pop()
        while True:
            # not sum(): from Python 3.12 it compensates float rounding
            acc = sums[depth]
            sums[depth] = reduce(add, values) if acc is None \
                else reduce(add, values, acc)
            if depth == n_max:
                break
            values = [step(v, li) for v, last in zip(values, lasts)
                      for li in kids[last]]
            lasts = [li for last in lasts for li in kids[last]]
            depth += 1
            while len(values) > _FRONTIER:
                half = len(values) // 2
                stack.append((depth, values[half:], lasts[half:]))
                values, lasts = values[:half], lasts[:half]
    return sums
