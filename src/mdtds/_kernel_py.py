"""The tree walk: per-sphere accumulation over one subtree of a Cayley ball.

The function walks one top-level subtree (all words ending with a fixed
signed letter) in the canonical depth-first order and returns per-depth sums,
index 0 unused (the root ``e`` belongs to the caller in :mod:`mdtds._kernels`).
Values are opaque objects combined with ``+``, so integers, Fractions and
floats all go through the same walk.

Letter indexing: ``2*(gen-1) + (0 if sign>0 else 1)``; the inverse of letter
``i`` is ``i ^ 1``.
"""
from __future__ import annotations


def subtree_scan_object(n_gens: int, n_max: int, step, x0, root_letter: int):
    """Per-depth sums with an opaque step: child = step(parent, letter_index).

    Accumulation happens in depth-first preorder, so floating-point results
    are reproducible for a fixed subtree.
    """
    q = 2 * n_gens
    sums = [None] * (n_max + 1)
    if n_max < 1:
        return sums
    stack = [(1, step(x0, root_letter), root_letter ^ 1)]
    pop = stack.pop
    push = stack.append
    while stack:
        depth, value, blocked = pop()
        acc = sums[depth]
        sums[depth] = value if acc is None else acc + value
        if depth < n_max:
            child_depth = depth + 1
            for li in range(q - 1, -1, -1):
                if li != blocked:
                    push((child_depth, step(value, li), li ^ 1))
    return sums
