"""The one tree walk over a whole Cayley ball.

This is the brute-force oracle of the package: it applies a step to every
word of the ball and sums per sphere.  Closed forms and recurrences (the
``exact_sphere_sums`` hooks of the growth-rate and rotation models) are tested
against it, and every family without such a hook is scanned by it.

The ball is split at the root: one subtree per signed letter (all words
ending with that letter, walked by :mod:`mdtds._kernel_py`) plus the root
itself at depth 0.  Subtree totals are folded in letter order, so the
reduction tree is fixed and float sums are reproducible bit for bit.
"""
from __future__ import annotations

from typing import Callable

from . import _kernel_py as _impl
from .errors import ResourceLimitError
from .words import DEFAULT_NODE_CAP, ball_size


def kernel_backend() -> str:
    """Name of the traversal backend; the walk is pure Python."""
    return "python"


def scan_object(n_gens: int, n_max: int, step: Callable, x0, *,
                node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Per-depth ball sums for an opaque step callable; [0] is x0.

    ``step(value, letter_index)`` must be pure.  A depth with no words keeps
    None.  Raises ResourceLimitError before walking when the ball has more
    than ``node_cap`` words.
    """
    total = ball_size(n_max, n_gens)
    if total > node_cap:
        raise ResourceLimitError(total, node_cap)
    sums: list = [x0] + [None] * n_max
    for letter in range(2 * n_gens):
        part = _impl.subtree_scan_object(n_gens, n_max, step, x0, letter)
        for d in range(1, n_max + 1):
            sums[d] = part[d] if sums[d] is None else sums[d] + part[d]
    return sums


def traversal_sphere_counts(radius: int, n_gens: int, *,
                            node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Per-depth node counts obtained by actually walking the tree.

    Independent of the closed-form cardinalities: this is the brute-force
    side of the sphere/ball counting cross-check.
    """
    return scan_object(n_gens, radius, lambda value, letter: value, 1,
                       node_cap=node_cap)
