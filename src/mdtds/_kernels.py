"""The one tree walk over a whole Cayley ball.

This is the brute-force oracle of the package: it computes the value of
every word of the ball from its parent's and sums per sphere.  Closed forms
and recurrences (the ``exact_sphere_sums`` hooks of the growth-rate and
rotation models) are tested against it, and every family without such a hook
is scanned by it.

The caller passes ``maps``, one unary map per signed letter, at index
``2*(gen-1) + (0 if sign>0 else 1)``.  A word's value is ``maps[i]`` applied
to its parent's value, ``i`` the word's leading letter: one map call per
non-root word, and each sphere's values are added in depth-first preorder
within each subtree.  An ``int`` start value ``x0`` promises int values
throughout, and every sphere is then folded with an exact int ``sum``; any
other type is folded with ``+`` in preorder.

The ball is split at the root: one subtree per signed letter (all words
ending with that letter, walked by :mod:`mdtds._kernel_py`) plus the root
itself at depth 0.  Each subtree is walked depth first in blocks of a few
levels, each level built from cached leading-letter patterns, and adds the
words of a sphere in depth-first preorder; subtree totals are folded in
letter order.  So the reduction tree is fixed and float sums are
reproducible bit for bit.
"""
from __future__ import annotations

from . import _kernel_py as _impl
from .words import DEFAULT_NODE_CAP, check_ball_cap


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
        part = _impl.subtree_scan_object(n_gens, n_max, maps, x0, letter)
        for d in range(1, n_max + 1):
            sums[d] = part[d] if sums[d] is None else sums[d] + part[d]
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

