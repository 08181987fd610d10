"""The one tree walk: root handling, the node cap, and per-sphere counts."""
import tracemalloc
from functools import reduce
from operator import add

import pytest

from mdtds import (DomainViolationError, ResourceLimitError, _kernel_py,
                   _kernels, ball_size, sign_ball_sum, sign_ball_sum_brute)


def _count(value, letter):
    return value


class TestOrchestration:
    def test_full_scan_includes_root(self):
        sums = _kernels.scan_object(2, 3, _count, 1)
        assert sums == [1, 4, 12, 36]

    def test_node_cap_enforced_up_front(self):
        calls = []

        def step(value, letter):
            calls.append(letter)
            return value

        with pytest.raises(ResourceLimitError):
            _kernels.scan_object(2, 10, step, 1, node_cap=1000)
        assert calls == []

    def test_sphere_counts_roundtrip(self):
        from mdtds import sphere_size
        counts = _kernels.traversal_sphere_counts(6, 2)
        assert counts == [sphere_size(n, 2) for n in range(7)]


# a float step that is far from associative: per-letter scales and offsets
# of mixed magnitudes, so any change in summation order shows in the sums
_SCALE = [0.5, -1.75, 3.0e3, 1e-3, 1.1, -0.9]
_SHIFT = [1e-7, 3.3, -2.2e4, 0.1, 1e10, -5e-5]


def _affine(value, letter):
    return value * _SCALE[letter] + _SHIFT[letter]


def _preorder_spheres(n_gens, n_max, step, x0):
    """Per-sphere value lists of each root subtree, by recursive preorder."""
    def visit(depth, value, last, spheres):
        spheres[depth].append(value)
        if depth < n_max:
            for letter in range(2 * n_gens):
                if letter != last ^ 1:
                    visit(depth + 1, step(value, letter), letter, spheres)

    parts = []
    for root in range(2 * n_gens):
        spheres = [[] for _ in range(n_max + 1)]
        visit(1, step(x0, root), root, spheres)
        parts.append(spheres)
    return parts


def _fold(parts, x0, order):
    """Ball sums: each subtree's spheres in ``order``, subtrees by letter."""
    sums = [x0]
    for depth in range(1, len(parts[0])):
        totals = [reduce(add, order(spheres[depth])) for spheres in parts]
        sums.append(reduce(add, totals))
    return sums


class TestLevelOrderWalk:
    @pytest.mark.parametrize("n_gens,n_max,frontier", [
        (1, 12, 1024), (2, 9, 1024), (3, 6, 1024),
        (2, 6, 5), (3, 4, 7),
    ])
    def test_sums_match_a_preorder_walk_bit_for_bit(self, monkeypatch,
                                                    n_gens, n_max, frontier):
        monkeypatch.setattr(_kernel_py, "_FRONTIER", frontier)
        calls = []

        def step(value, letter):
            calls.append(letter)
            return _affine(value, letter)

        sums = _kernels.scan_object(n_gens, n_max, step, 0.1)
        parts = _preorder_spheres(n_gens, n_max, _affine, 0.1)
        assert [repr(s) for s in sums] == \
            [repr(s) for s in _fold(parts, 0.1, list)]
        assert len(calls) == ball_size(n_max, n_gens) - 1
        if n_gens > 1:  # one word per sphere cannot show the order
            backwards = _fold(parts, 0.1, lambda values: values[::-1])
            assert [repr(s) for s in backwards] != [repr(s) for s in sums]

    def test_step_error_leaves_the_walk(self):
        # fails on the last sphere, after the frontier has been split
        def step(depth, letter):
            if depth + 1 == 9:
                raise DomainViolationError(depth + 1)
            return depth + 1

        with pytest.raises(DomainViolationError):
            _kernels.scan_object(2, 9, step, 0)

    def test_memory_is_bounded_by_the_frontier(self):
        # radius 12 on 2 generators: one subtree's last sphere alone is
        # 177,147 words, 1.4 MB as a list; walking whole spheres peaks at 3.4 MB
        tracemalloc.start()
        try:
            total = sign_ball_sum_brute(12, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == sign_ball_sum(12, 4)
        assert peak < 1 << 20
