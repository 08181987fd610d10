"""The one tree walk: root handling, the node cap, and per-sphere counts."""
import math
import tracemalloc
from fractions import Fraction as F
from functools import reduce
from operator import add

import pytest

from mdtds import (BankFamily, DomainViolationError, ResourceLimitError,
                   _kernels, ball_size, ball_sum_brute,
                   sign_ball_sum, sign_ball_sum_brute, sphere_size)

from conftest import fold_spheres, preorder_spheres


def _count(value, letter):
    return value


def _per_letter(n_gens, step):
    """The walk's per-letter unary maps for a binary ``step(value, letter)``."""
    return [lambda value, letter=letter: step(value, letter)
            for letter in range(2 * n_gens)]


class TestOrchestration:
    def test_full_scan_includes_root(self):
        sums = _kernels.scan_object(2, 3, _per_letter(2, _count), 1)
        assert sums == [1, 4, 12, 36]

    def test_node_cap_enforced_up_front(self):
        calls = []

        def step(value, letter):
            calls.append(letter)
            return value

        for n_max in (10, 10 ** 4):  # the second ball has 4,772 digits
            with pytest.raises(ResourceLimitError):
                _kernels.scan_object(2, n_max, _per_letter(2, step), 1,
                                      node_cap=1000)
        assert calls == []

    def test_rejects_a_map_list_of_the_wrong_length(self):
        with pytest.raises(ValueError):
            _kernels.scan_object(2, 3, _per_letter(1, _count), 1)

    def test_sphere_counts_roundtrip(self):
        from mdtds import sphere_size
        counts = _kernels.traversal_sphere_counts(6, 2)
        assert counts == [sphere_size(n, 2) for n in range(7)]
        # one generator: every level is one word, so only the level cap
        # bounds the block height
        counts = _kernels.traversal_sphere_counts(5000, 1)
        assert counts == [sphere_size(n, 1) for n in range(5001)]

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_one_module_walks_each_subtree_by_name(self, monkeypatch, n_gens):
        # a tracer finds the walk through ``_impl`` and wraps the subtree
        # walk in this module's namespace, where scan_object looks it up
        assert _kernels._impl is _kernels
        walk, roots = _kernels.subtree_scan_object, []

        def counted(n_gens, n_max, maps, x0, root_letter):
            roots.append(root_letter)
            return walk(n_gens, n_max, maps, x0, root_letter)

        monkeypatch.setattr(_kernels, "subtree_scan_object", counted)
        sums = _kernels.scan_object(n_gens, 3, _per_letter(n_gens, _count), 1)
        assert roots == list(range(2 * n_gens))
        assert sums == [sphere_size(n, n_gens) for n in range(4)]


# a float step that is far from associative: per-letter scales and offsets
# of mixed magnitudes, so any change in summation order shows in the sums
_SCALE = [0.5, -1.75, 3.0e3, 1e-3, 1.1, -0.9, 2.5e-2, -7.0]
_SHIFT = [1e-7, 3.3, -2.2e4, 0.1, 1e10, -5e-5, 6.4e5, -1e-9]


def _affine(value, letter):
    return value * _SCALE[letter] + _SHIFT[letter]


class TestLevelOrderWalk:
    # 2 generators: frontiers 3, 9 and 27 give blocks 1, 2 and 3 levels
    # tall, so radii 7 and 9 start with a short block; radius 2 is below one
    # block; one generator at frontier 5 walks 599 levels in 5-level blocks
    @pytest.mark.parametrize("n_gens,n_max,frontier", [
        (1, 12, 1024), (2, 9, 1024), (3, 6, 1024),
        (2, 6, 5), (3, 4, 7),
        (2, 7, 3), (2, 9, 3), (2, 7, 9), (2, 9, 9), (2, 7, 27), (2, 9, 27),
        (2, 2, 27), (4, 4, 1024), (1, 600, 5),
    ])
    def test_sums_match_a_preorder_walk_bit_for_bit(self, monkeypatch,
                                                    n_gens, n_max, frontier):
        monkeypatch.setattr(_kernels, "_FRONTIER", frontier)
        calls = []

        def step(value, letter):
            calls.append(letter)
            return _affine(value, letter)

        sums = _kernels.scan_object(n_gens, n_max, _per_letter(n_gens, step),
                                    0.1)
        parts = preorder_spheres(n_gens, n_max, _affine, 0.1)
        assert [repr(s) for s in sums] == \
            [repr(s) for s in fold_spheres(parts, 0.1, list)]
        assert len(calls) == ball_size(n_max, n_gens) - 1
        if n_gens > 1:  # one word per sphere cannot show the order
            backwards = fold_spheres(parts, 0.1, lambda values: values[::-1])
            assert [repr(s) for s in backwards] != [repr(s) for s in sums]

    def test_step_error_leaves_the_walk(self):
        # fails on the last sphere, in the second tier of blocks
        def step(depth, letter):
            if depth + 1 == 9:
                raise DomainViolationError(depth + 1)
            return depth + 1

        with pytest.raises(DomainViolationError):
            _kernels.scan_object(2, 9, _per_letter(2, step), 0)

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

    def test_one_generator_keeps_blocks_of_at_most_a_frontier(self):
        # every level is one word, so only the level cap bounds the cached
        # patterns: 20,000 levels of them would peak near 3 MB
        _kernels._letter_patterns.cache_clear()
        tracemalloc.start()
        try:
            counts = _kernels.traversal_sphere_counts(20_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == [1] + [2] * 20_000
        assert peak < 1 << 20


class TestFolds:
    """Int start values fold with an exact ``sum``, anything else in preorder."""

    def test_a_float_start_folds_in_preorder_not_compensated(self):
        # sum() compensates float rounding from Python 3.12; a walk that
        # used it on floats would match the compensated fold below instead
        sums = _kernels.scan_object(3, 4, _per_letter(3, _affine), 1.0)
        parts = preorder_spheres(3, 4, _affine, 1.0)
        assert [repr(s) for s in sums] == \
            [repr(s) for s in fold_spheres(parts, 1.0, list)]
        compensated = [1.0] + [reduce(add, [math.fsum(sp[d]) for sp in parts])
                               for d in range(1, 5)]
        assert [repr(s) for s in compensated] != [repr(s) for s in sums]

    @pytest.mark.parametrize("frontier", [1024, 5])
    @pytest.mark.parametrize("q,top", [(4, 9), (6, 9), (8, 7)])
    def test_sign_walk_matches_the_closed_form(self, monkeypatch, frontier,
                                               q, top):
        monkeypatch.setattr(_kernels, "_FRONTIER", frontier)
        for n in range(top + 1):
            assert sign_ball_sum_brute(n, q) == sign_ball_sum(n, q), n

    @pytest.mark.parametrize("frontier", [1024, 5])
    @pytest.mark.parametrize("rates", [(F(3, 2), F(7, 5)),
                                       (F(4, 3), F(5, 2), F(6, 5))])
    def test_fractional_rate_walk_matches_the_recurrence(self, monkeypatch,
                                                         frontier, rates):
        monkeypatch.setattr(_kernels, "_FRONTIER", frontier)
        x = F(7, 3)
        top = 8 if len(rates) == 2 else 6
        for n in range(top + 1):
            recurrence = BankFamily(rates).exact_sphere_sums(x, n)
            assert ball_sum_brute(rates, x, n) == sum(recurrence), n
