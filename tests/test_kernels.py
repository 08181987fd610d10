"""The one tree walk: root handling, the node cap, and per-sphere counts."""
import pytest

from mdtds import ResourceLimitError, _kernels


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
