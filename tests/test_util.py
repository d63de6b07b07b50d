import pytest

from kpca_lab.util import parallel_map


def test_parallel_map_serial_order():
    assert parallel_map(lambda v: v * v, [3, 1, 2]) == [9, 1, 4]


def test_parallel_map_propagates_exceptions():
    def boom(v):
        raise RuntimeError(f"bad item {v}")

    with pytest.raises(RuntimeError, match="bad item"):
        parallel_map(boom, [1, 2, 3])
