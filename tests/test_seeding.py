import itertools

import numpy as np

from digraphon import child_seed


def test_child_seed_is_reproducible_and_64_bit():
    for master, path in ((0, ()), (7, (0,)), (7, (3, 11)), (2**63 + 5, (1, 2, 3))):
        s = child_seed(master, *path)
        assert isinstance(s, int) and 0 <= s < 2**64
        assert child_seed(master, *path) == s
        assert child_seed(np.int64(master % 2**63), *map(np.int64, path)) == child_seed(master % 2**63, *path)


def test_child_seed_is_distinct_across_cells_and_masters():
    seeds = [child_seed(m, i, j) for m, i, j in itertools.product(range(4), range(6), range(6))]
    assert len(set(seeds)) == len(seeds)


def test_child_seed_depends_on_path_order_and_length():
    assert child_seed(7, 1, 2) != child_seed(7, 2, 1)
    assert len({child_seed(7), child_seed(7, 0), child_seed(7, 0, 0)}) == 3
