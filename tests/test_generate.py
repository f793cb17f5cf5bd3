import numpy as np
import pytest

from hubpath import gen_synthetic, load_edge_list


def test_star_layout():
    g = load_edge_list(gen_synthetic("star", 6))
    assert g.n == 6
    assert list(g.neighbors(0)) == [1, 2, 3, 4, 5]
    assert all(list(g.neighbors(i)) == [0] for i in range(1, 6))


def test_chain_layout():
    g = load_edge_list(gen_synthetic("chain", 4))
    assert g.n == 4 and g.m == 6
    assert list(g.neighbors(1)) == [0, 2]


def test_ba_deterministic():
    a = gen_synthetic("ba", 2000, 3, seed=1)
    b = gen_synthetic("ba", 2000, 3, seed=1)
    assert a == b
    assert gen_synthetic("ba", 2000, 3, seed=2) != a


def test_er_deterministic_and_sized():
    a = gen_synthetic("er", 500, 10, seed=7)
    assert a == gen_synthetic("er", 500, 10, seed=7)
    g = load_edge_list(a)
    assert g.n == 500
    assert g.m == 500 * 10  # m counts both directions


def test_ba_heavy_tail():
    g = load_edge_list(gen_synthetic("ba", 2000, 5, seed=1))
    deg = g.total_degrees()
    assert deg.max() > 8 * deg.mean()


def test_ba_minimum_degree():
    g = load_edge_list(gen_synthetic("ba", 300, 4, seed=3))
    assert g.total_degrees().min() >= 4


def test_bad_params():
    with pytest.raises(ValueError):
        gen_synthetic("er", 1, 4)
    with pytest.raises(ValueError):
        gen_synthetic("er", 100, 0)
    with pytest.raises(ValueError):
        gen_synthetic("ba", 100, None)
    with pytest.raises(ValueError):
        gen_synthetic("ba", 3, 5)
    with pytest.raises(ValueError):
        gen_synthetic("tree", 100, 2)


@pytest.mark.parametrize("kind, param", [
    ("er", float("inf")), ("er", float("nan")),
    ("ba", float("inf")), ("ba", float("nan")), ("ba", 2.5),
])
def test_params_that_cannot_be_honoured_are_refused(kind, param):
    # inf ended in an OverflowError, nan in "cannot convert float NaN to
    # integer", and ba 2.5 attached 2 edges per vertex under a header saying 2.5
    with pytest.raises(ValueError, match=f"{kind} generator needs .*, not {param}"):
        gen_synthetic(kind, 10, param)
