from math import comb
from random import Random

import pytest

from varjet.bundle import (
    BundleSpec,
    FiberwiseJetSpaceSpec,
    OrderError,
    enumerate_fiberwise_coordinates,
    enumerate_jet_coordinates,
    fiberwise_coordinate_count,
    jet_coordinate_count,
)


def labels(atoms):
    return [a.label() for a in atoms]


def test_counting_m1_n1_r2_s0():
    b = BundleSpec(("x",), ("u",))
    coords = enumerate_jet_coordinates(b, 2, 0)
    assert labels(coords) == ["u", "u_x", "u_xx", "du"]


def test_counting_m2_n1_r1_s1():
    b = BundleSpec(("x", "y"), ("u",))
    coords = enumerate_jet_coordinates(b, 1, 1)
    assert labels(coords) == ["u", "u_x", "u_y", "du", "du_x", "du_y"]


def test_counting_m1_n2_r0_s0():
    b = BundleSpec(("x",), ("u", "v"))
    coords = enumerate_jet_coordinates(b, 0, 0)
    assert labels(coords) == ["u", "v", "du", "dv"]


def test_no_vertical_block():
    b = BundleSpec(("x",), ("u",))
    assert labels(enumerate_jet_coordinates(b, 1, None)) == ["u", "u_x"]


def test_order_error():
    b = BundleSpec(("x",), ("u",))
    with pytest.raises(OrderError):
        enumerate_jet_coordinates(b, 1, 2)


def test_counts_match_binomials():
    rng = Random(7)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        r = rng.randint(0, 3)
        s = rng.choice([None] + list(range(r + 1)))
        b = BundleSpec(("x", "y", "t")[:m], ("u", "v", "w")[:n])
        coords = enumerate_jet_coordinates(b, r, s)
        pos, ver = jet_coordinate_count(b, r, s)
        assert pos == n * comb(m + r, r)
        assert len(coords) == pos + ver


def test_enumeration_stable():
    b = BundleSpec(("x", "y"), ("u", "v"))
    assert enumerate_jet_coordinates(b, 2, 1) == enumerate_jet_coordinates(b, 2, 1)


def test_name_validation():
    with pytest.raises(ValueError):
        BundleSpec(("x", "x"), ("u",))
    with pytest.raises(ValueError):
        BundleSpec(("dx",), ("u",))  # 'd' prefix reserved for verticals
    with pytest.raises(ValueError):
        BundleSpec((), ("u",))
    with pytest.raises(ValueError):
        BundleSpec(("x",), ("u 2",))


def test_two_fibered_views():
    tower = BundleSpec(("x",), ("p",), ("z",))
    over_fiber = tower.over_fiber()
    assert over_fiber.base == ("x", "p") and over_fiber.fiber == ("z",)
    with pytest.raises(ValueError):
        BundleSpec(("x",), ("u",)).over_fiber()


def test_fiberwise_enumeration_reduces_at_zero_orders():
    src = BundleSpec(("x",), ("p",))
    spec = FiberwiseJetSpaceSpec(src, ("z",), 0, 0)
    assert [c.label() for c in enumerate_fiberwise_coordinates(spec)] == ["z"]


def test_fiberwise_enumeration_example_count():
    src = BundleSpec(("x",), ("p",))
    spec = FiberwiseJetSpaceSpec(src, ("z",), 1, 1)
    coords = enumerate_fiberwise_coordinates(spec)
    assert len(coords) == 6 == fiberwise_coordinate_count(spec)
    assert [c.label() for c in coords] == ["z", "z_,x", "z_,p", "z_p", "z_p,x", "z_p,p"]


def test_fiberwise_r2_k0():
    src = BundleSpec(("x",), ("p",))
    spec = FiberwiseJetSpaceSpec(src, ("z",), 2, 0)
    assert [c.label() for c in enumerate_fiberwise_coordinates(spec)] == ["z", "z_p", "z_pp"]


def test_fiberwise_count_formula_random():
    rng = Random(3)
    for _ in range(15):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        src = BundleSpec(("x", "y")[:m], ("p", "q")[:n])
        spec = FiberwiseJetSpaceSpec(src, ("z",), rng.randint(0, 2), rng.randint(0, 2))
        assert len(enumerate_fiberwise_coordinates(spec)) == fiberwise_coordinate_count(spec)


def test_graph_identification_counts():
    # fiber order zero matches the jet coordinates of the product-over-source view
    src = BundleSpec(("x", "y"), ("p",))
    for k in range(3):
        spec = FiberwiseJetSpaceSpec(src, ("z",), 0, k)
        product_view = BundleSpec(src.base + src.fiber, ("z",))
        assert len(enumerate_fiberwise_coordinates(spec)) == len(
            enumerate_jet_coordinates(product_view, k, None)
        )
