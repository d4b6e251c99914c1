import pytest

from varjet.multiindex import MultiIndex, RangeMismatchError, indices_up_to

XY = ("x", "y")


def test_increment_examples():
    assert MultiIndex(XY, (0, 0)).incremented("x") == MultiIndex(XY, (1, 0))
    assert MultiIndex(XY, (2, 1)).incremented("y") == MultiIndex(XY, (2, 2))
    twice = MultiIndex(("x",), (0,)).incremented("x").incremented("x")
    assert twice == MultiIndex(("x",), (2,))


def test_increment_raises_order():
    alpha = MultiIndex(XY, (1, 2))
    assert alpha.incremented("x").order == alpha.order + 1


def test_range_mismatch():
    with pytest.raises(RangeMismatchError):
        MultiIndex(XY, (0, 0)).incremented("t")


def test_invalid_construction():
    with pytest.raises(ValueError):
        MultiIndex(XY, (1,))
    with pytest.raises(ValueError):
        MultiIndex(XY, (-1, 0))


def test_positions_and_suffix():
    alpha = MultiIndex(XY, (2, 1))
    assert alpha.suffix_names() == ("x", "x", "y")


def test_enumeration_graded_and_stable():
    once = indices_up_to(XY, 2)
    again = indices_up_to(XY, 2)
    assert once == again
    orders = [a.order for a in once]
    assert orders == sorted(orders)
    assert len(once) == 6  # C(2+2, 2)
    assert once[0] == MultiIndex(XY, (0, 0))
    assert once[1] == MultiIndex(XY, (1, 0))  # x before y within a grade
