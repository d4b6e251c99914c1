"""Coordinate atoms against the frozen dataclasses they replaced.

``Sym`` and ``JetCoord`` are ``str`` subclasses whose string value is a
canonical identity, so hashing and equality run in C.  The dataclasses below
are the previous definitions, kept as the reference: the new atoms must be
equal, hash alike, sort and print exactly where the references do.
"""

import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import JetCoord
from varjet.expr import Sym
from varjet.multiindex import MultiIndex


@dataclass(frozen=True, slots=True)
class RefSym:
    name: str
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (0, self.name))

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class RefJetCoord:
    fiber: str
    alpha: MultiIndex
    vertical: bool = False
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha.order == 0 and not self.vertical:
            raise ValueError("order-zero positional coordinates are plain symbols")
        object.__setattr__(self, "_key", (1, int(self.vertical), self.fiber, self.alpha.sort_key(), self.alpha.names))

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        head = ("d" + self.fiber) if self.vertical else self.fiber
        if self.alpha.order == 0:
            return head
        if all(len(n) == 1 for n in self.alpha.names):
            return head + "_" + "".join(self.alpha.suffix_names())
        return head + "[" + ",".join(map(str, self.alpha.exponents)) + "]"


# Small alphabets, so that equal pairs and near misses are both common.
# Names follow the coordinate grammar [A-Za-z][A-Za-z0-9]*.
NAMES = st.sampled_from(["u", "v", "x", "y", "ab", "a1", "x2", "uv", "W"])


@st.composite
def multi_indices(draw) -> MultiIndex:
    names = tuple(draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)))
    exponents = tuple(draw(st.lists(st.integers(0, 11), min_size=len(names), max_size=len(names))))
    return MultiIndex(names, exponents)


@st.composite
def atom_pairs(draw):
    """(new atom, its reference) for a plain symbol or a jet coordinate."""
    fiber = draw(NAMES)
    if draw(st.booleans()):
        return Sym(fiber), RefSym(fiber)
    alpha = draw(multi_indices())
    vertical = draw(st.booleans()) or alpha.order == 0
    return JetCoord(fiber, alpha, vertical), RefJetCoord(fiber, alpha, vertical)


@given(atom_pairs(), atom_pairs())
def test_equality_and_hash_follow_the_reference(p, q):
    (a, ra), (b, rb) = p, q
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert (hash(a) == hash(b)) == (ra == rb)
    assert ({a: 1}.get(b) == 1) == (ra == rb)


def test_near_misses_stay_apart():
    # Pairs that only the separators of the identity string tell apart.
    xy, abc = ("x", "y"), ("ab", "c")
    atoms = [
        JetCoord("u", MultiIndex(xy, (1, 10))),
        JetCoord("u", MultiIndex(xy, (11, 0))),
        JetCoord("u", MultiIndex(("x",), (12,))),
        JetCoord("u1", MultiIndex(("x",), (2,))),
        JetCoord("u", MultiIndex(abc, (1, 1))),
        JetCoord("u", MultiIndex(("a", "bc"), (1, 1))),
        JetCoord("u", MultiIndex(xy, (1, 0)), True),
        JetCoord("u", MultiIndex(xy, (1, 0))),
        JetCoord("u", MultiIndex.zero(xy), True),
        JetCoord("u", MultiIndex.zero(("x",)), True),
        Sym("u"),
        Sym("du"),
    ]
    assert len(set(atoms)) == len(atoms)
    assert len({hash(a) for a in atoms}) == len(atoms)


@given(atom_pairs())
def test_an_atom_is_neither_its_label_nor_another_kind(p):
    a, ref = p
    assert a != ref.label() and ref.label() not in {a}
    other = JetCoord(a.name, MultiIndex(("x",), (0,)), True) if isinstance(a, Sym) else Sym(a.fiber)
    assert a != other


@given(atom_pairs())
def test_printing_gives_the_label(p):
    a, ref = p
    label = ref.label()
    assert a.label() == label
    assert str(a) == label
    assert repr(a) == label
    assert format(a) == label
    assert f"{a}" == label
    assert "%s" % a == label
    assert f"{a:>12}" == f"{label:>12}"


@given(atom_pairs(), atom_pairs())
def test_sort_keys_follow_the_reference(p, q):
    (a, ra), (b, rb) = p, q
    assert a.sort_key() == ra.sort_key()
    assert (a.sort_key() < b.sort_key()) == (ra.sort_key() < rb.sort_key())


@given(atom_pairs())
def test_atoms_are_immutable(p):
    a, ref = p
    for name in ("name", "fiber", "_key", "_label", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in ("name", "fiber", "_key"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.sort_key() == ref.sort_key()
    assert a.label() == ref.label()


@given(atom_pairs())
def test_pickling_round_trips(p):
    a, ref = p
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a)
    assert copy == a and hash(copy) == hash(a)
    assert copy.sort_key() == ref.sort_key()
    assert str(copy) == ref.label()


def test_public_fields():
    alpha = MultiIndex(("x", "y"), (1, 2))
    s, j = Sym("u"), JetCoord("u", alpha, True)
    assert s.name == "u"
    assert (j.fiber, j.alpha, j.vertical) == ("u", alpha, True)
    assert str(j) == "du_xyy"
    with pytest.raises(ValueError):
        JetCoord("u", MultiIndex.zero(("x",)))
