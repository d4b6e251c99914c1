"""Atoms against the frozen dataclasses they replaced.

``Sym``, ``JetCoord`` and ``FuncAtom`` are ``str`` subclasses whose string
value is a canonical identity, so hashing and equality run in C.  The
dataclasses below are the previous definitions, kept as the reference: the
new atoms must be equal, hash alike, sort and print exactly where the
references do.  A reference function atom compares its ``Expr`` arguments,
and so its nested reference atoms, field by field.
"""

import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import JetCoord
from varjet.expr import Expr, FuncAtom, Sym
from varjet.multiindex import MultiIndex
from varjet.render import _func_text


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


@dataclass(frozen=True, slots=True)
class RefFuncAtom:
    func: str
    args: tuple
    derivs: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _key: tuple = field(init=False, repr=False, compare=False)
    _label: str | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(self.derivs) != len(self.args):
            raise ValueError("one derivative count per argument required")
        if self.func in ("sin", "cos", "exp", "ln", "inv") and any(self.derivs):
            raise ValueError(f"{self.func} has closed-form derivatives")
        object.__setattr__(self, "_hash", hash((self.func, self.args, self.derivs)))
        object.__setattr__(self, "_key", (2, self.func, self.derivs, tuple(a.sort_key() for a in self.args)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._key

    def label(self) -> str:
        if self._label is None:
            object.__setattr__(self, "_label", _func_text(self))  # top down, through the arguments
        return self._label

    def __repr__(self) -> str:
        return self.label()


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
    # Pairs that only the separators or brackets of the identity string tell apart.
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
        Sym("F"),
    ]
    u, x = Expr.atom(Sym("u")), Expr.atom(Sym("x"))
    sin_u = Expr.atom(FuncAtom("sin", (u,), (0,)))
    atoms += [
        FuncAtom("F", (u, x), (0, 0)),
        FuncAtom("F", (u * x,), (0,)),
        FuncAtom("F", (u, x), (1, 0)),
        FuncAtom("F", (u, x), (0, 1)),
        FuncAtom("F", (u**-1,), (0,)),
        FuncAtom("F", (u**2,), (0,)),
        FuncAtom("F", (2 * u,), (0,)),
        FuncAtom("F", (u + 2,), (0,)),
        FuncAtom("F", (Expr.const(0),), (0,)),
        FuncAtom("F", (), ()),
        FuncAtom("F", (u, Expr.const(0)), (0, 0)),
        FuncAtom("G", (u, x), (0, 0)),
        FuncAtom("sin", (sin_u,), (0,)),
        FuncAtom("sin", (sin_u**2,), (0,)),
        # one label, sin(u_x), over two bases
        FuncAtom("sin", (Expr.atom(JetCoord("u", MultiIndex(("x",), (1,)))),), (0,)),
        FuncAtom("sin", (Expr.atom(JetCoord("u", MultiIndex(xy, (1, 0)))),), (0,)),
    ]
    assert len(set(atoms)) == len(atoms)
    assert len({hash(a) for a in atoms}) == len(atoms)
    # equal arguments built in another term order, or with Fraction coefficients
    assert FuncAtom("F", (u + x,), (0,)) == FuncAtom("F", (x + u,), (0,))
    assert FuncAtom("F", (2 * u,), (0,)) == FuncAtom("F", (Expr({((Sym("u"), 1),): Fraction(2)}),), (0,))


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


# -- function atoms ----------------------------------------------------------------
#
# A recipe is a small tree of plain tuples.  ``build`` turns it into an
# expression whose function atoms are of a given class, so one recipe gives
# the new atoms and the references the same arguments, nested atoms included.

FUNCS = st.sampled_from(["sin", "exp", "inv", "F", "G"])


def build(r, cls) -> Expr:
    kind = r[0]
    if kind == "sym":
        return Expr.atom(Sym(r[1]))
    if kind == "jet":
        return Expr.atom(JetCoord(*r[1:]))
    if kind == "num":  # an integral coefficient, as an int or as a Fraction
        return Expr({(): Fraction(r[1])}) if r[2] else Expr.const(r[1])
    if kind == "retype":  # the same terms with Fraction coefficients
        return Expr({m: Fraction(c) for m, c in build(r[1], cls)._terms.items()})
    if kind == "add":
        return build(r[1], cls) + build(r[2], cls)
    if kind == "mul":
        return build(r[1], cls) * build(r[2], cls)
    if kind == "pow":  # a negative power only of one monomial: an exact inverse
        e = build(r[1], cls)
        return e ** (r[2] if r[2] >= 0 or len(e._terms) == 1 else -r[2])
    _, func, derivs, args = r
    return Expr.atom(cls(func, tuple(build(a, cls) for a in args), derivs))


def func_recipe(func: str, derivs: tuple, args: list) -> tuple:
    if func in ("sin", "exp", "inv"):  # one argument, no derivative marks
        return ("func", func, (0,), args[:1])
    return ("func", func, derivs[: len(args)], args)


@st.composite
def jet_recipes(draw) -> tuple:
    alpha = draw(multi_indices())
    return ("jet", draw(NAMES), alpha, draw(st.booleans()) or alpha.order == 0)


LEAF_RECIPES = st.one_of(
    st.tuples(st.just("sym"), NAMES),
    jet_recipes(),
    st.tuples(st.just("num"), st.integers(-2, 2), st.booleans()),
)


def _extend(inner):
    return st.one_of(
        st.tuples(st.just("add"), inner, inner),
        st.tuples(st.just("mul"), inner, inner),
        st.tuples(st.just("retype"), inner),
        st.tuples(st.just("pow"), inner, st.integers(-2, 2)),
        st.builds(
            func_recipe,
            FUNCS,
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.lists(inner, min_size=1, max_size=2),
        ),
    )


RECIPES = st.recursive(LEAF_RECIPES, _extend, max_leaves=6)


def near(draw, r) -> tuple:
    """``r`` with one node changed into an equal or nearly equal one."""
    kind = r[0]
    if kind == "sym":
        return ("retype", r) if draw(st.booleans()) else ("sym", r[1] + "1")
    if kind == "jet":  # the same jet name over a wider base
        _, fiber, alpha, vertical = r
        wider = "t" if "t" not in alpha.names else "t1"
        return ("jet", fiber, MultiIndex(alpha.names + (wider,), alpha.exponents + (0,)), vertical)
    if kind == "num":
        return ("num", r[1], not r[2])
    if kind == "retype":
        return r[1]
    if kind in ("add", "mul"):
        step = draw(st.sampled_from(["swap", "left", "right"]))
        if step == "swap":
            return (kind, r[2], r[1])
        return (kind, near(draw, r[1]), r[2]) if step == "left" else (kind, r[1], near(draw, r[2]))
    if kind == "pow":
        return ("pow", r[1], -r[2]) if draw(st.booleans()) else ("pow", near(draw, r[1]), r[2])
    _, func, derivs, args = r
    step = draw(st.sampled_from(["marks", "split", "arg"]))
    if step == "marks" and func in ("F", "G"):  # D[1,0] against D[0,1]
        return ("func", func, derivs[::-1], args) if len(args) == 2 else ("func", func, (derivs[0] + 1,), args)
    if step == "split" and func in ("F", "G"):  # F(a, b) against F(a*b)
        if len(args) == 2:
            return ("func", func, derivs[:1], [("mul", args[0], args[1])])
        return ("func", func, derivs + (0,), [args[0], ("num", 1, False)])
    i = draw(st.integers(0, len(args) - 1))
    return ("func", func, derivs, args[:i] + [near(draw, args[i])] + args[i + 1 :])


@st.composite
def func_atom_pairs(draw):
    """Two (new atom, its reference) pairs, often near collisions."""
    r = draw(RECIPES)
    s = near(draw, r) if draw(st.booleans()) else draw(RECIPES)
    atoms = []
    for recipe in (r, s):
        a = FuncAtom("F", (build(recipe, FuncAtom),), (0,))
        atoms.append((a, RefFuncAtom("F", (build(recipe, RefFuncAtom),), (0,))))
    return atoms


@given(func_atom_pairs())
def test_function_atoms_follow_the_reference(pairs):
    (a, ra), (b, rb) = pairs
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert (hash(a) == hash(b)) == (ra == rb)
    assert ({a: 1}.get(b) == 1) == (ra == rb)
    assert (a.args[0] == b.args[0]) == (ra.args[0] == rb.args[0])
    for x, rx in pairs:
        assert x.sort_key() == rx.sort_key()
        assert x.label() == str(x) == repr(x) == format(x) == f"{x}" == rx.label()
        assert x != x.label() and x.label() not in {x}
        assert f"{x:>40}" == f"{rx.label():>40}"
    assert (a.sort_key() < b.sort_key()) == (ra.sort_key() < rb.sort_key())


@given(func_atom_pairs())
def test_function_atoms_are_immutable_and_pickle(pairs):
    for a, ref in pairs:
        for name in ("func", "args", "derivs", "_key", "_label", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        for name in ("func", "args", "_key", "_label"):
            with pytest.raises(AttributeError):
                delattr(a, name)
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is FuncAtom
        assert copy == a and hash(copy) == hash(a)
        assert copy.sort_key() == ref.sort_key() and copy.label() == ref.label()
        assert a.label().encode() not in pickle.dumps(a)


@pytest.mark.parametrize("func, nargs, derivs", [("sin", 1, (1,)), ("inv", 1, (2,)), ("F", 2, (0,)), ("F", 0, (0,))])
def test_function_atoms_reject_what_the_reference_rejects(func, nargs, derivs):
    args = (Expr.atom(Sym("u")),) * nargs
    for cls in (FuncAtom, RefFuncAtom):
        with pytest.raises(ValueError):
            cls(func, args, derivs)
