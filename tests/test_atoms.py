"""Atoms against the frozen dataclasses they replaced.

``Sym``, ``JetCoord`` and ``FuncAtom`` are ``str`` subclasses whose string
value is the order-preserving spelling of a key, so hashing, equality and
order run in C.  The dataclasses below are the previous definitions, with
the ``_key`` tuple that ordered them, kept as the reference: the new atoms
must be equal, hash alike, sort and print exactly where the references do.
A reference function atom compares its ``Expr`` arguments, and so its
nested reference atoms, field by field, and orders them by the nested key
tuples of its arguments.
"""

import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varjet.bundle import JetCoord, jet_atom
from varjet.expr import Expr, FuncAtom, Sym, _enc
from varjet.multiindex import MultiIndex
from varjet.render import _func_text


class _Ordered:
    """Reference atoms sort by their ``_key``, as the atoms they replaced did."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return self._key < other._key

    def __gt__(self, other) -> bool:
        return self._key > other._key


@dataclass(frozen=True, slots=True)
class RefSym(_Ordered):
    name: str
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (0, self.name))

    def label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.label()


@dataclass(frozen=True, slots=True)
class RefJetCoord(_Ordered):
    fiber: str
    alpha: MultiIndex
    vertical: bool = False
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alpha.order == 0 and not self.vertical:
            raise ValueError("order-zero positional coordinates are plain symbols")
        object.__setattr__(self, "_key", (1, int(self.vertical), self.fiber, self.alpha.sort_key(), self.alpha.names))

    def label(self) -> str:
        head = ("d" + self.fiber) if self.vertical else self.fiber
        if self.alpha.order == 0:
            return head
        if all(len(n) == 1 for n in self.alpha.names):
            return head + "_" + "".join(self.alpha.suffix_names())
        return head + "[" + ",".join(map(str, self.alpha.exponents)) + "]"

    def __repr__(self) -> str:
        return self.label()


def ref_mono_key(mono) -> tuple:
    return (sum(e for _, e in mono), tuple((a._key, e) for a, e in mono))


def ref_expr_key(e: Expr) -> tuple:
    terms = sorted(e._terms.items(), key=lambda t: ref_mono_key(t[0]))
    return tuple((ref_mono_key(m), c.numerator, c.denominator) for m, c in terms)


@dataclass(frozen=True, slots=True)
class RefFuncAtom(_Ordered):
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
        object.__setattr__(self, "_key", (2, self.func, self.derivs, tuple(map(ref_expr_key, self.args))))

    def __hash__(self) -> int:
        return self._hash

    def label(self) -> str:
        if self._label is None:
            object.__setattr__(self, "_label", _func_text(self))  # top down, through the arguments
        return self._label

    def __repr__(self) -> str:
        return self.label()


# Small alphabets, so that equal pairs and near misses are both common.  Besides
# the coordinate grammar [A-Za-z][A-Za-z0-9]*, names may hold any character but
# the encoding's marks, such as the control characters "\x01" and "\x03".
NAMES = st.sampled_from(["u", "v", "x", "y", "ab", "a1", "x2", "uv", "W", "a\x01", "a\x03b"])


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


def assert_follows(a, ra, b, rb) -> None:
    """``a`` and ``b`` are equal, hash alike and sort as their references do."""
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert (hash(a) == hash(b)) == (ra == rb)
    assert ({a: 1}.get(b) == 1) == (ra == rb)
    assert (a < b) == (ra._key < rb._key)
    assert (a > b) == (ra._key > rb._key)


@given(atom_pairs(), atom_pairs())
def test_equality_and_hash_follow_the_reference(p, q):
    (a, ra), (b, rb) = p, q
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert (hash(a) == hash(b)) == (ra == rb)
    assert ({a: 1}.get(b) == 1) == (ra == rb)


@given(atom_pairs(), atom_pairs())
def test_sort_keys_follow_the_reference(p, q):
    # Atoms carry no sort key of their own: the identity string is the key.
    (a, ra), (b, rb) = p, q
    assert str.__str__(a) == _enc(ra._key)
    assert (a < b) == (ra._key < rb._key)
    assert (a > b) == (ra._key > rb._key)


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


# Keys of one shape each, so that Python compares every pair of them.
INTS = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2**70), 2**70),
    # around the length mark's last one-character value (0x3fff hex digits)
    st.builds(lambda k, d, sign: sign * (16**k + d), st.integers(0x3FFC, 0x4002), st.integers(-2, 2), st.sampled_from([1, -1])),
)
SHAPES = [
    INTS,
    st.lists(INTS, max_size=4).map(tuple),
    st.lists(st.lists(NAMES, max_size=3).map(tuple), max_size=3).map(tuple),
    st.lists(st.tuples(INTS, NAMES, st.lists(INTS, max_size=2).map(tuple)), max_size=3).map(tuple),
]


@given(st.one_of([st.tuples(shape, shape) for shape in SHAPES]))
def test_the_encoding_sorts_as_the_keys_do(pair):
    a, b = pair
    assert (_enc(a) < _enc(b)) == (a < b)
    assert (_enc(a) == _enc(b)) == (a == b)


def test_the_encoding_on_fixed_keys():
    ints = [-(16**0x4001), -(16**0x3FFF) - 1, -(16**0x3FFF), -256, -255, -17, -16, -15, -2, -1, 0, 1, 2, 15, 16, 255, 256]
    ints += [16**0x3FFF - 1, 16**0x3FFF, 16**0x4001]
    # positions, not the ints themselves, so that a failure prints
    assert sorted(range(len(ints)), key=lambda i: _enc(ints[i])) == list(range(len(ints)))
    for keys in (
        [(), (0,), (0, 0), (0, 1), (1,)],  # a prefix sorts first
        [("a",), ("a", "b"), ("a\x01",), ("a\x03b",), ("ab",), ("b",)],  # and a name that is a prefix
        [(-2, "x"), (-1, "x"), (-1, "xy"), (0, "")],
    ):
        assert sorted(keys, key=_enc) == keys
        assert len({_enc(k) for k in keys}) == len(keys)


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
    assert a.label() == a._label == label
    assert str(a) == label
    assert repr(a) == label
    assert format(a) == label
    assert f"{a}" == label
    assert "%s" % a == label
    assert f"{a:>12}" == f"{label:>12}"


@given(atom_pairs())
def test_atoms_are_immutable(p):
    a, ref = p
    for name in ("name", "fiber", "_label", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in ("name", "fiber", "_label"):
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.label() == ref.label()


@given(atom_pairs())
def test_pickling_round_trips(p):
    a, ref = p
    copy = pickle.loads(pickle.dumps(a))
    assert copy is a
    assert str(copy) == ref.label()


def test_public_fields():
    alpha = MultiIndex(("x", "y"), (1, 2))
    s, j = Sym("u"), JetCoord("u", alpha, True)
    assert s.name == "u"
    assert (j.fiber, j.alpha, j.vertical) == ("u", alpha, True)
    assert str(j) == "du_xyy"
    with pytest.raises(ValueError):
        JetCoord("u", MultiIndex.zero(("x",)))


# -- one atom per value --------------------------------------------------------------


def test_one_atom_per_value():
    alpha = MultiIndex(("x", "y"), (2, 1))
    assert Sym("u") is Sym("u")
    assert jet_atom("u", alpha) is jet_atom("u", alpha) is JetCoord("u", MultiIndex(("x", "y"), (2, 1)))
    assert jet_atom("u", alpha, True) is jet_atom("u", alpha, True) is not jet_atom("u", alpha)
    assert jet_atom("u", MultiIndex.zero(("x",))) is Sym("u")
    for atom in (Sym("u"), jet_atom("u", alpha), jet_atom("u", alpha, True)):
        assert pickle.loads(pickle.dumps(atom)) is atom


@pytest.mark.parametrize("mark", ["\x00", "\x02", "\x04"])
def test_names_holding_a_mark_of_the_encoding_are_refused(mark):
    u = Expr.atom(Sym("u"))
    builds = [
        lambda: Sym("u" + mark),
        lambda: Sym(mark),
        lambda: JetCoord("u" + mark, MultiIndex(("x",), (1,))),
        lambda: JetCoord("u", MultiIndex(("x", mark + "y"), (1, 0))),
        lambda: JetCoord("u", MultiIndex.zero(("x" + mark,)), True),
        lambda: FuncAtom("F" + mark, (u,), (0,)),
    ]
    for build_atom in builds:
        with pytest.raises(ValueError, match="reserved control character"):
            build_atom()
    assert Sym("u\x01") != Sym("u") and str(Sym("u\x03")) == "u\x03"


# -- function atoms ----------------------------------------------------------------
#
# A recipe is a small tree of plain tuples.  ``build`` turns it into an
# expression over the new atoms, or over the reference atoms, so one recipe
# gives both the same arguments, nested atoms included.

FUNCS = st.sampled_from(["sin", "exp", "inv", "F", "G"])


def build(r, ref: bool) -> Expr:
    kind = r[0]
    if kind == "sym":
        return Expr.atom((RefSym if ref else Sym)(r[1]))
    if kind == "jet":
        return Expr.atom((RefJetCoord if ref else JetCoord)(*r[1:]))
    if kind == "num":  # a coefficient; an integral one as an int or as a Fraction
        return Expr({(): Fraction(r[1])}) if r[2] else Expr.const(r[1])
    if kind == "retype":  # the same terms with Fraction coefficients
        return Expr({m: Fraction(c) for m, c in build(r[1], ref)._terms.items()})
    if kind == "add":
        return build(r[1], ref) + build(r[2], ref)
    if kind == "mul":
        return build(r[1], ref) * build(r[2], ref)
    if kind == "pow":  # a negative power only of one monomial: an exact inverse
        e = build(r[1], ref)
        return e ** (r[2] if r[2] >= 0 or len(e._terms) == 1 else -r[2])
    _, func, derivs, args = r
    return Expr.atom((RefFuncAtom if ref else FuncAtom)(func, tuple(build(a, ref) for a in args), derivs))


def func_recipe(func: str, derivs: tuple, args: list) -> tuple:
    if func in ("sin", "exp", "inv"):  # one argument, no derivative marks
        return ("func", func, (0,), args[:1])
    return ("func", func, derivs[: len(args)], args)


@st.composite
def jet_recipes(draw) -> tuple:
    alpha = draw(multi_indices())
    return ("jet", draw(NAMES), alpha, draw(st.booleans()) or alpha.order == 0)


NUMBERS = st.one_of(
    st.integers(-2, 2),
    st.integers(-(10**6), 10**6),
    st.integers(-(2**200), 2**200),
    st.fractions(max_denominator=10**9),
)

LEAF_RECIPES = st.one_of(
    st.tuples(st.just("sym"), NAMES),
    jet_recipes(),
    st.tuples(st.just("num"), NUMBERS, st.booleans()),
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
    if kind == "num":  # the other type, the other sign, or the next value
        step = draw(st.sampled_from(["retype", "negate", "next"]))
        value = -r[1] if step == "negate" else r[1] + 1 if step == "next" else r[1]
        return ("num", value, not r[2] if step == "retype" else r[2])
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
        a = FuncAtom("F", (build(recipe, False),), (0,))
        atoms.append((a, RefFuncAtom("F", (build(recipe, True),), (0,))))
    return atoms


@given(func_atom_pairs())
def test_function_atoms_follow_the_reference(pairs):
    (a, ra), (b, rb) = pairs
    assert_follows(a, ra, b, rb)
    assert (a.args[0] == b.args[0]) == (ra.args[0] == rb.args[0])
    for x, rx in pairs:
        assert str.__str__(x) == _enc(rx._key)
        assert x.label() == x._label == str(x) == repr(x) == format(x) == f"{x}" == rx.label()
        assert x != x.label() and x.label() not in {x}
        assert f"{x:>40}" == f"{rx.label():>40}"


@given(func_atom_pairs())
def test_function_atoms_are_immutable_and_pickle(pairs):
    for a, ref in pairs:
        for name in ("func", "args", "derivs", "_label", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        for name in ("func", "args", "_label"):
            with pytest.raises(AttributeError):
                delattr(a, name)
        copy = pickle.loads(pickle.dumps(a))
        assert type(copy) is FuncAtom
        assert copy == a and hash(copy) == hash(a)
        assert not copy < a and not a < copy and copy.label() == ref.label()
        assert a.label().encode() not in pickle.dumps(a)


@pytest.mark.parametrize("func, nargs, derivs", [("sin", 1, (1,)), ("inv", 1, (2,)), ("F", 2, (0,)), ("F", 0, (0,))])
def test_function_atoms_reject_what_the_reference_rejects(func, nargs, derivs):
    args = (Expr.atom(Sym("u")),) * nargs
    for cls in (FuncAtom, RefFuncAtom):
        with pytest.raises(ValueError):
            cls(func, args, derivs)
