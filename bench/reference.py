"""Independent reference for Euler-Lagrange components.

``sympy.calculus.euler.euler_equations`` computes the field equations of a
density from scratch; the engine's result is compared with it exactly.  Both
sides cross the boundary as canonical text, the format the engine's renderer
guarantees, so the comparison does not depend on the kernel's internal term
representation.  A degree-l component of the engine is the classical
formula applied to one coefficient with every base direction, which is what
``euler_equations`` computes for that coefficient.
"""

import re
from functools import lru_cache

import sympy
from sympy.calculus.euler import euler_equations
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

_TRANSFORMS = standard_transformations + (convert_xor,)
_PRIMES = re.compile(r"([A-Za-z][A-Za-z0-9]*)('+)\(")
_MARKS = re.compile(r"D\[([0-9,]+)\]([A-Za-z][A-Za-z0-9]*)\(")


class Reference:
    """Sympy symbols for one bundle and the text-to-sympy translation."""

    def __init__(self, bundle, functions: tuple[tuple[str, int], ...] = ()):
        import varjet as vj

        self.base = [sympy.Symbol(n) for n in bundle.base]
        self.fields = {p: sympy.Function(p)(*self.base) for p in bundle.fiber}
        names: dict = {"ln": sympy.log}
        names.update(zip(bundle.base, self.base))
        names.update(self.fields)
        for p in bundle.fiber:
            for alpha in vj.multiindex.indices_up_to(bundle.base, 2):
                if alpha.order:
                    steps = [x for x, k in zip(self.base, alpha.exponents) for _ in range(k)]
                    names[str(bundle.jet(p, alpha))] = self.fields[p].diff(*steps)
        self.formal = {}
        for name, arity in functions:
            fn = sympy.Function(name)
            names[name] = fn
            self.formal[name] = (fn, arity)
        self.names = names

    def _marked(self, name: str, marks: tuple[int, ...]):
        fn, arity = self.formal[name]
        slots = sympy.symbols(f"_s0:{arity}", cls=sympy.Dummy)

        def apply(*args):
            d = sympy.Derivative(fn(*slots), *[(s, k) for s, k in zip(slots, marks) if k])
            return sympy.Subs(d, slots, args).doit()

        return apply

    def parse(self, text: str):
        names = dict(self.names)

        def primes(m):
            key = f"_{m.group(1)}_d{len(m.group(2))}"
            names[key] = self._marked(m.group(1), (len(m.group(2)),))
            return key + "("

        def marks(m):
            counts = tuple(int(k) for k in m.group(1).split(","))
            key = f"_{m.group(2)}_D{'_'.join(map(str, counts))}"
            names[key] = self._marked(m.group(2), counts)
            return key + "("

        text = _MARKS.sub(marks, _PRIMES.sub(primes, text))
        return parse_expr(text, local_dict=names, transformations=_TRANSFORMS)

    @staticmethod
    def same(a, b) -> bool:
        return sympy.expand((a - b).doit()) == 0

    def euler_lagrange(self, density_text: str) -> dict:
        """Field equation of one coefficient per fiber name."""
        # euler_equations drops an equation that evaluates to True or False,
        # such as a constant one; adding u*g(x) with a free g keeps every
        # equation symbolic, and g is subtracted again afterwards.
        lagrangian = self.parse(density_text)
        probes = {p: sympy.Function(f"_g_{p}")(*self.base) for p in self.fields}
        lagrangian += sum(f * probes[p] for p, f in self.fields.items())
        eqs = euler_equations(lagrangian, list(self.fields.values()), self.base)
        return {p: eq.lhs - probes[p] for p, eq in zip(self.fields, eqs, strict=True)}


@lru_cache(maxsize=None)
def reference_for(bundle, functions: tuple[tuple[str, int], ...] = ()) -> Reference:
    return Reference(bundle, functions)


def check_euler_lagrange(lag, result, functions: tuple[tuple[str, int], ...] = ()) -> list[str]:
    """Compare every component of an engine result with sympy.

    Returns a list of mismatch descriptions, empty when all agree.
    """
    ref = reference_for(lag.bundle, functions)
    problems = []
    keys = {key for key, _ in lag.value.items()}
    for key, coeff in lag.value.items():
        expected = ref.euler_lagrange(str(coeff))
        for p in lag.bundle.fiber:
            ours = ref.parse(str(result.component(p, key)))
            if not ref.same(expected[p], ours):
                problems.append(f"E_{p}{list(key)}: engine {result.component(p, key)} vs sympy {expected[p]}")
    for (p, key), value in result.components.items():
        if key not in keys and not value.is_zero:
            problems.append(f"E_{p}{list(key)}: engine {value} on a zero coefficient")
    return problems
