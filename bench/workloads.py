"""The benchmark's three workloads.

A workload turns the seed into inputs once (set-up) and then hands out tasks
by index.  A task is one unit a user waits for: a derivation, one property
case, or one oracle validation.  It calls the public API through the
``varjet`` namespaces at call time, so the tracer's wrappers see it, and
returns its verdict with its canonical output text.  Negative indices are
warm-up tasks, drawn from inputs the timed loop reaches last or never.
"""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import numpy as np

import varjet as vj
import varjet.checks  # noqa: F401  (modules the package does not import itself)
import varjet.cli  # noqa: F401
import varjet.randgen  # noqa: F401
import varjet.render  # noqa: F401
import varjet.specfile  # noqa: F401


@dataclass
class Outcome:
    ok: bool
    text: str
    terms: int | None  # canonical output terms; None: counted after the timed loop
    detail: str = ""


@dataclass
class Task:
    index: int
    kind: str
    run: Callable[[], Outcome]
    in_terms: int


_SEPARATOR = re.compile(r" [+-] |[()]")


def count_terms(text: str) -> int:
    """Top-level terms of one canonically rendered expression."""
    if text == "0":
        return 0
    if "(" not in text:
        return 1 + text.count(" + ") + text.count(" - ")
    depth, n = 0, 1
    for m in _SEPARATOR.finditer(text):
        tok = m.group()
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif depth == 0:
            n += 1
    return n


def _derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- random dense inputs through the public API ------------------------------


def first_order_atoms(bundle, vertical: bool = False) -> list:
    units = [vj.MultiIndex.unit(bundle.base, name) for name in bundle.base]
    atoms = [bundle.coord(n) for n in bundle.base + bundle.fiber]
    atoms += [bundle.jet(p, alpha) for p in bundle.fiber for alpha in units]
    if vertical:
        atoms += [bundle.jet(p, bundle.zero_index(), True) for p in bundle.fiber]
        atoms += [bundle.jet(p, alpha, True) for p in bundle.fiber for alpha in units]
    return atoms


def dense_poly(rng: Random, atoms: list, profile: dict[int, int], heads: list | None = None):
    """Distinct monomials with small rational coefficients, ``profile[d]`` of
    them of degree d, so every draw has the same shape.  With ``heads``,
    every monomial is also multiplied by one of them."""
    chosen: set = set()
    parts = []
    for degree, count in sorted(profile.items()):
        drawn = 0
        while drawn < count:
            head = rng.randrange(len(heads)) if heads else None
            idx = tuple(sorted(rng.randrange(len(atoms)) for _ in range(degree)))
            if (head, idx) in chosen:
                continue
            chosen.add((head, idx))
            drawn += 1
            term = vj.Expr.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
            for i in idx:
                term = term * atoms[i]
            parts.append(term if head is None else term * heads[head])
    while len(parts) > 1:  # balanced, so building stays linear-logarithmic
        parts = [parts[i] + parts[i + 1] if i + 1 < len(parts) else parts[i] for i in range(0, len(parts), 2)]
    return parts[0]


def form_text(form) -> str:
    return "\n".join(f"dx{list(key)}: {c}" for key, c in form.items()) or "0"


def lines_terms(text: str, sep: str) -> int:
    """Terms of a rendering with one ``<label><sep><expr>`` line per coefficient."""
    return sum(count_terms(line.split(sep, 1)[1]) for line in text.splitlines() if sep in line)


def el_text(result) -> str:
    return "\n".join(f"E_{p}{list(key)} = {c}" for (p, key), c in sorted(result.components.items()))


def _parse_el_text(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        head, expr = line.split(" = ", 1)
        p, key = head[2:].split("[", 1)
        out[(p, tuple(json.loads("[" + key)))] = expr
    return out


def load_corpus() -> dict:
    """Every declaration file of the spec corpus, by relative path."""
    paths = sorted(os.path.join("specs", f) for f in os.listdir("specs") if f.endswith(".vspec"))
    return {path: vj.specfile.load_specfile_path(path) for path in paths}


class Workload:
    name = ""
    certify = 1  # tasks in the prefix that the work counters and digest cover
    # Traced tasks per second of --seconds: about half the untraced rate
    # here, so the traced and the untraced pass together take about
    # --seconds on the machine the rates were set on.
    trace_rate = 1.0
    warmup = 1

    def task(self, i: int) -> Task:
        raise NotImplementedError

    def fill_terms(self, i: int) -> int:
        raise NotImplementedError

    def keeps(self, i: int) -> bool:
        """Whether the timed loop should keep this task's output text."""
        return False

    def reference(self, ran: int, kept: dict) -> list[tuple[int | None, str]]:
        """Compare outputs against sympy; returns (task index, problem) pairs."""
        return []

    def notes(self) -> dict:
        """Workload-specific findings for the results file."""
        return {}


# -- dense_pipeline ------------------------------------------------------------


class DensePipeline(Workload):
    """Wide first-order expressions on m=3, n=2: EL, both fed routes, fed∘fed."""

    name = "dense_pipeline"
    certify = 3
    trace_rate = 3.5
    warmup = 3
    KINDS = ("el", "fed", "fedfed")
    # Sized so the three kinds take clearly different times, el in the
    # middle: the median then sits inside one mode.
    EL_PROFILE = {1: 8, 2: 32, 3: 64, 4: 96}  # 200 terms over 11 atoms
    FORM_PROFILE = {1: 4, 2: 8, 3: 8}  # 20 terms per coefficient over 19 atoms
    EL_TERMS, FED_TERMS, FEDFED_TERMS = 200, 3 * 20, 3 * 20
    KEPT_EL = 8  # EL outputs kept for the sympy sample

    def __init__(self, seed: int, specs: dict, quick: bool = False):
        rng = Random(_derived_seed("dense", seed))
        self.seed = seed
        self.bundle = b = vj.BundleSpec(("x", "y", "t"), ("u", "v"))
        plain, vertical = first_order_atoms(b), first_order_atoms(b, vertical=True)
        top = tuple(range(1, b.m + 1))
        self.pool = []
        for _ in range(4 if quick else 32):
            lag = vj.Lagrangian(b, vj.Form(b.m, b.base, {top: dense_poly(rng, plain, self.EL_PROFILE)}))
            phi = self._morphism(rng, vertical)
            psi = self._morphism(rng, vertical)
            self.pool.append((lag, phi, psi))

    def _morphism(self, rng, atoms):
        b = self.bundle
        coeffs = {(i,): dense_poly(rng, atoms, self.FORM_PROFILE) for i in range(1, b.m + 1)}
        return vj.Morphism(b, 1, 1, vj.Form(1, b.base, coeffs))

    def task(self, i: int) -> Task:
        lag, phi, psi = self.pool[(i // 3) % len(self.pool)]
        kind = self.KINDS[i % 3]
        if kind == "el":
            return Task(i, kind, lambda: self._el(lag), self.EL_TERMS)
        if kind == "fed":
            return Task(i, kind, lambda: self._fed(phi), self.FED_TERMS)
        return Task(i, kind, lambda: self._fedfed(psi), self.FEDFED_TERMS)

    @staticmethod
    def _el(lag) -> Outcome:
        result = vj.euler_lagrange(lag)
        text = el_text(result)
        return Outcome(result.is_projectable, text, lines_terms(text, " = "), "" if result.is_projectable else "not projectable")

    @staticmethod
    def _fed(phi) -> Outcome:
        a = vj.formal_exterior_differential(phi)
        b = vj.formal_exterior_differential_direct(phi)
        ok = a.value == b.value and (a.r, a.s) == (b.r, b.s)
        text = form_text(a.value)
        return Outcome(ok, text, lines_terms(text, ": "), "" if ok else "fed routes disagree")

    @staticmethod
    def _fedfed(psi) -> Outcome:
        d = vj.formal_exterior_differential(psi)
        dd = vj.formal_exterior_differential(d)
        ok = dd.value.is_zero
        text = form_text(d.value)
        return Outcome(ok, text + "\nsquare = " + form_text(dd.value), lines_terms(text, ": "), "" if ok else "fed∘fed is not zero")

    def keeps(self, i: int) -> bool:
        return 0 <= i < 3 * self.KEPT_EL and i % 3 == 0

    def reference(self, ran: int, kept: dict) -> list[tuple[int | None, str]]:
        from reference import reference_for

        if not kept:
            return []
        i = Random(_derived_seed("dense-sample", self.seed)).choice(sorted(kept))
        lag = self.pool[(i // 3) % len(self.pool)][0]
        ref = reference_for(self.bundle)
        key = tuple(range(1, self.bundle.m + 1))
        expected = ref.euler_lagrange(str(lag.value.coefficient(key)))
        ours = _parse_el_text(kept[i])
        problems = []
        for p in self.bundle.fiber:
            if not ref.same(expected[p], ref.parse(ours.get((p, key), "0"))):
                problems.append((i, f"E_{p} disagrees with sympy"))
        return problems


# -- property_suite ------------------------------------------------------------

def _check_mix():
    """The `varjet check` mix, read off ``varjet.checks.ALL_CHECKS``: each
    property with its default case count (1 where it has none), and the
    properties that take no seed."""
    weights, seedless = [], set()
    for fn in vj.checks.ALL_CHECKS:
        # The checks' timing decorator keeps the wrapped function only in
        # its closure, so look there for the real signature.
        params = inspect.signature(inspect.getclosurevars(fn).nonlocals.get("fn", fn)).parameters
        cases = params.get("cases")
        weights.append((fn.__name__, cases.default if cases is not None else 1))
        if "seed" not in params:
            seedless.add(fn.__name__)
    return tuple(weights), frozenset(seedless)


PROPERTY_WEIGHTS, SEEDLESS = _check_mix()
EL_PROPERTIES = frozenset({"projectability", "el_coordinate_formula", "el_linearity", "null_lagrangians", "el_classical_examples"})
FORMATS = {"text": [], "latex": ["--latex"], "json": ["--json"]}


def weighted_cycle(weights) -> list[str]:
    """Smooth weighted round robin: every prefix keeps close to the weights."""
    total = sum(w for _, w in weights)
    current = {name: 0 for name, _ in weights}
    out = []
    for _ in range(total):
        for name, w in weights:
            current[name] += w
        pick = max(weights, key=lambda nw: current[nw[0]])[0]
        current[pick] -= total
        out.append(pick)
    return out


def _walk_exprs(payload):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key in ("expr", "coeff") and isinstance(value, str):
                yield value
            else:
                yield from _walk_exprs(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _walk_exprs(value)


class PropertySuite(Workload):
    """One property case per task, with the spec corpus run through the CLI
    interleaved: one corpus task after every CORPUS_EVERY cases."""

    name = "property_suite"
    certify = 120
    trace_rate = 150.0
    warmup = 44
    CORPUS_EVERY = 10

    def __init__(self, seed: int, specs: dict, quick: bool = False):
        self.seed = seed
        self.cycle = weighted_cycle(PROPERTY_WEIGHTS)
        self.specs = specs
        self.corpus = []
        for path, spec in specs.items():
            commands = dict.fromkeys(t.command for t in spec.tasks if t.command != "check")
            for command in commands:
                for fmt in FORMATS:
                    self.corpus.append((path, command, fmt))
        self._json_payloads: dict = {}

    def _slot(self, i: int):
        block, pos = divmod(i, self.CORPUS_EVERY + 1)
        if pos == self.CORPUS_EVERY:
            return ("corpus", block)
        return ("case", block * self.CORPUS_EVERY + pos)

    def case_seed(self, j: int) -> int:
        return _derived_seed("case", self.seed, j)

    def task(self, i: int) -> Task:
        what, j = self._slot(i)
        if what == "corpus":
            path, command, fmt = self.corpus[j % len(self.corpus)]
            return Task(i, f"cli.{command}", lambda: self._cli(path, command, fmt), 0)
        name = self.cycle[j % len(self.cycle)]
        seed = self.case_seed(j)
        return Task(i, name, lambda: self._case(name, seed), 0)

    @staticmethod
    def _case(name: str, seed: int) -> Outcome:
        fn = getattr(vj.checks, name)
        r = fn() if name in SEEDLESS else fn(seed=seed, cases=1)
        text = f"{r.name} {'PASS' if r.passed else 'FAIL'} cases={r.cases} {r.detail}"
        return Outcome(bool(r.passed), text, 0, "" if r.passed else r.detail)

    @staticmethod
    def _cli(path: str, command: str, fmt: str) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vj.cli.main([command, path] + FORMATS[fmt])
        return Outcome(code == 0, out.getvalue(), None, f"exit {code}: {err.getvalue().strip()}")

    def _json_payload(self, path: str, command: str):
        key = (path, command)
        if key not in self._json_payloads:
            outcome = self._cli(path, command, "json")
            self._json_payloads[key] = json.loads(outcome.text) if outcome.ok else None
        return self._json_payloads[key]

    def fill_terms(self, i: int) -> int:
        _, j = self._slot(i)
        path, command, _ = self.corpus[j % len(self.corpus)]
        payload = self._json_payload(path, command)
        return 0 if payload is None else sum(count_terms(t) for t in _walk_exprs(payload))

    def reference(self, ran: int, kept: dict) -> list[tuple[int | None, str]]:
        from reference import check_euler_lagrange, reference_for

        problems = []
        # Every EL property case of the run, re-executed with its Lagrangians
        # captured: the properties return only a verdict.
        for i in range(ran):
            what, j = self._slot(i)
            name = self.cycle[j % len(self.cycle)] if what == "case" else None
            if name not in EL_PROPERTIES:
                continue
            captured = []
            original = vj.checks.euler_lagrange

            def capture(lag):
                result = original(lag)
                captured.append((lag, result))
                return result

            vj.checks.euler_lagrange = capture
            try:
                self._case(name, self.case_seed(j))
            finally:
                vj.checks.euler_lagrange = original
            for lag, result in captured:
                for problem in check_euler_lagrange(lag, result):
                    problems.append((i, f"{name}: {problem}"))
        # Each corpus Lagrangian, through the CLI's own JSON output.
        for path, spec in self.specs.items():
            if not any(d.kind == "lagrangian" for d in spec.definitions.values()):
                continue
            payload = self._json_payload(path, "el")
            payloads = payload if isinstance(payload, list) else [payload]
            if payload is None:
                problems.append((self._corpus_index(path, ran), f"{path}: el failed"))
                continue
            for item in payloads:
                lag = spec.find("lagrangian", item["name"]).obj
                ref = reference_for(lag.bundle, tuple(sorted(spec.functions.items())))
                for comp in item["components"]:
                    key = tuple(comp["basis"])
                    expected = ref.euler_lagrange(str(lag.value.coefficient(key)))[comp["fiber"]]
                    if not ref.same(expected, ref.parse(comp["expr"])):
                        problems.append((self._corpus_index(path, ran), f"{path}: E_{comp['fiber']} disagrees with sympy"))
        return problems

    def _corpus_index(self, path: str, ran: int) -> int | None:
        """First timed corpus `el` task on this file, if one ran."""
        for i in range(ran):
            what, j = self._slot(i)
            if what == "corpus" and self.corpus[j % len(self.corpus)][:2] == (path, "el"):
                return i
        return None


# -- oracle_grid ----------------------------------------------------------------


class OracleGrid(Workload):
    """First-order densities validated numerically on a grid and its
    half-resolution grid.

    Tasks run m=1, m=1, m=2 in turn.  Every density has the same shape
    (TERMS terms, 6 of them with a sin or exp atom), so each base
    dimension gives one latency mode; with twice as many m=1 tasks, the
    median falls inside the m=1 mode and the tail inside the m=2 mode
    rather than between the two.
    """

    name = "oracle_grid"
    certify = 3
    trace_rate = 3.5
    warmup = 3
    PATTERN = (1, 1, 2)  # base dimension by task index mod 3
    PROFILE = {1: 4, 2: 8, 3: 12}  # 24 terms over 5 first-order atoms
    FUNC_PROFILE = {1: 3, 2: 3}  # 6 more, each times sin(u) or exp(u or v)
    TERMS = 30
    GRID = {1: 10001, 2: 301}
    # Wave numbers of the sampled sections.  On the fine 1-D grid the
    # truncation error of a slow wave is only a few times its round-off, too
    # close for an order test; faster waves raise it well clear.
    WAVES = {1: (3, 4), 2: (1, 2)}
    EPSILON = 1e-5  # action step: its O(eps^2) floor stays below the grid error
    ORDER_SLACK = 0.5
    ROUNDOFF_FACTOR = 4  # rounding errors of a stencil's few terms add up to a few eps
    PROBES = 3

    def __init__(self, seed: int, specs: dict, quick: bool = False):
        rng = Random(_derived_seed("oracle", seed))
        self.pool = []
        for j in range(6 if quick else 33):
            m = self.PATTERN[j % 3]
            bundle = vj.BundleSpec(("x", "y")[:m], ("u", "v") if m == 1 else ("u",))
            atoms = first_order_atoms(bundle)
            funcs = [vj.sin(bundle.coord(bundle.fiber[0])), vj.exp(bundle.coord(bundle.fiber[-1]))]
            density = dense_poly(rng, atoms, self.PROFILE) + dense_poly(rng, atoms, self.FUNC_PROFILE, heads=funcs)
            lag = vj.Lagrangian(bundle, vj.Form(m, bundle.base, {tuple(range(1, m + 1)): density}))
            waves = [(rng.choice(self.WAVES[m]), rng.random(), rng.random()) for _ in bundle.fiber]
            probes = [tuple(rng.randrange(2, self.GRID[m] - 2) for _ in range(m)) for _ in range(self.PROBES)]
            self.pool.append((lag, waves, probes))
        self._el_terms: dict = {}
        self.convergence: dict = {}  # pool index -> (m, [(check, e_fine, e_coarse, round-off, order)])

    @staticmethod
    def _section(m: int, wave):
        """u = sin(pi (k x + a)) / 2, times cos(pi (y + c)) on the plane,
        with its exact first partials."""
        k, a, c = wave
        s = lambda x: 0.5 * np.sin(np.pi * (k * x + a))  # noqa: E731
        ds = lambda x: 0.5 * np.pi * k * np.cos(np.pi * (k * x + a))  # noqa: E731
        if m == 1:
            return s, (ds,)
        fn = lambda x, y: s(x) * np.cos(np.pi * (y + c))  # noqa: E731
        fx = lambda x, y: ds(x) * np.cos(np.pi * (y + c))  # noqa: E731
        fy = lambda x, y: -np.pi * s(x) * np.sin(np.pi * (y + c))  # noqa: E731
        return fn, (fx, fy)

    def task(self, i: int) -> Task:
        j = i % len(self.pool)
        m = self.pool[j][0].bundle.m
        return Task(i, f"oracle_m{m}", lambda: self._validate(j), self.TERMS)

    def _validate(self, j: int) -> Outcome:
        lag, waves, probes = self.pool[j]
        bundle = lag.bundle
        m = bundle.m
        density = lag.value.coefficient(tuple(range(1, m + 1)))
        sections = {p: self._section(m, w) for p, w in zip(bundle.fiber, waves)}
        bumps = [vj.bump(0.0, 1.0) for _ in range(m)]

        def eta(*coords):
            total = 1.0
            for fn, c in zip(bumps, coords):
                total = total * fn(c)
            return total

        errors, grids = [], []
        for n in (self.GRID[m], (self.GRID[m] + 1) // 2):
            bounds, shape = ((0.0, 1.0),) * m, (n,) * m
            s = vj.sample_section(bundle, bounds, shape, {p: f for p, (f, _) in sections.items()})
            e = vj.sample_section(bundle, bounds, shape, {p: eta for p in bundle.fiber})
            row = [vj.check_total_derivative(density, s, d) for d in bundle.base]
            row.append(vj.check_action_variation(lag, s, e, epsilon=self.EPSILON)[2])
            errors.append(row)
            grids.append(s)
        fine, coarse = grids
        floors = self._roundoff(density, coarse, max(fine.spacing))
        names = [f"td_{d}" for d in bundle.base] + ["action"]
        orders, bad, found = [], [], []
        for name, floor, e_fine, e_coarse in zip(names, floors, errors[0], errors[1]):
            order = math.log2(e_coarse / e_fine) if e_fine > 0 and e_coarse > 0 else math.inf
            orders.append(f"{name}={order:.1f}")
            found.append((name, e_fine, e_coarse, floor, order))
            # Second-order stencils: the error falls 4x per halving of the
            # spacing.  Round-off of up to `floor` on the fine grid, and a
            # quarter of it on the coarse one, widens the ratio that passes.
            low = (e_coarse - floor / 4) / (e_fine + floor)
            high = (e_coarse + floor / 4) / (e_fine - floor) if e_fine > floor else math.inf
            if high < 2 ** (2 - self.ORDER_SLACK) or low > 2 ** (2 + self.ORDER_SLACK):
                bad.append(f"{name} error {e_fine:.3e} (round-off {floor:.1e}) converges at order {order:.2f}")
        self.convergence[j] = (m, found)
        h2 = max(fine.spacing) ** 2
        for point in probes:
            value = vj.eval_jet(density, fine, point)
            exact = self._exact(density, bundle, sections, fine, point)
            if abs(value - exact) > 1e3 * h2 * (1.0 + abs(exact)):
                bad.append(f"eval_jet at {point}: {value!r} vs {exact!r}")
        text = f"m={m} orders {' '.join(orders)} probes={len(probes)} {'ok' if not bad else 'FAILED'}"
        return Outcome(not bad, text, None, "; ".join(bad))

    def _roundoff(self, density, coarse, h: float) -> list[float]:
        """Round-off floors of the relative errors on the fine grid, spacing h.

        A total derivative along an axis reads second differences of samples
        rounded to eps relative, about eps |u| / h^2 each, weighted by the
        momenta dL/du_j; check_total_derivative divides by the larger of 1
        and the largest |D L|.  Momenta, |u| and |D L| are read off the
        coarse grid.  The action's difference quotient in EPSILON carries
        eps / EPSILON from rounding and EPSILON^2 from its own step, whatever
        the grid.
        """
        eps = np.finfo(float).eps
        bundle = coarse.bundle
        weight = 0.0
        for p in bundle.fiber:
            size = float(np.max(np.abs(coarse.values[p])))
            for d in bundle.base:
                atom = vj.jet_atom(p, vj.MultiIndex.unit(bundle.base, d))
                momentum = vj.oracle.eval_jet_grid(vj.diff(density, atom), coarse)
                weight += size * float(np.nanmax(np.abs(momentum)))
        floors = []
        for d in bundle.base:
            derivative = vj.oracle.eval_jet_grid(vj.total_derivative(density, d, bundle, 1, None), coarse)
            scale = max(1.0, float(np.nanmax(np.abs(derivative))))
            floors.append(self.ROUNDOFF_FACTOR * eps * weight / (h**2 * scale))
        floors.append(self.ROUNDOFF_FACTOR * (eps / self.EPSILON + self.EPSILON**2))
        return floors

    def notes(self) -> dict:
        """Observed convergence per pool density that ran: order, errors and
        round-off floor of each check, and how many errors sat at or below
        their floor, where the order test cannot tell truncation from
        rounding and only bounds the coarse error."""
        summary = {}
        for m in (1, 2):
            rows = [(j, r) for j, (dim, found) in sorted(self.convergence.items()) if dim == m for r in found]
            if not rows:
                continue
            summary[f"m{m}"] = {
                "errors": len(rows),
                "at_roundoff": sum(1 for _, (_, e_fine, _, floor, _) in rows if e_fine <= floor),
                "checks": [
                    {"density": j, "check": name, "e_fine": e_fine, "e_coarse": e_coarse, "roundoff": floor, "order": order}
                    for j, (name, e_fine, e_coarse, floor, order) in rows
                ],
            }
        return {"convergence": summary}

    @staticmethod
    def _exact(density, bundle, sections, grid, point) -> float:
        coords = [float(grid.axis_points(a)[k]) for a, k in enumerate(point)]
        env = {vj.Sym(n): v for n, v in zip(bundle.base, coords)}
        for p, (f, partials) in sections.items():
            env[vj.Sym(p)] = float(f(*coords))
            for name, df in zip(bundle.base, partials):
                atom = vj.jet_atom(p, vj.MultiIndex.unit(bundle.base, name))
                env[atom] = float(df(*coords))
        return float(vj.evaluate(density, env))

    def fill_terms(self, i: int) -> int:
        j = i % len(self.pool)
        if j not in self._el_terms:
            result = vj.euler_lagrange(self.pool[j][0])
            self._el_terms[j] = sum(count_terms(str(c)) for c in result.components.values())
        return self._el_terms[j]


WORKLOADS = {w.name: w for w in (DensePipeline, PropertySuite, OracleGrid)}


def make(name: str, seed: int, quick: bool = False) -> Workload:
    """Set-up: load the spec corpus and generate the workload's inputs."""
    return WORKLOADS[name](seed, load_corpus(), quick)
