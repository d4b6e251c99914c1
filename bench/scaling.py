"""Scaling report: the baseline rows of ROADMAP.md, re-measurable.

    python3 bench/scaling.py

Rows: ``holonomic_prolongation`` for k = 1..4 at m=3, n=2, r=2, s=1; a dense
quartic density (all 495 degree-4 monomials in the 9 first-order jets of
m=3, n=3) through ``euler_lagrange``, ``fed`` and ``fed∘fed``; and the 2-D
action-variation oracle on a 400² grid.  Each row reports the median of
REPS runs with input and output term counts, so rows compare as µs
per output term.  No bound gates these numbers; they land in
``bench/out/scaling.json`` with the run metadata.
"""

import itertools
import json
import os
import statistics
import sys
from fractions import Fraction
from random import Random
from time import perf_counter

import run

os.chdir(run.ROOT)
sys.path.insert(0, os.path.join(run.ROOT, "src"))

import numpy as np  # noqa: E402

import varjet as vj  # noqa: E402
from workloads import count_terms, dense_poly, first_order_atoms, form_text, lines_terms  # noqa: E402

REPS = 3  # runs per row; a row reports their median


def _timed(fn):
    times, out = [], None
    for _ in range(REPS):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def prolongation_rows() -> list[dict]:
    b = vj.BundleSpec(("x", "y", "t"), ("u", "v"))
    atoms = [b.coord(n) for n in b.base] + [vj.Expr.atom(a) for a in vj.enumerate_jet_coordinates(b, 2, 1)]
    rng = Random(0)
    profile = {1: 1, 2: 2, 3: 1}  # sparse, like the property suite's random morphisms
    phi = vj.Morphism(b, 2, 1, vj.Form(1, b.base, {(i,): dense_poly(rng, atoms, profile) for i in (1, 2, 3)}))
    n_in = lines_terms(form_text(phi.value), ": ")
    rows = []
    for k in range(1, 5):
        seconds, family = _timed(lambda: vj.holonomic_prolongation(phi, k))
        out_terms = sum(lines_terms(form_text(f), ": ") for f in family.values())
        rows.append({"row": f"holonomic_prolongation k={k} (m=3 n=2 r=2 s=1)", "seconds": seconds, "input_terms": n_in, "output_terms": out_terms})
    return rows


def quartic_rows() -> list[dict]:
    b = vj.BundleSpec(("x", "y", "t"), ("u", "v", "w"))
    jets = first_order_atoms(b)[len(b.base) + len(b.fiber) :]
    rng = Random(0)
    terms = []
    for combo in itertools.combinations_with_replacement(range(len(jets)), 4):
        term = vj.Expr.const(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))))
        for i in combo:
            term = term * jets[i]
        terms.append(term)
    while len(terms) > 1:
        terms = [terms[i] + terms[i + 1] if i + 1 < len(terms) else terms[i] for i in range(0, len(terms), 2)]
    density = terms[0]
    n_in = count_terms(str(density))
    lag = vj.Lagrangian(b, vj.Form(3, b.base, {(1, 2, 3): density}))
    phi = vj.Morphism(b, 1, None, vj.Form(1, b.base, {(1,): density}))
    rows = []
    seconds, result = _timed(lambda: vj.euler_lagrange(lag))
    out = sum(count_terms(str(c)) for c in result.components.values())
    rows.append({"row": "euler_lagrange, quartic density (m=3 n=3)", "seconds": seconds, "input_terms": n_in, "output_terms": out})
    seconds, d = _timed(lambda: vj.formal_exterior_differential(phi))
    rows.append({"row": "fed, quartic 1-form (m=3 n=3)", "seconds": seconds, "input_terms": n_in, "output_terms": lines_terms(form_text(d.value), ": ")})
    seconds, d = _timed(lambda: vj.formal_exterior_differential_direct(phi))
    rows.append({"row": "fed direct route, quartic 1-form", "seconds": seconds, "input_terms": n_in, "output_terms": lines_terms(form_text(d.value), ": ")})
    seconds, dd = _timed(lambda: vj.formal_exterior_differential(vj.formal_exterior_differential(phi)))
    if not dd.value.is_zero:
        raise SystemExit("fed∘fed of the quartic 1-form is not zero")
    rows.append({"row": "fed∘fed, quartic 1-form (result 0)", "seconds": seconds, "input_terms": n_in, "output_terms": lines_terms(form_text(d.value), ": ")})
    return rows


def oracle_rows() -> list[dict]:
    b = vj.BundleSpec(("x", "y"), ("u",))
    ux = b.jet("u", vj.MultiIndex(b.base, (1, 0)))
    uy = b.jet("u", vj.MultiIndex(b.base, (0, 1)))
    lag = vj.Lagrangian(b, vj.Form(2, b.base, {(1, 2): Fraction(1, 2) * (ux**2 + uy**2)}))
    bounds, shape = ((0.0, 1.0),) * 2, (400, 400)
    section = vj.sample_section(b, bounds, shape, {"u": lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)})
    bx = vj.bump(0.0, 1.0)
    eta = vj.sample_section(b, bounds, shape, {"u": lambda x, y: bx(x) * bx(y)})
    seconds, (_, _, err) = _timed(lambda: vj.check_action_variation(lag, section, eta))
    if err > 1e-3:
        raise SystemExit(f"2-D oracle relative error {err:.3e} above 1e-3")
    return [{"row": "check_action_variation, Dirichlet on 400^2", "seconds": seconds, "input_terms": 2, "output_terms": 2}]


def main() -> int:
    rows = prolongation_rows() + quartic_rows() + oracle_rows()
    for r in rows:
        r["us_per_output_term"] = r["seconds"] * 1e6 / max(r["output_terms"], 1)
        print(f"{r['row']:48s} {r['seconds'] * 1e3:10.1f} ms  in {r['input_terms']:5d}  out {r['output_terms']:7d}  {r['us_per_output_term']:9.2f} us/term")
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.OUT, "scaling.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": run.metadata(), "reps": REPS, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
