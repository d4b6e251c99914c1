"""Command-line driver.

Usage: ``varjet <command> <specfile...> [flags]`` with commands

* ``el``       Euler-Lagrange components and projectability report
* ``fed``      formal exterior differential of a named morphism
* ``fjet``     fiberwise (k, r)-jet table of a base-preserving morphism
* ``natural``  prolongation/vertical-field commutation check
* ``commute``  section-evaluation commutation check
* ``oracle``   finite-difference validation of the symbolic results
* ``check``    full randomized property suite (plus any file tasks)

Results go to stdout, diagnostics to stderr.  Exit code 0 on success, 1 on
parse or validation errors, 2 on a failed mathematical check.
"""

import argparse
import json
import sys

import numpy as np

from .bundle import CoordinateError, OrderError
from .checks import run_all
from .expr import Expr
from .fiberwise import check_functional_commutation, fiberwise_jet
from .jetcalc import check_naturality, formal_exterior_differential
from .oracle import bump, check_action_variation, check_total_derivative, sample_section
from .parser import ParseError
from .render import expr_latex, form_json, form_latex, form_text
from .specfile import SpecFile, Task, load_specfile_path
from .variational import ProjectabilityError, euler_lagrange

_COMMANDS = ("el", "fed", "fjet", "natural", "commute", "oracle", "check")


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="varjet", description="variational calculus on jet bundles")
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("paths", nargs="*", help="declaration files")
    ap.add_argument("--latex", action="store_true", help="render results as LaTeX")
    ap.add_argument("--json", action="store_true", help="render results as JSON")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized property checks")
    ap.add_argument("--tolerance", type=float, default=None, help="override the numeric tolerances")
    ap.add_argument("--grid", type=int, default=None, help="grid points per axis for the numeric checks")
    return ap


def _render_expr(e: Expr, args) -> str:
    return expr_latex(e) if args.latex else str(e)


def _component_label(fiber: str, key: tuple[int, ...], top: bool) -> str:
    if top:
        return f"E_{fiber}"
    return f"E_{fiber}[{','.join(map(str, key))}]"


def _default_tasks(command: str, spec: SpecFile) -> list[Task]:
    if command == "el" or command == "oracle":
        return [Task(command, (spec.only("lagrangian").name,), {}, 0)]
    if command == "fed":
        return [Task(command, (spec.only("morphism").name,), {}, 0)]
    if command == "fjet":
        return [Task(command, (spec.only("basemorphism").name,), {}, 0)]
    if command == "natural":
        return [Task(command, (spec.only("morphism").name, spec.only("vertical").name), {}, 0)]
    if command == "commute":
        return [
            Task(
                command,
                (spec.only("morphism").name, spec.only("section").name, spec.only("variation").name),
                {},
                0,
            )
        ]
    raise AssertionError(command)


def _require_names(task: Task, count: int) -> tuple[str, ...]:
    if len(task.names) != count:
        raise ParseError(
            f"task {task.command!r} needs {count} name(s), got {len(task.names)}", task.line or 1, 1
        )
    return task.names


def run_el(spec: SpecFile, task: Task, args, out) -> dict:
    (name,) = _require_names(task, 1)
    lag = spec.find("lagrangian", name).obj
    result = euler_lagrange(lag)
    top = lag.is_classical
    payload = {
        "command": "el",
        "name": name,
        "classical": top,
        "passed": result.is_projectable,
        "components": [],
    }
    for (fiber, key), component in sorted(result.components.items()):
        label = _component_label(fiber, key, top)
        payload["components"].append({"fiber": fiber, "basis": list(key), "expr": str(component)})
        if not args.json:
            print(f"{label} = {_render_expr(component, args)}", file=out)
    if not args.json:
        print("projectability: ok (first-order vertical residuals cancel)", file=out)
    return payload


def run_fed(spec: SpecFile, task: Task, args, out) -> dict:
    (name,) = _require_names(task, 1)
    morphism = spec.find("morphism", name).obj
    image = formal_exterior_differential(morphism)
    payload = {
        "command": "fed",
        "name": name,
        "orders": {"r": image.r, "s": image.s},
        "degree": image.degree,
        "passed": True,
        "value": form_json(image.value),
    }
    if not args.json:
        rendered = form_latex(image.value) if args.latex else form_text(image.value)
        s_text = "none" if image.s is None else str(image.s)
        print(f"D{name} = {rendered}", file=out)
        print(f"orders: r={image.r} s={s_text} degree={image.degree}", file=out)
    return payload


def run_fjet(spec: SpecFile, task: Task, args, out) -> dict:
    (name,) = _require_names(task, 1)
    f = spec.find("basemorphism", name).obj
    k = task.options.get("k", 1)
    r = task.options.get("r", 1)
    table = fiberwise_jet(f, k, r)
    ordered = sorted(table.items(), key=lambda t: (t[0].target, t[0].beta.sort_key(), t[0].gamma.sort_key()))
    payload = {
        "command": "fjet",
        "name": name,
        "k": k,
        "r": r,
        "passed": True,
        "entries": [{"coordinate": c.label(), "expr": str(v)} for c, v in ordered],
    }
    if not args.json:
        for c, v in ordered:
            print(f"{c.label()} = {_render_expr(v, args)}", file=out)
    return payload


def run_natural(spec: SpecFile, task: Task, args, out) -> dict:
    morphism_name, field_name = _require_names(task, 2)
    morphism = spec.find("morphism", morphism_name).obj
    field = spec.find("vertical", field_name).obj
    k = task.options.get("k", 1)
    report = check_naturality(morphism, field, k)
    payload = {
        "command": "natural",
        "morphism": morphism_name,
        "field": field_name,
        "k": k,
        "passed": report.holds,
    }
    if not args.json:
        print(f"naturality k={k}: {'holds' if report.holds else 'FAILED'}", file=out)
        if not report.holds:
            beta, key, lhs, rhs = report.witness
            print(f"witness: beta={beta} basis={key}: {lhs}  vs  {rhs}", file=out)
    return payload


def run_commute(spec: SpecFile, task: Task, args, out) -> dict:
    morphism_name, section_name, variation_name = _require_names(task, 3)
    morphism = spec.find("morphism", morphism_name).obj
    section = spec.find("section", section_name).obj
    variation = spec.find("variation", variation_name).obj
    holds = check_functional_commutation(morphism, section, variation)
    payload = {
        "command": "commute",
        "morphism": morphism_name,
        "section": section_name,
        "variation": variation_name,
        "passed": holds,
    }
    if not args.json:
        print(f"section-evaluation commutation: {'holds' if holds else 'FAILED'}", file=out)
    return payload


def _default_section_functions(bundle):
    if bundle.m == 1:
        return {p: (lambda x, j=j: np.sin((j + 1) * np.pi * x)) for j, p in enumerate(bundle.fiber)}
    return {
        p: (lambda x, y, j=j: np.sin((j + 1) * np.pi * x) * np.sin(np.pi * y)) for j, p in enumerate(bundle.fiber)
    }


def run_oracle(spec: SpecFile, task: Task, args, out) -> dict:
    (name,) = _require_names(task, 1)
    lag = spec.find("lagrangian", name).obj
    bundle = lag.bundle
    if bundle.m not in (1, 2):
        raise ParseError("the numeric oracle supports base dimension 1 and 2", task.line or 1, 1)
    grid = args.grid or task.options.get("grid") or (2000 if bundle.m == 1 else 200)
    tolerance = args.tolerance if args.tolerance is not None else (1e-4 if bundle.m == 1 else 1e-3)
    bounds = ((0.0, 1.0),) * bundle.m
    shape = (grid,) * bundle.m
    section = sample_section(bundle, bounds, shape, _default_section_functions(bundle))
    bumps = [bump(0.0, 1.0) for _ in range(bundle.m)]

    def eta_fn(*coords):
        total = 1.0
        for fn, c in zip(bumps, coords):
            total = total * fn(c)
        return total

    eta = sample_section(bundle, bounds, shape, {p: eta_fn for p in bundle.fiber})
    rows = []
    worst = 0.0
    for key, density in lag.value.items():
        err = check_total_derivative(density, section)
        worst = max(worst, err)
        rows.append({"check": "total_derivative", "basis": list(key), "error": err})
    if lag.is_classical:
        lhs, rhs, err = check_action_variation(lag, section, eta)
        worst = max(worst, err)
        rows.append({"check": "action_variation", "lhs": lhs, "rhs": rhs, "error": err})
    passed = worst <= tolerance
    payload = {
        "command": "oracle",
        "name": name,
        "grid": grid,
        "tolerance": tolerance,
        "passed": passed,
        "results": rows,
    }
    if not args.json:
        for row in rows:
            if row["check"] == "total_derivative":
                print(f"total derivative on dx{row['basis']}: max relative error {row['error']:.3e}", file=out)
            else:
                print(
                    f"action variation: derivative {row['lhs']:.6e}  pairing {row['rhs']:.6e}  "
                    f"relative error {row['error']:.3e}",
                    file=out,
                )
        print(f"oracle: {'ok' if passed else 'FAILED'} (tolerance {tolerance:.1e})", file=out)
    return payload


_RUNNERS = {
    "el": run_el,
    "fed": run_fed,
    "fjet": run_fjet,
    "natural": run_natural,
    "commute": run_commute,
    "oracle": run_oracle,
}


class _Silent:
    def write(self, *_):
        pass


def run_check(specs: list[tuple[str, SpecFile]], args, out) -> dict:
    rows = []
    for path, spec in specs:
        for task in spec.tasks:
            if task.command == "check":
                continue
            payload = _RUNNERS[task.command](spec, task, _SilentArgs(args), _Silent())
            rows.append((f"{path}: {task.command} {' '.join(task.names)}", bool(payload["passed"]), ""))
    grid_1d = args.grid or 2000
    grid_2d = args.grid or 200
    tol_1d = args.tolerance if args.tolerance is not None else 1e-4
    tol_2d = args.tolerance if args.tolerance is not None else 1e-3
    for r in run_all(seed=args.seed, grid_1d=grid_1d, grid_2d=grid_2d, tol_1d=tol_1d, tol_2d=tol_2d):
        rows.append((r.name, r.passed, r.detail))
    passed = all(p for _, p, _ in rows)
    payload = {
        "command": "check",
        "seed": args.seed,
        "passed": passed,
        "results": [{"name": n, "passed": p, "detail": d} for n, p, d in rows],
    }
    if not args.json:
        width = max(len(n) for n, _, _ in rows)
        for n, p, d in rows:
            print(f"{n:<{width}}  {'PASS' if p else 'FAIL'}  {d}", file=out)
        print(f"summary: {sum(1 for _, p, _ in rows if p)}/{len(rows)} properties passed", file=out)
    return payload


class _SilentArgs:
    """Clone of the parsed flags with text output switched off."""

    def __init__(self, args):
        self.__dict__.update(vars(args))
        self.json = True


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    out = sys.stdout
    payloads = []
    try:
        specs = [(path, load_specfile_path(path)) for path in args.paths]
        if args.command == "check":
            payloads.append(run_check(specs, args, out))
        else:
            if not specs:
                print("error: this command needs at least one declaration file", file=sys.stderr)
                return 1
            for path, spec in specs:
                tasks = [t for t in spec.tasks if t.command == args.command] or _default_tasks(args.command, spec)
                for task in tasks:
                    payloads.append(_RUNNERS[args.command](spec, task, args, out))
    except ProjectabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, CoordinateError, OrderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payloads if len(payloads) != 1 else payloads[0], indent=2), file=out)
    failed = [p for p in payloads if not p.get("passed", True)]
    if failed:
        print("error: a mathematical check failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
