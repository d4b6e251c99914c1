"""Command-line driver.

Usage: ``varjet <command> [flags] <specfile...> [flags]`` with commands

* ``el``       Euler-Lagrange components and projectability report
* ``fed``      formal exterior differential of a named morphism
* ``fjet``     fiberwise (k, r)-jet table of a base-preserving morphism
* ``natural``  prolongation/vertical-field commutation check
* ``commute``  section-evaluation commutation check
* ``oracle``   finite-difference validation of the symbolic results
* ``check``    full randomized property suite (plus any file tasks)

Results go to stdout, diagnostics to stderr.  Exit code 0 on success, 1 on
usage, parse or validation errors, 2 on a failed mathematical check.
"""

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from functools import cache

from .bundle import CoordinateError, OrderError
from .fiberwise import check_functional_commutation, fiberwise_jet
from .forms import Form
from .jetcalc import check_naturality, formal_exterior_differential
from .parser import ParseError
from .render import expr_latex, form_json, form_latex, form_text
from .specfile import TASK_KINDS, SpecFile, Task, load_specfile_path
from .variational import ProjectabilityError, euler_lagrange

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # A usage error ends like any other input error: one line, exit 1.
        raise ValueError(message)


@cache
def _build_argparser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    ap = _ArgumentParser(prog="varjet", description="variational calculus on jet bundles")
    ap.add_argument("command", choices=TASK_KINDS)
    ap.add_argument("paths", nargs="*", default=[], help="declaration files")
    notation = ap.add_mutually_exclusive_group()
    notation.add_argument("--latex", action="store_true", help="render results as LaTeX")
    notation.add_argument("--json", action="store_true", help="render results as JSON")
    ap.add_argument("--seed", type=int, default=0, help="seed for randomized property checks")
    ap.add_argument("--tolerance", type=float, default=None, help="override the numeric tolerances")
    ap.add_argument("--grid", type=int, default=None, help="grid points per axis for the numeric checks")
    # The text ``parse_intermixed_args`` would format on every call.
    ap.usage = ap.format_usage()[len("usage: ") :]
    return ap


# -- runners: compute one task, return its payload ------------------------------


def run_el(task: Task, args, lag) -> dict:
    result = euler_lagrange(lag)
    return {
        "command": "el",
        "name": task.names[0],
        "classical": lag.is_classical,
        "passed": result.is_projectable,
        "components": [
            {"fiber": fiber, "basis": list(key), "expr": component}
            for (fiber, key), component in sorted(result.components.items())
        ],
    }


def run_fed(task: Task, args, morphism) -> dict:
    image = formal_exterior_differential(morphism)
    return {
        "command": "fed",
        "name": task.names[0],
        "orders": {"r": image.r, "s": image.s},
        "degree": image.degree,
        "passed": True,
        "value": image.value,
    }


def run_fjet(task: Task, args, f) -> dict:
    k, r = task.options["k"], task.options["r"]
    table = fiberwise_jet(f, k, r)
    ordered = sorted(table.items(), key=lambda t: (t[0].target, t[0].beta.sort_key(), t[0].gamma.sort_key()))
    return {
        "command": "fjet",
        "name": task.names[0],
        "k": k,
        "r": r,
        "passed": True,
        "entries": [{"coordinate": c.label(), "expr": v} for c, v in ordered],
    }


def run_natural(task: Task, args, morphism, field) -> dict:
    k = task.options["k"]
    report = check_naturality(morphism, field, k)
    payload = {"command": "natural", "morphism": task.names[0], "field": task.names[1], "k": k, "passed": report.holds}
    if not report.holds:
        beta, key, lhs, rhs = report.witness
        payload["witness"] = {"beta": str(beta), "basis": key, "lhs": lhs, "rhs": rhs}
    return payload


def run_commute(task: Task, args, morphism, section, variation) -> dict:
    morphism_name, section_name, variation_name = task.names
    return {
        "command": "commute",
        "morphism": morphism_name,
        "section": section_name,
        "variation": variation_name,
        "passed": check_functional_commutation(morphism, section, variation),
    }


def run_oracle(task: Task, args, lag) -> dict:
    from . import oracle  # numpy loads only for the numeric commands

    m = lag.bundle.m
    if m not in oracle.DEFAULTS:
        raise ParseError("the numeric oracle supports base dimension 1 and 2", task.line or 1, 1)
    grid, tolerance = oracle.settings(m, task.options["grid"] if args.grid is None else args.grid, args.tolerance)
    rows = oracle.validate(lag, grid)
    return {
        "command": "oracle",
        "name": task.names[0],
        "grid": grid,
        "tolerance": tolerance,
        "passed": all(row["error"] <= tolerance for row in rows),
        "results": rows,
    }


_RUNNERS = {
    "el": run_el,
    "fed": run_fed,
    "fjet": run_fjet,
    "natural": run_natural,
    "commute": run_commute,
    "oracle": run_oracle,
}


def run_task(spec: SpecFile, task: Task, args) -> dict:
    return _RUNNERS[task.command](task, args, *spec.operands(task))


@contextmanager
def _in_file(path: str, named: bool):
    """Name ``path`` in a parse error raised inside, when ``named`` (a run
    over several files): ``b.vspec:6:1: ...`` in place of ``6:1: ...``."""
    try:
        yield
    except ParseError as exc:
        if not named:
            raise
        raise ValueError(f"{path}:{exc}") from None


def run_check(specs: list[tuple[str, SpecFile]], args) -> dict:
    from . import oracle
    from .checks import run_all

    grids = {m: oracle.settings(m, args.grid, args.tolerance) for m in oracle.DEFAULTS}
    rows = []
    for path, spec in specs:
        with _in_file(path, len(specs) > 1):
            rows += [
                (f"{path}: {task.command} {' '.join(task.names)}", bool(run_task(spec, task, args)["passed"]), "")
                for task in spec.tasks
                if task.command != "check"
            ]
    rows += [(r.name, r.passed, r.detail) for r in run_all(args.seed, grids)]
    return {
        "command": "check",
        "seed": args.seed,
        "passed": all(p for _, p, _ in rows),
        "results": [{"name": n, "passed": p, "detail": d} for n, p, d in rows],
    }


# -- rendering -------------------------------------------------------------------


def _lines(p: dict, expr_fn, form_fn) -> list[str]:
    """The text lines of one payload; ``expr_fn`` and ``form_fn`` render its
    expressions and forms (plain text or LaTeX)."""
    command = p["command"]
    if command == "el":
        lines = []
        for c in p["components"]:
            basis = "" if p["classical"] else f"[{','.join(map(str, c['basis']))}]"
            lines.append(f"E_{c['fiber']}{basis} = {expr_fn(c['expr'])}")
        return lines + ["projectability: ok (first-order vertical residuals cancel)"]
    if command == "fed":
        s = "none" if p["orders"]["s"] is None else p["orders"]["s"]
        return [f"D{p['name']} = {form_fn(p['value'])}", f"orders: r={p['orders']['r']} s={s} degree={p['degree']}"]
    if command == "fjet":
        return [f"{e['coordinate']} = {expr_fn(e['expr'])}" for e in p["entries"]]
    if command == "natural":
        lines = [f"naturality k={p['k']}: {'holds' if p['passed'] else 'FAILED'}"]
        if "witness" in p:
            w = p["witness"]
            lines.append(f"witness: beta={w['beta']} basis={w['basis']}: {w['lhs']}  vs  {w['rhs']}")
        return lines
    if command == "commute":
        return [f"section-evaluation commutation: {'holds' if p['passed'] else 'FAILED'}"]
    if command == "oracle":
        lines = [
            f"total derivative on dx{row['basis']}: max relative error {row['error']:.3e}"
            if row["check"] == "total_derivative"
            else f"action variation: derivative {row['lhs']:.6e}  pairing {row['rhs']:.6e}  "
            f"relative error {row['error']:.3e}"
            for row in p["results"]
        ]
        return lines + [f"oracle: {'ok' if p['passed'] else 'FAILED'} (tolerance {p['tolerance']:.1e})"]
    rows = p["results"]
    width = max(len(r["name"]) for r in rows)
    lines = [f"{r['name']:<{width}}  {'PASS' if r['passed'] else 'FAIL'}  {r['detail']}" for r in rows]
    return lines + [f"summary: {sum(r['passed'] for r in rows)}/{len(rows)} properties passed"]


def _json_value(value):
    return form_json(value) if isinstance(value, Form) else str(value)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # A library warning is one diagnostic line, like an error, printed when raised.
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return _main(argv)


def _main(argv) -> int:
    payloads = []
    try:
        args = _build_argparser().parse_intermixed_args(argv)
        expr_fn, form_fn = (expr_latex, form_latex) if args.latex else (str, form_text)

        def emit(payload: dict) -> None:
            payloads.append(payload)
            if not args.json:
                for line in _lines(payload, expr_fn, form_fn):
                    print(line)

        named = len(args.paths) > 1
        specs = []
        for path in args.paths:
            with _in_file(path, named):
                specs.append((path, load_specfile_path(path)))
        if args.command == "check":
            emit(run_check(specs, args))
        elif not specs:
            print("error: this command needs at least one declaration file", file=sys.stderr)
            return 1
        else:
            for path, spec in specs:
                tasks = [t for t in spec.tasks if t.command == args.command]
                try:  # a file with no line for the command runs its default task
                    tasks = tasks or [spec.default_task(args.command)]
                except LookupError as exc:  # which has no line to point at
                    raise ValueError(f"{path}: {exc}") from None
                with _in_file(path, named):
                    for task in tasks:
                        emit(run_task(spec, task, args))
    except ProjectabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, CoordinateError, OrderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payloads if len(payloads) != 1 else payloads[0], indent=2, default=_json_value))
    if not all(p["passed"] for p in payloads):
        print("error: a mathematical check failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
