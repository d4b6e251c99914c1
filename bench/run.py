"""Benchmark runner for varjet.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from anywhere inside a checkout; the runner works from the checkout root.
With ``--trace 0`` it times a closed loop of tasks (one client, no worker
pool) for ``--seconds`` seconds and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of tasks under the per-layer tracer,
then the same tasks untraced, and reports the per-layer metrics.  End-to-end
times are scaled by an in-run calibration kernel (see CALIBRATION_REF_MS).
Every task verdict is checked, and Euler-Lagrange outputs are compared
against sympy outside the timed region.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a results file
lands in ``bench/out/``.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOAD_NAMES = ("dense_pipeline", "property_suite", "oracle_grid")
SETUP_RUNS = 3  # fresh interpreters per run; setup_s is their median

# Shared machines drift in speed by tens of percent between spells that last
# minutes, more than the changes this benchmark must resolve.  A fixed kernel
# that does not touch varjet runs between tasks about every CALIBRATE_EVERY
# seconds, and every reported time is scaled by
# (CALIBRATION_REF_MS / run's median kernel time) ** CALIBRATION_EXPONENT.
# The kernel slows more than the program does in a slow spell: over eighteen
# runs per workload, an exponent of 0.75 gave the smallest worst spread (1
# over-corrected, 0 left the drift in).  Raw times are reported too.
CALIBRATION_REF_MS = 5.0
CALIBRATION_EXPONENT = 0.75
CALIBRATE_EVERY = 0.2

END_TO_END = (
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("us_per_output_term", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _per_layer() -> list:
    """(metric, unit, fn(tracer, traced task seconds, overhead ratio))."""
    rows = []

    def calls(layer):
        rows.append((f"{layer}.calls", "count", lambda t, busy, ov: t.layer(layer).calls))

    def self_s(layer):
        rows.append((f"{layer}.self_s", "s", lambda t, busy, ov: t.layer(layer).self_s))

    for layer in ("expr.mul", "expr.add", "expr.diff", "expr.substitute", "expr.eq", "expr.evaluate", "expr.atoms"):
        calls(layer)
        self_s(layer)
    self_s("expr.str")
    calls("bundle.jet_atom")
    for layer in ("jetcalc.validate_expression", "jetcalc.total_derivative"):
        calls(layer)
        self_s(layer)
    rows.append(("jetcalc.total_derivative.terms_out", "count", lambda t, busy, ov: t.layer("jetcalc.total_derivative").extra))
    for layer in (
        "jetcalc.holonomic_prolongation",
        "jetcalc.formal_exterior_differential",
        "jetcalc.formal_exterior_differential_direct",
        "jetcalc.check_naturality",
        "forms.wedge",
        "forms.wedge_basis_left",
        "forms.interior_product",
        "forms.map_coeffs",
        "variational.euler_lagrange",
        "variational.vertical_differential",
        "variational.momentum_divergence",
        "fiberwise.fiberwise_jet",
        "fiberwise.check_operator_order",
        "fiberwise.check_functional_commutation",
    ):
        self_s(layer)
    for layer in ("eval_jet_grid", "eval_jet", "check_total_derivative", "check_action_variation", "sample_section"):
        calls(f"oracle.{layer}")
        self_s(f"oracle.{layer}")
    rows.append(("oracle.grid_points", "count", lambda t, busy, ov: t.layer("oracle.sample_section").extra))
    rows.append(
        (
            "specfile.load.self_s",
            "s",
            lambda t, busy, ov: t.layer("specfile.load_specfile").self_s + t.layer("specfile.load_specfile_path").self_s,
        )
    )
    calls("parser.parse_expression")
    self_s("cli.main")
    for module in ("expr", "bundle", "multiindex", "forms", "jetcalc", "variational", "fiberwise", "oracle", "parser", "specfile", "render", "randgen", "checks", "cli"):
        rows.append((f"{module}.self_s", "s", lambda t, busy, ov, m=module: t.module_self_s(m)))
    rows.append(("bench.self_s", "s", lambda t, busy, ov: busy - t.total_self_s()))
    kernel = ("expr", "jetcalc", "variational", "forms")
    rows.append(("self_share.kernel", "ratio", lambda t, busy, ov: sum(t.module_self_s(m) for m in kernel) / busy))
    rows.append(
        ("self_share.numeric", "ratio", lambda t, busy, ov: (t.module_self_s("oracle") + t.layer("expr.evaluate").self_s) / busy)
    )
    rows.append(("trace.overhead_ratio", "ratio", lambda t, busy, ov: ov))
    return rows


PER_LAYER = _per_layer()


# -- machine-speed calibration ----------------------------------------------------


class Calibration:
    """Timings of a fixed kernel with the program's operation mix: a sparse
    polynomial product on tuple monomials with Fraction coefficients, then a
    numpy stencil on a 301x301 grid."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._grid = np.linspace(0.0, 1.0, 301 * 301).reshape(301, 301)
        self._poly = {(i % 7, i % 5, i % 3): Fraction(i % 4 + 1, 3) for i in range(25)}
        self.samples: list[float] = []

    def _kernel(self) -> float:
        out: dict = {}
        for m1, c1 in self._poly.items():
            for m2, c2 in self._poly.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        np, g = self._np, self._grid
        b = np.sin(g) * g + np.cos(g) ** 2
        return len(sorted(out.items())) + float((b[2:, :] - b[:-2, :]).sum())

    def sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    @property
    def ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    @property
    def scale(self) -> float:
        """Factor that takes a time measured here to the reference machine."""
        return _scale(self.ms)


def _scale(kernel_ms: float) -> float:
    return (CALIBRATION_REF_MS / kernel_ms) ** CALIBRATION_EXPONENT


# -- run bookkeeping -------------------------------------------------------------


class Ledger:
    """Verdicts, latencies and exact work counters of one pass over tasks."""

    def __init__(self, workload):
        self.wl = workload
        self.latencies: list[float] = []
        self.kinds: dict = defaultdict(list)
        self.failures: dict[int, str] = {}
        self.extra_failures: list[str] = []
        self.in_terms = 0
        self.out_terms = 0
        self.pending: list[int] = []
        self.prefix: list[str] = []  # output-text hashes of the certified prefix
        self.kept: dict[int, str] = {}

    def run(self, i: int) -> None:
        task = self.wl.task(i)
        t0 = perf_counter()
        try:
            outcome = task.run()
        except Exception as exc:  # a raising task is a failed task; the run goes on
            outcome = None
            detail = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.latencies.append(dt)
        self.kinds[task.kind].append(dt)
        self.in_terms += task.in_terms
        if outcome is None:
            self.failures[i] = detail[:300]
            text = f"raised {detail[:300]}"
        else:
            text = outcome.text
            if not outcome.ok:
                self.failures[i] = f"{task.kind}: {outcome.detail}"[:300]
            if outcome.terms is None:
                self.pending.append(i)
            else:
                self.out_terms += outcome.terms
        if i < self.wl.certify:
            self.prefix.append(hashlib.sha256(text.encode()).hexdigest())
        if self.wl.keeps(i) and outcome is not None:
            self.kept[i] = text

    def settle(self) -> None:
        """Count the output terms that tasks left to after the timed loop."""
        for i in self.pending:
            self.out_terms += self.wl.fill_terms(i)
        self.pending.clear()

    def check_reference(self) -> None:
        ran = len(self.latencies)
        for i, problem in self.wl.reference(ran, self.kept):
            if i is None or i >= ran:
                self.extra_failures.append(problem[:300])
            else:
                self.failures.setdefault(i, problem[:300])

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.extra_failures)

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.extra_failures)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.prefix).encode()).hexdigest()


TAIL_LADDER_PERMILLE = (999, 990, 900)  # p99.9, p99, p90


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond it,
    and that percentile.

    Percentiles come from the ladder p90, p99, p99.9, so a run's tail is not
    its 11th largest sample among thousands of heavy-tailed ones.  Below 100
    samples, where p90 has fewer than 10 beyond it, the percentile is
    100 (n - 10) / n: the 11th largest sample.
    """
    s = sorted(latencies)
    n = len(s)
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-n * permille // 1000)  # nearest rank, ceil(n p)
        if n - rank >= 10:
            return s[rank - 1], permille / 10
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_probe(args) -> tuple[float, float]:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    seconds, cal_ms = proc.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(cal_ms)


def metadata() -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "varjet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "platform": platform.platform(),
    }


# -- the two kinds of run ----------------------------------------------------------


def timed_run(wl, args, varjet, tracing) -> tuple[dict, Ledger, dict]:
    ledger = Ledger(wl)
    cal = Calibration()
    cal.sample()
    start = perf_counter()
    deadline = start + args.seconds
    next_cal = start
    cal_s = 0.0
    i = 0
    while perf_counter() < deadline:
        ledger.run(i)
        i += 1
        if perf_counter() >= next_cal:
            cal_s += cal.sample()
            next_cal = perf_counter() + CALIBRATE_EVERY
    wall = perf_counter() - start - cal_s
    peak = _peak_rss_mb()
    ledger.settle()

    # Work counters: the certified prefix again, under the counting tracer.
    tracer = tracing.Tracer(varjet)
    check = Ledger(wl)
    tracer.install()
    try:
        for j in range(wl.certify):
            check.run(j)
    finally:
        tracer.uninstall()
    check.settle()
    shared = min(len(ledger.prefix), len(check.prefix))
    if ledger.prefix[:shared] != check.prefix[:shared]:
        ledger.extra_failures.append("outputs differ between two passes over the same tasks")
    work = {
        "tasks": wl.certify,
        "input_terms": check.in_terms,
        "output_terms": check.out_terms,
        "total_derivative_calls": tracer.layer("jetcalc.total_derivative").calls,
        "diff_calls": tracer.layer("expr.diff").calls,
        "output_digest": check.digest(),
    }
    ledger.check_reference()

    lat = ledger.latencies
    tail, pct = _tail(lat)
    busy = sum(lat)
    raw = {
        "task_p50_ms": statistics.median(lat) * 1e3,
        "task_tail_ms": tail * 1e3,
        "tasks_per_s": len(lat) / wall,
        "us_per_output_term": busy * 1e6 / max(ledger.out_terms, 1),
    }
    scale = cal.scale
    metrics = {name: value / scale if name == "tasks_per_s" else value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak
    info = {
        "wall_s": wall,
        "busy_s": busy,
        "tail_percentile": pct,
        "samples": len(lat),
        "calibration_ms": cal.ms,
        "calibration_samples": len(cal.samples),
        "raw": raw,
        "work": work,
    }
    return metrics, ledger, info


def traced_run(wl, args, varjet, tracing) -> tuple[dict, Ledger, dict]:
    n = wl.certify if args.quick else max(wl.certify, round(wl.trace_rate * args.seconds))
    tracer = tracing.Tracer(varjet)
    ledger = Ledger(wl)
    tracer.install()
    try:
        start = perf_counter()
        for i in range(n):
            tracer.task = i
            ledger.run(i)
        traced_wall = perf_counter() - start
    finally:
        tracer.uninstall()
    plain = Ledger(wl)
    start = perf_counter()
    for i in range(n):
        plain.run(i)
    plain_wall = perf_counter() - start
    for i, problem in plain.failures.items():
        ledger.failures.setdefault(i, problem)
    ledger.settle()
    ledger.check_reference()

    busy = sum(ledger.latencies)
    overhead = traced_wall / plain_wall
    metrics = {name: fn(tracer, busy, overhead) for name, _, fn in PER_LAYER}
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.write_spans(spans_path)
    work = {
        "tasks": n,
        "input_terms": ledger.in_terms,
        "output_terms": ledger.out_terms,
        "total_derivative_calls": tracer.layer("jetcalc.total_derivative").calls,
        "diff_calls": tracer.layer("expr.diff").calls,
        "output_digest": ledger.digest(),
    }
    info = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall, "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT), "work": work}
    return metrics, ledger, info


# -- entry point ---------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="varjet benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs and short passes, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/varjet/__init__.py", "specs") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run inside a varjet checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        t0 = perf_counter()
        import workloads

        workloads.make(args.workload, args.seed, args.quick)
        seconds = perf_counter() - t0
        cal = Calibration()
        for _ in range(9):
            cal.sample()
        print(repr(seconds), repr(cal.ms))
        return 0

    meta = metadata()
    setup = [] if args.trace else [_setup_probe(args) for _ in range(1 if args.quick else SETUP_RUNS)]

    import varjet

    import tracer
    import workloads

    wl = workloads.make(args.workload, args.seed, args.quick)
    for i in range(-wl.warmup, 0):
        Ledger(wl).run(i)
    # Set-up objects live for the whole run; keep the collector from
    # rescanning them during the timed passes.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, ledger, info = traced_run(wl, args, varjet, tracer)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, ledger, info = timed_run(wl, args, varjet, tracer)
        metrics["setup_s"] = statistics.median(sec * _scale(ms) for sec, ms in setup)
        info["setup_samples"] = [{"seconds": sec, "calibration_ms": ms} for sec, ms in setup]
        info["raw"]["setup_s"] = statistics.median(sec for sec, _ in setup)
        units = dict(END_TO_END)

    failed_ratio = ledger.failed / ledger.attempted
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name} = {_fmt(metrics[name])} {unit}")
    if not args.trace:
        print(f"  task_tail_ms is p{info['tail_percentile']:.2f} of {info['samples']} samples")
        print(f"  setup_s is the median of {len(setup)} fresh interpreters")
        print(
            f"  times are scaled by ({CALIBRATION_REF_MS} ms / kernel time)^{CALIBRATION_EXPONENT}; the kernel took {info['calibration_ms']:.4f} ms here"
            f" ({info['calibration_samples']} samples); raw: " + "  ".join(f"{k}={_fmt(v)}" for k, v in info["raw"].items())
        )
    else:
        print(f"  traced {info['work']['tasks']} tasks in {info['traced_wall_s']:.3f} s, untraced {info['untraced_wall_s']:.3f} s; spans in {info['spans_file']}")
    print(f"  failed_ratio = {failed_ratio:.6g} ({ledger.failed} of {ledger.attempted})")
    for i, problem in sorted(ledger.failures.items())[:10]:
        print(f"  failed task {i}: {problem}")
    for problem in ledger.extra_failures[:10]:
        print(f"  failed: {problem}")
    work = info["work"]
    print("  work " + "  ".join(f"{k}={v}" for k, v in work.items()))
    print("  meta " + "  ".join(f"{k}={v}" for k, v in meta.items()))

    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "meta": meta,
        "metrics": reported,
        "failed_ratio": failed_ratio,
        "failures": [{"task": i, "problem": p} for i, p in sorted(ledger.failures.items())] + [{"task": None, "problem": p} for p in ledger.extra_failures],
        "kind_median_ms": {k: statistics.median(v) * 1e3 for k, v in sorted(ledger.kinds.items())},
        "notes": wl.notes(),
        **info,
    }
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
