"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer wraps the public entry points of every ``varjet`` module (and a
few hot ``Expr``/``Form`` methods) by rebinding the names where callers look
them up: module globals, the package namespace and class attributes.  The
source of ``varjet`` is not changed, and ``uninstall`` restores every
original binding.

Each wrapped call measures its duration and subtracts the time covered by
wrapped calls made inside it, which gives self time.  Calls of the
high-frequency kernel layers (``expr``, ``bundle``, ``multiindex`` and
``validate_expression``) are only counted and timed in aggregate; every other
call also records a span ``[id, parent, task, name, start, end]`` in memory,
written out once by :meth:`Tracer.write_spans`.
"""

import inspect
import json
import math
from time import perf_counter

MODULES = (
    "multiindex",
    "expr",
    "bundle",
    "forms",
    "jetcalc",
    "variational",
    "fiberwise",
    "oracle",
    "parser",
    "specfile",
    "render",
    "randgen",
    "checks",
    "cli",
)

# Layers counted without a span each: they run millions of times on wide
# expressions, and a span per call would dominate the trace.
AGGREGATE_MODULES = frozenset({"expr", "bundle", "multiindex"})
AGGREGATE_LAYERS = frozenset({"jetcalc.validate_expression"})

# Methods wrapped in addition to module-level functions: (module, class,
# attribute, layer name).
METHODS = (
    ("expr", "Expr", "__add__", "expr.add"),
    ("expr", "Expr", "__radd__", "expr.add"),
    ("expr", "Expr", "__mul__", "expr.mul"),
    ("expr", "Expr", "__rmul__", "expr.mul"),
    ("expr", "Expr", "__eq__", "expr.eq"),
    ("expr", "Expr", "atoms", "expr.atoms"),
    ("expr", "Expr", "__str__", "expr.str"),
    ("forms", "Form", "map_coeffs", "forms.map_coeffs"),
)


def _term_count(e) -> int:
    # Called on every total derivative of a traced run, so it must not sort.
    # The private term map gives the count in O(1); fall back to the public
    # (sorting) accessor if the representation changes.
    terms = getattr(e, "_terms", None)
    return len(terms) if terms is not None else len(e.terms())


def _grid_points(args, kwargs) -> int:
    shape = kwargs.get("shape", args[2] if len(args) > 2 else ())
    return math.prod(shape)


# Extra counters taken from a call: layer -> (counter name, fn(args, kwargs, result)).
EXTRAS = {
    "jetcalc.total_derivative": ("terms_out", lambda a, k, r: _term_count(r)),
    "oracle.sample_section": ("grid_points", lambda a, k, r: _grid_points(a, k)),
}


class Layer:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Wraps varjet entry points; ``task`` labels the spans recorded next."""

    def __init__(self, package):
        self.package = package
        self.layers: dict[str, Layer] = {}
        self.spans: list[list] = []
        self.task = None
        self._stack: list[list] = []  # [child seconds, span id or None]
        self._saved: list[tuple] = []
        self._origin = 0.0

    # -- installation --------------------------------------------------------

    def _targets(self) -> dict:
        """Original callable -> layer name."""
        targets = {}
        for short in MODULES:
            mod = getattr(self.package, short)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    targets[obj] = f"{short}.{name}"
        return targets

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._origin = perf_counter()
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, layer) for fn, layer in targets.items()}
        namespaces = [self.package] + [getattr(self.package, m) for m in MODULES]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, wrappers[obj])
        for short, cls_name, attr, layer in METHODS:
            cls = getattr(getattr(self.package, short), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- measurement ---------------------------------------------------------

    def _wrap(self, fn, layer: str):
        stats = self.layers.setdefault(layer, Layer())
        stack = self._stack
        spans = self.spans
        tracer = self
        extra = EXTRAS.get(layer)
        record = layer.split(".", 1)[0] not in AGGREGATE_MODULES and layer not in AGGREGATE_LAYERS

        def wrapper(*args, **kwargs):
            span_id = None
            if record:
                span_id = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([span_id, parent, tracer.task, layer, 0.0, 0.0])
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats.calls += 1
                stats.self_s += t1 - t0 - frame[0]
                if span_id is not None:
                    spans[span_id][4] = t0 - tracer._origin
                    spans[span_id][5] = t1 - tracer._origin
                if stack:  # the parent's self time excludes this call
                    stack[-1][0] += t1 - t0
            if extra is not None:
                t2 = perf_counter()
                stats.extra += extra[1](args, kwargs, result)
                if stack:  # ... and the counting done for it
                    stack[-1][0] += perf_counter() - t2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- reporting -----------------------------------------------------------

    def layer(self, name: str) -> Layer:
        return self.layers.get(name) or Layer()

    def module_self_s(self, module: str) -> float:
        return sum(l.self_s for name, l in self.layers.items() if name.split(".", 1)[0] == module)

    def total_self_s(self) -> float:
        """Time covered by wrapped calls, outermost ones included."""
        return sum(l.self_s for l in self.layers.values())

    def write_spans(self, path: str) -> None:
        layers = {
            name: {"calls": l.calls, "self_s": l.self_s, **({EXTRAS[name][0]: l.extra} if name in EXTRAS else {})}
            for name, l in sorted(self.layers.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "task", "layer", "start_s", "end_s"], "layers": layers, "spans": self.spans}, fh)
