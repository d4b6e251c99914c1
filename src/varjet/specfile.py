"""Line-oriented declaration files for the command-line driver.

A file has three sections.  ``[bundle]`` declares coordinates, ``[define]``
names Lagrangians, morphisms, fields and sections in the surface grammar,
``[task]`` lists the commands to run against them.  Grammar reference lives
in the repository README; parse failures carry file line/column positions.
"""

from dataclasses import dataclass, field

from .bundle import BundleSpec
from .expr import Expr
from .fiberwise import BaseMorphism, SectionFamily
from .jetcalc import Morphism, VerticalField
from .parser import ParseContext, ParseError, parse_expression, parse_form_value
from .variational import Lagrangian

# Each command with the definition kinds its task names, in order.
TASK_KINDS = {
    "el": ("lagrangian",),
    "fed": ("morphism",),
    "fjet": ("basemorphism",),
    "natural": ("morphism", "vertical"),
    "commute": ("morphism", "section", "variation"),
    "oracle": ("lagrangian",),
    "check": (),
}
# The options of each definition kind and each command, with the value each
# takes when a line leaves it out (None: none); any other key is an error.
OPTIONS = {
    "lagrangian": {"over": "base"},
    "morphism": {"over": "base", "r": None, "s": None},
    "vertical": {"over": "base"},
    "section": {},
    "variation": {},
    "basemorphism": {},
    "el": {},
    "fed": {},
    "fjet": {"k": 1, "r": 1},
    "natural": {"k": 1},
    "commute": {},
    "oracle": {"grid": None},
    "check": {},
}
_DEFINE_KINDS = tuple(kind for kind in OPTIONS if kind not in TASK_KINDS)


@dataclass(frozen=True)
class Definition:
    kind: str
    name: str
    obj: object
    line: int


@dataclass(frozen=True)
class Task:
    command: str
    names: tuple[str, ...]
    options: dict[str, int | None]
    line: int


@dataclass
class SpecFile:
    bundle: BundleSpec
    functions: dict[str, int] = field(default_factory=dict)
    definitions: dict[str, Definition] = field(default_factory=dict)
    tasks: list[Task] = field(default_factory=list)

    def find(self, kind: str, name: str) -> Definition:
        d = self.definitions.get(name)
        if d is None:
            raise ParseError(f"no definition named {name!r}", 0, 0)
        if d.kind != kind:
            raise ParseError(f"{name!r} is a {d.kind}, expected a {kind}", d.line, 1)
        return d

    def only(self, kind: str) -> Definition:
        hits = [d for d in self.definitions.values() if d.kind == kind]
        if len(hits) != 1:
            raise ParseError(f"expected exactly one {kind} definition, found {len(hits)}", 0, 0)
        return hits[0]

    def operands(self, task: Task) -> list:
        """The objects a task names, one per definition kind of its command."""
        kinds = TASK_KINDS[task.command]
        if len(task.names) != len(kinds):
            raise ParseError(f"task {task.command!r} needs {len(kinds)} name(s), got {len(task.names)}", task.line or 1, 1)
        return [self.find(kind, name).obj for kind, name in zip(kinds, task.names)]

    def default_task(self, command: str) -> Task:
        """The task a file without a line for ``command`` runs: the only
        definition of each kind the command needs."""
        return Task(command, tuple(self.only(kind).name for kind in TASK_KINDS[command]), dict(OPTIONS[command]), 0)


def _split_components(text: str, line: int) -> list[str]:
    """Split on top-level commas (commas inside brackets stay put)."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    if any(not p.strip() for p in parts):
        raise ParseError("empty component in list", line, 1)
    return parts


def _parse_options(words: list[str], kind: str, line: int) -> tuple[list[str], dict]:
    """The names among ``words`` and the options of ``kind``, every option
    the words leave out filled in from ``OPTIONS``."""
    names, options = [], dict(OPTIONS[kind])
    for w in words:
        if "=" in w:
            key, _, value = w.partition("=")
            if not key or not value:
                raise ParseError(f"malformed option {w!r}", line, 1)
            if key not in OPTIONS[kind]:
                accepted = ", ".join(OPTIONS[kind]) or "none"
                raise ParseError(f"unknown option {key!r} for {kind} (accepted: {accepted})", line, 1)
            options[key] = value
        else:
            names.append(w)
    return names, options


def _int_option(value, key: str, line: int) -> int | None:
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"option {key} must be an integer", line, 1) from None


class _Loader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.bundle: BundleSpec | None = None
        self.functions: dict[str, int] = {}
        self.raw_bundle: dict[str, tuple[str, int]] = {}

    def load(self) -> SpecFile:
        section = None
        pending_defines: list[tuple[int, str]] = []
        pending_tasks: list[tuple[int, str]] = []
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip().lower()
                if section not in ("bundle", "define", "task"):
                    raise ParseError(f"unknown section [{section}]", lineno, 1)
                continue
            if section == "bundle":
                self._bundle_line(stripped, lineno)
            elif section == "define":
                pending_defines.append((lineno, line))
            elif section == "task":
                pending_tasks.append((lineno, line))
            else:
                raise ParseError("content before any section header", lineno, 1)
        self._finish_bundle()
        spec = SpecFile(self.bundle, self.functions)
        for lineno, line in pending_defines:
            d = self._define_line(line, lineno)
            if d.name in spec.definitions:
                raise ParseError(f"duplicate definition {d.name!r}", lineno, 1)
            spec.definitions[d.name] = d
        for lineno, line in pending_tasks:
            spec.tasks.append(self._task_line(line, lineno))
        return spec

    def _bundle_line(self, line: str, lineno: int) -> None:
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("bundle entries use 'key = value'", lineno, 1)
        key = key.strip().lower()
        value = value.strip()
        if key in ("base", "fiber", "second"):
            self.raw_bundle[key] = (value, lineno)
        elif key == "functions":
            for item in value.split():
                name, sep2, arity = item.partition("/")
                if not sep2:
                    raise ParseError(f"function declarations look like name/arity, got {item!r}", lineno, 1)
                try:
                    self.functions[name] = int(arity)
                except ValueError:
                    raise ParseError(f"bad arity in {item!r}", lineno, 1) from None
        else:
            raise ParseError(f"unknown bundle key {key!r}", lineno, 1)

    def _finish_bundle(self) -> None:
        if "base" not in self.raw_bundle or "fiber" not in self.raw_bundle:
            raise ParseError("bundle section must declare base and fiber coordinates", 1, 1)
        base = tuple(self.raw_bundle["base"][0].split())
        fiber = tuple(self.raw_bundle["fiber"][0].split())
        second = tuple(self.raw_bundle.get("second", ("", 0))[0].split())
        try:
            self.bundle = BundleSpec(base, fiber, second)
        except ValueError as exc:
            raise ParseError(str(exc), self.raw_bundle["base"][1], 1) from None

    def _view(self, options: dict, lineno: int) -> BundleSpec:
        over = options["over"]
        if over == "base":
            return self.bundle
        if over == "fiber":
            if not self.bundle.second:
                raise ParseError("over=fiber needs a 2-fibered bundle (declare 'second')", lineno, 1)
            return self.bundle.over_fiber()
        raise ParseError(f"unknown view {over!r} (use base or fiber)", lineno, 1)

    def _define_line(self, line: str, lineno: int) -> Definition:
        # options glue their '=' (r=1); the value separator is a spaced '='
        head, sep, value = line.partition(" = ")
        if not sep:
            raise ParseError(
                "definitions use '<kind> <name> [options] = <value>' with spaces around the equals sign",
                lineno,
                1,
            )
        words = head.split()
        if len(words) < 2:
            raise ParseError("definitions need a kind and a name", lineno, 1)
        kind = words[0].lower()
        if kind not in _DEFINE_KINDS:
            raise ParseError(f"unknown definition kind {kind!r}", lineno, 1)
        name = words[1]
        _, options = _parse_options(words[2:], kind, lineno)
        stripped = value.strip()
        if not stripped:
            raise ParseError("definition has an empty value", lineno, len(head) + 4)
        col = line.index(stripped, len(head) + 3) + 1
        builder = getattr(self, f"_build_{kind}")
        obj = builder(name, stripped, options, lineno, col)
        return Definition(kind, name, obj, lineno)

    def _components(self, value: str, ctx: ParseContext, names: tuple[str, ...], lineno: int, col: int) -> dict[str, Expr]:
        parts = _split_components(value, lineno)
        if len(parts) != len(names):
            raise ParseError(f"expected {len(names)} component(s) for {names}, got {len(parts)}", lineno, col)
        out = {}
        offset = col
        for target, part in zip(names, parts):
            out[target] = parse_expression(part, ctx, lineno, offset)
            offset += len(part) + 1
        return out

    def _build_lagrangian(self, name: str, value: str, options: dict, lineno: int, col: int) -> Lagrangian:
        view = self._view(options, lineno)
        ctx = ParseContext(view, r=1, s=None, functions=self.functions)
        form = parse_form_value(value, ctx, lineno, col)
        return Lagrangian(view, form)

    def _build_morphism(self, name: str, value: str, options: dict, lineno: int, col: int) -> Morphism:
        view = self._view(options, lineno)
        r = _int_option(options["r"], "r", lineno)
        if r is None:
            raise ParseError("morphisms need an explicit order r=<int>", lineno, 1)
        s = _int_option(options["s"], "s", lineno)
        ctx = ParseContext(view, r=r, s=s, functions=self.functions)
        form = parse_form_value(value, ctx, lineno, col)
        return Morphism(view, r, s, form)

    def _build_vertical(self, name: str, value: str, options: dict, lineno: int, col: int) -> VerticalField:
        view = self._view(options, lineno)
        ctx = ParseContext(view, r=0, s=None, functions=self.functions)
        comps = self._components(value, ctx, view.fiber, lineno, col)
        return VerticalField(view, comps)

    def _build_section(self, name: str, value: str, options: dict, lineno: int, col: int) -> SectionFamily:
        if not self.bundle.second:
            raise ParseError("sections need a 2-fibered bundle (declare 'second')", lineno, 1)
        view = self.bundle.over_fiber()
        ctx = ParseContext(view, r=0, s=None, functions=self.functions)
        comps = self._components(value, ctx, self.bundle.second, lineno, col)
        return SectionFamily(self.bundle, comps)

    def _build_variation(self, name: str, value: str, options: dict, lineno: int, col: int) -> dict[str, Expr]:
        if not self.bundle.second:
            raise ParseError("variations need a 2-fibered bundle (declare 'second')", lineno, 1)
        view = self.bundle.over_fiber()
        ctx = ParseContext(view, r=0, s=None, functions=self.functions)
        return self._components(value, ctx, self.bundle.second, lineno, col)

    def _build_basemorphism(self, name: str, value: str, options: dict, lineno: int, col: int) -> BaseMorphism:
        if not self.bundle.second:
            raise ParseError("base-preserving morphisms target the 'second' coordinates; declare them", lineno, 1)
        source = BundleSpec(self.bundle.base, self.bundle.fiber)
        ctx = ParseContext(source, r=0, s=None, functions=self.functions)
        comps = self._components(value, ctx, self.bundle.second, lineno, col)
        return BaseMorphism(source, self.bundle.second, comps)

    def _task_line(self, line: str, lineno: int) -> Task:
        words = line.split()
        command = words[0].lower()
        if command not in TASK_KINDS:
            raise ParseError(f"unknown task command {command!r}", lineno, 1)
        names, options = _parse_options(words[1:], command, lineno)
        return Task(command, tuple(names), {key: _int_option(v, key, lineno) for key, v in options.items()}, lineno)


def load_specfile(text: str) -> SpecFile:
    return _Loader(text).load()


def load_specfile_path(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return load_specfile(fh.read())
