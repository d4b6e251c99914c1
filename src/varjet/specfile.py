"""Line-oriented declaration files for the command-line driver.

A file has three sections.  ``[bundle]`` declares coordinates, ``[define]``
names Lagrangians, morphisms, fields and sections in the surface grammar,
``[task]`` lists the commands to run against them.  Grammar reference lives
in the repository README; parse failures carry file line/column positions.
"""

from dataclasses import dataclass, field

from .bundle import BundleSpec
from .fiberwise import BaseMorphism, SectionFamily
from .jetcalc import Morphism, VerticalField
from .parser import ParseContext, ParseError, parse_components, parse_form_value
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
            raise LookupError(f"no definition named {name!r}")
        if d.kind != kind:
            raise LookupError(f"{name!r} is a {d.kind}, expected a {kind}")
        return d

    def only(self, kind: str) -> Definition:
        hits = [d for d in self.definitions.values() if d.kind == kind]
        if len(hits) != 1:
            raise LookupError(f"expected exactly one {kind} definition, found {len(hits)}")
        return hits[0]

    def operands(self, task: Task) -> list:
        """The objects a task names, one per definition kind of its command."""
        kinds = TASK_KINDS[task.command]
        if len(task.names) != len(kinds):
            raise ParseError(f"task {task.command!r} needs {len(kinds)} name(s), got {len(task.names)}", task.line or 1, 1)
        try:
            return [self.find(kind, name).obj for kind, name in zip(kinds, task.names)]
        except LookupError as exc:
            raise ParseError(str(exc), task.line or 1, 1) from None

    def default_task(self, command: str) -> Task:
        """The task a file without a line for ``command`` runs: the only
        definition of each kind the command needs."""
        return Task(command, tuple(self.only(kind).name for kind in TASK_KINDS[command]), dict(OPTIONS[command]), 0)


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


def _build(kind: str, value: str, options: dict, bundle: BundleSpec, functions: dict[str, int], line: int, col: int):
    """The object a ``kind`` definition declares, from its value text (which
    starts at ``col``) and its filled-in options."""
    if kind in ("section", "variation", "basemorphism") and not bundle.second:
        raise ParseError(f"a {kind} needs a 2-fibered bundle (declare 'second')", line, 1)
    over = options.get("over", "fiber")
    if kind == "basemorphism":
        view = BundleSpec(bundle.base, bundle.fiber)
    elif over == "base":
        view = bundle
    elif over != "fiber":
        raise ParseError(f"unknown view {over!r} (use base or fiber)", line, 1)
    elif not bundle.second:
        raise ParseError("over=fiber needs a 2-fibered bundle (declare 'second')", line, 1)
    else:
        view = bundle.over_fiber()
    r, s = (1 if kind == "lagrangian" else 0), None
    if kind == "morphism":
        r = _int_option(options["r"], "r", line)
        if r is None:
            raise ParseError("morphisms need an explicit order r=<int>", line, 1)
        s = _int_option(options["s"], "s", line)
    try:
        ctx = ParseContext(view, r=r, s=s, functions=functions)
    except ValueError as exc:
        raise ParseError(str(exc), line, 1) from None
    if kind == "lagrangian":
        return Lagrangian(view, parse_form_value(value, ctx, line, col))
    if kind == "morphism":
        return Morphism(view, r, s, parse_form_value(value, ctx, line, col))
    comps = parse_components(value, ctx, view.fiber if kind == "vertical" else bundle.second, line, col)
    if kind == "vertical":
        return VerticalField(view, comps)
    if kind == "section":
        return SectionFamily(bundle, comps)
    if kind == "basemorphism":
        return BaseMorphism(view, bundle.second, comps)
    return comps


def load_specfile(text: str) -> SpecFile:
    """Read a declaration file.  The bundle is built before any definition or
    task line is read, and definitions before tasks."""
    section, coords, functions, defines, tasks = None, {}, {}, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in ("bundle", "define", "task"):
                raise ParseError(f"unknown section [{section}]", lineno, 1)
        elif section == "bundle":
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ParseError("bundle entries use 'key = value'", lineno, 1)
            key = key.strip().lower()
            if key in ("base", "fiber", "second"):
                coords[key] = (tuple(value.split()), lineno)
            elif key == "functions":
                for item in value.split():
                    fname, sep, arity = item.partition("/")
                    if not sep:
                        raise ParseError(f"function declarations look like name/arity, got {item!r}", lineno, 1)
                    try:
                        functions[fname] = int(arity)
                    except ValueError:
                        raise ParseError(f"bad arity in {item!r}", lineno, 1) from None
            else:
                raise ParseError(f"unknown bundle key {key!r}", lineno, 1)
        elif section == "define":
            defines.append((lineno, line))
        elif section == "task":
            tasks.append((lineno, line))
        else:
            raise ParseError("content before any section header", lineno, 1)
    if "base" not in coords or "fiber" not in coords:
        raise ParseError("bundle section must declare base and fiber coordinates", 1, 1)
    try:
        bundle = BundleSpec(coords["base"][0], coords["fiber"][0], coords.get("second", ((), 0))[0])
    except ValueError as exc:
        raise ParseError(str(exc), coords["base"][1], 1) from None
    spec = SpecFile(bundle, functions)
    for lineno, line in defines:
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
        kind, name = words[0].lower(), words[1]
        if kind not in _DEFINE_KINDS:
            raise ParseError(f"unknown definition kind {kind!r}", lineno, 1)
        if "=" in name:
            raise ParseError(f"a definition name takes no '=', found {name!r}", lineno, 1)
        extra, options = _parse_options(words[2:], kind, lineno)
        if extra:
            raise ParseError(f"a definition takes one name, found extra word(s) {' '.join(extra)!r}", lineno, 1)
        col = len(head) + 4  # where the value starts
        if not value.strip():
            raise ParseError("definition has an empty value", lineno, col)
        obj = _build(kind, value, options, bundle, functions, lineno, col)
        if name in spec.definitions:
            raise ParseError(f"duplicate definition {name!r}", lineno, 1)
        spec.definitions[name] = Definition(kind, name, obj, lineno)
    for lineno, line in tasks:
        command, *words = line.split()
        command = command.lower()
        if command not in TASK_KINDS:
            raise ParseError(f"unknown task command {command!r}", lineno, 1)
        names, options = _parse_options(words, command, lineno)
        spec.tasks.append(Task(command, tuple(names), {key: _int_option(v, key, lineno) for key, v in options.items()}, lineno))
    return spec


def load_specfile_path(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return load_specfile(fh.read())
