"""Byte-for-byte CLI output on the spec corpus.

Every (spec, command) pair named by a ``[task]`` line in ``specs/*.vspec``,
except ``oracle`` (floating-point output) and ``check`` (the randomized
suite), is rendered as text, ``--latex`` and ``--json``.  The expected
stdout lives in ``tests/golden/<spec>.<command>.<format>.txt``.

Regenerate the files (only after an intended output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from varjet.cli import main
from varjet.specfile import load_specfile_path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"text": [], "latex": ["--latex"], "json": ["--json"]}
SKIPPED_COMMANDS = ("oracle", "check")


def cases() -> list[tuple[Path, str, str]]:
    out = []
    for path in sorted(SPECS.glob("*.vspec")):
        commands = []
        for task in load_specfile_path(str(path)).tasks:
            if task.command not in SKIPPED_COMMANDS and task.command not in commands:
                commands.append(task.command)
        for command in commands:
            for fmt in FORMATS:
                out.append((path, command, fmt))
    return out


def golden_path(spec: Path, command: str, fmt: str) -> Path:
    return GOLDEN / f"{spec.stem}.{command}.{fmt}.txt"


def render(spec: Path, command: str, fmt: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(spec), *FORMATS[fmt]])
    assert code == 0, f"varjet {command} {spec.name} {fmt} exited {code}"
    return buf.getvalue()


def test_corpus_covers_every_command():
    commands = {command for _, command, _ in cases()}
    assert commands == {"el", "fed", "fjet", "natural", "commute"}


@pytest.mark.parametrize(
    "spec,command,fmt", cases(), ids=lambda v: v.stem if isinstance(v, Path) else v
)
def test_cli_output_matches_golden(spec, command, fmt):
    expected = golden_path(spec, command, fmt).read_text(encoding="utf-8")
    assert render(spec, command, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for spec, command, fmt in cases():
        golden_path(spec, command, fmt).write_text(render(spec, command, fmt), encoding="utf-8")
    sys.exit(0)
