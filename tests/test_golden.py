"""Byte-for-byte CLI output on the spec corpus.

Every (spec, command) pair named by a ``[task]`` line in ``specs/*.vspec``
is rendered as text, ``--latex`` and ``--json``, and so is ``check`` over
the whole corpus.  The expected stdout lives in
``tests/golden/<spec>.<command>.<format>.txt`` (``corpus.check.*`` for the
suite).  The ``oracle`` and ``check`` files hold machine-printed floats
(``%.3e`` and ``%.6e``), so they pin the float results of this platform too.

Regenerate the files (only after an intended output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from varjet.cli import main
from varjet.specfile import load_specfile_path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"text": [], "latex": ["--latex"], "json": ["--json"]}
CORPUS = "corpus"


def cases() -> list[tuple[str, str, str]]:
    out = []
    for path in sorted(SPECS.glob("*.vspec")):
        commands = []
        for task in load_specfile_path(str(path)).tasks:
            if task.command != "check" and task.command not in commands:
                commands.append(task.command)
        for command in commands:
            for fmt in FORMATS:
                out.append((path.stem, command, fmt))
    return out + [(CORPUS, "check", fmt) for fmt in FORMATS]


def golden_path(stem: str, command: str, fmt: str) -> Path:
    return GOLDEN / f"{stem}.{command}.{fmt}.txt"


def render(stem: str, command: str, fmt: str) -> str:
    # Relative paths: `check` prints them in its result names.
    if stem == CORPUS:
        paths = [f"specs/{p.name}" for p in sorted(SPECS.glob("*.vspec"))]
    else:
        paths = [f"specs/{stem}.vspec"]
    buf = io.StringIO()
    with contextlib.chdir(ROOT), contextlib.redirect_stdout(buf):
        code = main([command, *paths, *FORMATS[fmt]])
    assert code == 0, f"varjet {command} {stem} {fmt} exited {code}"
    return buf.getvalue()


def test_corpus_covers_every_command():
    commands = {command for _, command, _ in cases()}
    assert commands == {"el", "fed", "fjet", "natural", "commute", "oracle", "check"}


@pytest.mark.parametrize("stem,command,fmt", cases())
def test_cli_output_matches_golden(stem, command, fmt):
    expected = golden_path(stem, command, fmt).read_text(encoding="utf-8")
    assert render(stem, command, fmt) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, command, fmt in cases():
        golden_path(stem, command, fmt).write_text(render(stem, command, fmt), encoding="utf-8")
    sys.exit(0)
