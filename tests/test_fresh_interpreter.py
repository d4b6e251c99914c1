"""Properties that only a fresh interpreter can show: what the CLI imports,
and that no output depends on the process's string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import varjet

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(varjet.__file__).resolve().parent.parent)

# The symbolic commands on every spec of the corpus that names them, in all
# three formats; prints each exit code next to the output.
CORPUS_RUN = """
import contextlib, io, pathlib, sys
from varjet.cli import main
from varjet.specfile import load_specfile_path

for path in sorted(pathlib.Path("specs").glob("*.vspec")):
    commands = dict.fromkeys(t.command for t in load_specfile_path(str(path)).tasks)
    for command in ("el", "fed", "fjet", "natural", "commute"):
        if command not in commands:
            continue
        for flags in ([], ["--latex"], ["--json"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, str(path), *flags])
            print(f"== {path.name} {command} {flags} exit {code}")
            sys.stdout.write(err.getvalue())
"""


def python(code: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
        capture_output=True,
        text=True,
    )


def test_symbolic_commands_do_not_import_numpy():
    done = python(
        "import sys\nimport varjet.cli\nassert 'numpy' not in sys.modules, 'numpy imported'\n"
        "import varjet\nassert callable(varjet.sample_section)\nassert 'numpy' in sys.modules\nprint('ok')\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_outputs_do_not_depend_on_the_hash_seed():
    runs = [python(CORPUS_RUN, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    for done in runs:
        assert done.returncode == 0, done.stderr
    assert runs[0].stdout == runs[1].stdout
    out = runs[0].stdout
    for command in ("el", "fed", "fjet", "natural", "commute"):
        assert f" {command} [] exit 0" in out
    assert "exit 1" not in out and "exit 2" not in out
