#!/usr/bin/env python3
"""Time ``varjet el`` on nested ``sin`` densities of growing depth.

    python3 scripts/nest_scaling.py [--depths 20,40,60,99] [--repeat N]
        [--checkout DIR]

For each depth d and each nest, the density ``sin(``×d ``u`` ``)``×d
``*u_x^2`` (the ``u`` nest, whose chain rule multiplies d cosines) and
``sin(``×d ``x`` ``)``×d ``*u_x^2`` (the ``x`` nest) over base ``x`` and
fiber ``u``, this writes a declaration file to a temporary directory and
runs ``python -m varjet el`` on it in a fresh interpreter that imports
DIR's ``src/`` (default: this checkout).  It prints the minimum wall time
of N runs, the output size in bytes and the first 12 hex digits of the
output's SHA-256, so two checkouts' outputs can be compared.  Exit code 1
when a run does not exit 0.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--depths", default="20,40,60,99", help="comma-separated nesting depths")
    ap.add_argument("--repeat", type=int, default=3, help="runs per row; the minimum time is printed")
    ap.add_argument("--checkout", default=ROOT, help="the checkout whose src/ runs")
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(args.checkout), "src"))

    print(f"{'nest':>4} {'d':>4} {'el s':>8} {'bytes':>8}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for var in ("u", "x"):
            for d in map(int, args.depths.split(",")):
                spec = os.path.join(tmp, f"nest_{var}_{d}.vspec")
                with open(spec, "w") as fh:
                    fh.write(f"[bundle]\nbase = x\nfiber = u\n[define]\nlagrangian L = {'sin(' * d}{var}{')' * d}*u_x^2 dx[1]\n")
                best = float("inf")
                for _ in range(args.repeat):
                    start = perf_counter()
                    done = subprocess.run([sys.executable, "-m", "varjet", "el", spec], env=env, capture_output=True)
                    best = min(best, perf_counter() - start)
                    if done.returncode != 0:
                        print(f"{var} nest at d = {d} exited {done.returncode}:\n{done.stderr.decode()}", file=sys.stderr)
                        return 1
                digest = hashlib.sha256(done.stdout).hexdigest()[:12]
                print(f"{var:>4} {d:>4} {best:>8.3f} {len(done.stdout):>8}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
