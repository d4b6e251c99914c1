#!/usr/bin/env python3
"""Grid-refinement study for the finite-difference oracle.

    python3 scripts/oracle_convergence.py

Shows second-order convergence of the total-derivative check (on ``u*u``)
and of the action-variation check on base dimensions 1, 2 and 3: the
classical densities of ``varjet.checks.classical_lagrangian`` (the
oscillator on a line, the Dirichlet energy on the square and the cube) on
the oracle's default sections of ``varjet.oracle.default_sections``, the
same the ``oracle`` and ``check`` commands use.  Each row halves the grid
spacing of the row above, so a ratio near 4 is the measured second order.
"""

import numpy as np

from varjet import check_action_variation, check_total_derivative, sample_section, sym
from varjet.checks import classical_lagrangian
from varjet.oracle import default_sections

# Points per axis of the coarsest grid and number of rows, per base dimension.
STUDIES = ((1, 249, 5), (2, 25, 4), (3, 25, 3))


def _errors(m: int, n: int) -> tuple[float, float]:
    lag = classical_lagrangian(m)
    s, eta = default_sections(lag.bundle, n)
    field = sample_section(s.bundle, s.bounds, s.shape, {"u": lambda *xs: np.sin(sum(xs))})
    _, _, a_err = check_action_variation(lag, s, eta)
    return check_total_derivative(sym("u") * sym("u"), field), a_err


def main() -> None:
    print(f"{'m':>2} {'points/axis':>11} {'derivative err':>16} {'ratio':>7} {'action err':>14} {'ratio':>7}")
    for m, n, rows in STUDIES:
        prev_d = prev_a = None
        for _ in range(rows):
            d_err, a_err = _errors(m, n)
            d_ratio = f"{prev_d / d_err:7.2f}" if prev_d else "      -"
            a_ratio = f"{prev_a / a_err:7.2f}" if prev_a else "      -"
            print(f"{m:>2} {n:>11} {d_err:>16.3e} {d_ratio} {a_err:>14.3e} {a_ratio}")
            prev_d, prev_a = d_err, a_err
            n = 2 * n - 1


if __name__ == "__main__":
    main()
