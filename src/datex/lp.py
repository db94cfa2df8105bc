"""The one place an LP is solved, and the only module that imports scipy.

scipy.optimize and scipy.sparse take about 0.4 s to import, and most commands
(gen, oracle, stability, fuzz) solve no LP. So sharing.column_lp and the core
audit's exact._block_margins import this module where they run, and a command
pays for scipy at its first LP, not at ``import datex``.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array


class LpError(RuntimeError):
    """HiGHS did not solve an LP to optimality."""


def solve_lp(what: str, c: np.ndarray, **linprog_kwargs):
    """linprog's result, unchanged (duals included), or LpError("<what> failed:
    <HiGHS message>") when HiGHS does not reach an optimum."""
    res = linprog(c, **linprog_kwargs)
    if not res.success:
        raise LpError(f"{what} failed: {res.message}")
    return res


def sparse(triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
           shape: tuple[int, int]):
    # a coo_array; zeros are left out, as a dense matrix's conversion leaves them out
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    keep = vals != 0.0
    return coo_array((vals[keep], (rows[keep], cols[keep])), shape=shape)
