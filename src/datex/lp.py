"""The scipy names the LP builders use, and the only module that imports scipy.

scipy.optimize and scipy.sparse take about 0.4 s to import, and most commands
(gen, oracle, stability, fuzz) solve no LP. So sharing.column_lp and the core
audit's exact._block_margins import this module where they run, and a command
pays for scipy at its first LP, not at ``import datex``.
"""

from scipy.optimize import linprog
from scipy.sparse import coo_array

__all__ = ["coo_array", "linprog"]
