"""Float oracles shared by the tests; nothing in the package calls them.

`cr.minimax_capture_times` is the integer oracle of the capture table, kept in
the package because the benchmark's checks read it too.
"""

import numpy as np

from scar import bellman


def discounted_cr_value(space, gamma):
    """Exact value of the discounted pursuit game: the pursuers earn gamma^T, the
    evader loses it.

    Boundary v = 1 on capture states, 0 at the terminal; pursuer turns take the
    max, evader turns the min. Satisfies v(s) = gamma^T(s) with gamma^inf = 0.
    """
    fixed = np.where(space.is_capture, 1.0, 0.0)
    return bellman.solve_zero_sum(space, fixed, gamma, range(1, space.n_players))[0]
