"""The best-response batch sums on the mapped noise, with numpy's own
search and row maximum.

``montecarlo._grid_sums`` takes a batch as player 1's noise x_1, its rank
count K (the rivals whose uniform exceeds its own) and the rival order
statistics it bins, and finds each jump's grid cell from a bucket table
(``montecarlo._Cells``).  This is the form it replaces, on the noise
x = ppf(u) mapped whole: player 1 ranked by the scores e* + x, the order
statistics from a sort or a row maximum, and one ``np.searchsorted`` of
every jump position into the whole grid.  The quantile function never
decreases, so given the (x_1, K, order statistics) of the same uniforms,
the cells are the same numbers and everything after them the same
arithmetic; where no two distinct uniforms give tied scores, the two must
agree bit for bit.
"""

import numpy as np

from tourney import montecarlo as mc


def grid_sums(x, grid, i_star, rho, prizes):
    n = x.shape[1]
    e_star = grid[i_star]
    y1 = e_star + x[:, 0]
    rank_star = mc._rank(x, y1, y1 >= rho, e_star)
    v = np.append(prizes, 0.0)
    levels = np.flatnonzero(v[:-1] != v[1:])
    hi, lo = v[levels], v[levels + 1]
    top = np.full((x.shape[0], levels.size), -np.inf)
    ranked = levels < n - 1
    if np.array_equal(levels[ranked], [0]):
        top[:, ranked] = x[:, 1:].max(axis=1, keepdims=True)
    elif ranked.any():
        top[:, ranked] = np.sort(x[:, 1:], axis=1)[:, n - 2 - levels[ranked]]
    pos = np.maximum(rho, e_star + top) - x[:, :1]
    bins = np.searchsorted(grid, pos.ravel(), side="left")
    w_star = v[rank_star]

    def hist(jumps):
        return np.bincount(bins, np.broadcast_to(jumps, pos.shape).ravel(), grid.size + 1)[: grid.size]

    out = np.empty((3, grid.size))
    out[0] = np.cumsum(hist(hi - lo))
    out[1] = out[0] - w_star.sum()
    jumps = hist((hi - w_star[:, None]) ** 2 - (lo - w_star[:, None]) ** 2)
    out[2, i_star] = 0.0
    out[2, i_star + 1:] = np.cumsum(jumps[i_star + 1:])
    out[2, :i_star] = -np.cumsum(jumps[i_star:0:-1])[::-1]
    return out, rank_star
