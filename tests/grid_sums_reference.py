"""The best-response scan's sums on the mapped noise, with numpy's own sort
and search.

``montecarlo._bin_block`` takes a block as player 1's uniform u_1, its rank
count K (the rivals whose uniform exceeds its own) and the rivals' top
uniforms walked down from the best, with the table tau = F(rho - g) on the
grid.  It passes player 1 at e* where u_1 >= F(rho - e*), bins the
standard's level n - 1 by counting the tau above u_1, maps u_1 and each
lower binned row as it bins it, and finds each jump's grid cell from a
bucket table (``montecarlo._Cells``); ``montecarlo._finish`` turns the
binned jumps into sums.  This is the form they replace, on the noise
x = ppf(u) mapped whole: player 1 passed and ranked by the scores e* + x,
the order statistics from a sort, and one ``np.searchsorted`` of each
level's jump positions into the whole grid, the standard's level at
rho - x_1, the jumps then added in the same order.  The quantile function
never decreases, and ppf(u_1) >= rho - g exactly when u_1 >= F(rho - g), so
given the (x_1, K, order statistics) of the same uniforms, the cells are the
same numbers and everything after them the same arithmetic; where no two
distinct uniforms give tied scores, and F(rho - g) does not round onto u_1's
own float (it underflows to 0 far below Gumbel's mode, and rounds to the
largest uniform below 1 far above it), the two must agree bit for bit.

``counted`` picks the integer count of a two-valued prize (the default for
one) or the float jumps of any other; both give the same sums up to rounding.
"""

import numpy as np

from tourney import montecarlo as mc


def grid_sums(x, grid, i_star, rho, prizes, counted=None):
    """The (3, grid.size) sums of w, w - w* and (w - w*)^2 over the rows of
    ``x``, and the tally of player 1's rank at e* = ``grid[i_star]``."""
    n = x.shape[1]
    e_star = grid[i_star]
    y1 = e_star + x[:, 0]
    rank = mc._rank(x, y1, y1 >= rho, e_star).astype(np.int64)
    order = np.sort(x[:, 1:], axis=1)
    v = np.append(prizes, 0.0)
    levels = np.flatnonzero(v[:-1] != v[1:])
    if counted is None:
        counted = levels.size == 1
    w_star = v[rank]
    lost_won = np.zeros((2, grid.size + 1), dtype=np.int64)  # counts by cell, lost and won at e*
    jumps = np.zeros((2, grid.size + 1))  # jumps of w and of (w - w*)^2 by cell
    for j in levels:
        top = order[:, n - 2 - j] if j < n - 1 else -np.inf
        cell = np.searchsorted(grid, np.maximum(rho, e_star + top) - x[:, 0], side="left")
        if counted:
            won = rank <= j
            lost_won += np.bincount(cell[~won], minlength=grid.size + 1), np.bincount(cell[won], minlength=grid.size + 1)
        else:
            hits, d = np.bincount(cell, minlength=grid.size + 1), v[j] - v[j + 1]
            jumps[0] += d * hits
            jumps[1] += (v[j] ** 2 - v[j + 1] ** 2) * hits - 2.0 * d * np.bincount(cell, w_star, grid.size + 1)
    tally = np.bincount(rank, minlength=n + 1)
    if counted:
        lost, won = lost_won[:, :-1]
        prize = v[levels[0]]
        w = prize * np.cumsum(lost + won)
        squares = np.cumsum(lost - won)
        return np.array([w, w - prize * tally[: levels[0] + 1].sum(), prize * prize * (squares - squares[i_star])]), tally
    out = np.empty((3, grid.size))
    out[0] = np.cumsum(jumps[0, :-1])
    out[1] = out[0] - v @ tally
    out[2, i_star] = 0.0
    out[2, i_star + 1:] = np.cumsum(jumps[1, i_star + 1:-1])
    out[2, :i_star] = -np.cumsum(jumps[1, i_star:0:-1])[::-1]
    return out, tally
