"""Full payment matrices kept as a reference for the tests.

``payschemes`` prices player 1 alone, with its own output in column 0.
These give every player's payment on each row of an (m, n) block of
outputs, the rank schemes by sorting the row, with the better rank of a tie
going to the lower player index; column 0 is player 1's payment.  Each
function mirrors the ``payschemes`` constructor of the same scheme.
"""

import numpy as np

from tourney import equilibrium as eq


def rank(schedule, standard=-np.inf):
    v = np.append(np.asarray(schedule.prizes), 0.0)
    n = schedule.n

    def payments(y):
        passed = y >= standard
        masked = np.where(passed, y, -np.inf)
        order = np.argsort(-masked, axis=1, kind="stable")
        pos = np.empty_like(order)
        np.put_along_axis(pos, order, np.broadcast_to(np.arange(n), y.shape).copy(), axis=1)
        return np.where(passed, v[pos], 0.0)

    return payments


def linear_share(cap):
    def payments(y):
        a = np.maximum(y - cap, 0.0)
        tot = a.sum(axis=1, keepdims=True)
        return np.where(tot > 0, a / np.where(tot > 0, tot, 1.0), 0.0)

    return payments


def constant(n):
    return lambda y: np.full_like(y, 1.0 / n)


def mixture(first, second, weight):
    w = float(weight)
    return lambda y: w * first(y) + (1.0 - w) * second(y)


def battery(n, size, rng, y_low, y_high):
    """The payments of ``payschemes.scheme_battery(n, size, rng, y_low,
    y_high)``, drawn from an rng in the same state."""
    out = []
    for _ in range(size):
        schedule = eq.random_schedule(n, rng)
        standard = rng.uniform(y_low, y_high) if rng.random() < 0.7 else -np.inf
        cap = rng.uniform(y_low, y_high)
        theta = rng.random()
        out.append(mixture(rank(schedule, standard), linear_share(cap), theta))
    return out
