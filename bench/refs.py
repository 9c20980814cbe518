"""Reference rank coefficients, mapped onto the noise parameters a command uses.

``reference_values.json`` (made by ``reference.py``) holds B_r(t) at standard
parameters.  Every family the benchmark varies is a location-scale family, so
for noise X = loc + scale * Z the coefficients follow from the standard ones:
B_r(t) = B_r^Z((t - loc) / scale) / scale.  This module imports neither
``tourney`` nor scipy, so the traced worker can use it too.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# Trimodal showcase densities: 16 * f at the knots, before renormalisation.
TRIMODAL_KNOTS = {
    "red": ((0, 20), (0.25, 16), (0.5, 21), (0.75, 16), (1.0, 19), (1.25, 16), (1.75, 0)),
    "green": ((0, 20), (0.25, 16), (0.5, 21), (0.75, 12), (1.0, 14), (1.25, 8), (1.75, 0)),
    "blue": ((0, 18), (0.25, 14), (0.5, 23), (0.75, 13), (1.0, 17), (1.25, 10), (1.75, 0)),
}


def standardise(family: str, params: dict) -> tuple[str, float, float] | None:
    """(reference key, loc, scale) for a noise spec, or None if not covered."""
    if family in ("normal", "gumbel", "logistic"):
        return family, float(params.get("loc", 0.0)), float(params.get("scale", 1.0))
    if family == "exponential":
        return family, 0.0, 1.0 / float(params.get("rate", 1.0))
    if family == "pareto":
        if float(params.get("alpha", 2.0)) != 2.0:
            return None
        return family, 0.0, float(params.get("x_min", 1.0))
    if family in ("trimodal_example", "piecewise_linear") and "variant" in params:
        return "trimodal_" + params["variant"], 0.0, 1.0
    if family == "trimodal_example":
        return "trimodal_red", 0.0, 1.0
    if family in ("erf_exponential", "inverse_exponential"):
        return family, 0.0, 1.0
    return None


class References:
    def __init__(self, path: str = os.path.join(HERE, "reference_values.json")):
        with open(path) as fh:
            self.table = json.load(fh)["B"]

    def modes(self, family: str, params: dict) -> list[float]:
        """Thresholds with references, in the command's units: the density's
        modes at or above its global mode, ascending."""
        key, loc, scale = standardise(family, params)
        return sorted(loc + scale * float(t) for t in self.table[key])

    def coefficients(self, family: str, params: dict, n: int, t: float) -> list[float] | None:
        """B_1(t) .. B_n(t), or None when t is not a reference threshold."""
        std = standardise(family, params)
        if std is None or std[0] not in self.table:
            return None
        key, loc, scale = std
        z = (t - loc) / scale
        for tk, by_n in self.table[key].items():
            if abs(float(tk) - z) <= 1e-9 * max(1.0, abs(z)) and str(n) in by_n:
                return [b / scale for b in by_n[str(n)]]
        return None
