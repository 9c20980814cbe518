"""Spans and counts around the calls into each layer of ``tourney``.

Wrappers replace a public function at every module attribute of the package
that holds it, so the CLI and the modules that imported it by name call the
wrapper, and the traced run executes the same commands as the untimed one.
Spans stay in memory and are written out when the run ends.  The program's
source is not touched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from refs import standardise

# (defining module, attribute, span name).  A "Class.method" attribute wraps
# the method on the class.
SPANS = (
    ("distributions", "from_spec", "distributions.from_spec"),
    ("distributions", "NoiseDistribution.find_modes", "distributions.find_modes"),
    ("distributions", "NoiseDistribution.sample", "distributions.sample"),
    ("equilibrium", "solve_design", "equilibrium.solve_design"),
    ("equilibrium", "optimal_threshold", "equilibrium.threshold_scan"),
    ("equilibrium", "deviation_payoff_curve", "equilibrium.concavity"),
    ("equilibrium", "marginal_benefit_rank", "equilibrium.rank_coefficients"),
    ("equilibrium", "total_marginal_benefit_curve", "equilibrium.curve"),
    ("equilibrium", "prize_probability", "equilibrium.prize_probability"),
    ("equilibrium", "global_mode_sufficiency", "prizes.sufficiency"),
    ("prizes", "optimal_prizes", "prizes.optimal_prizes"),
    ("prizes", "rank_score", "prizes.rank_scores"),
    ("montecarlo", "verify_best_response", "montecarlo.best_response"),
    ("montecarlo", "simulate_prize_probabilities", "montecarlo.rank_frequencies"),
    ("payschemes", "check_incentive_bound", "payschemes.incentive_bound"),
    ("audit", "audit_sample", "audit.audit_sample"),
    ("audit", "kde_on_grid", "audit.kde"),
    ("audit", "kde_modes", "audit.kde_modes"),
    ("svgplot", "line_plot_svg", "svgplot.line_plot"),
)
EVALUATIONS = ("pdf", "cdf", "sf", "ppf")
COMMAND = "cli.command"


class Tracer:
    def __init__(self, refs):
        self.refs = refs
        self.spans: list[list] = []  # [name, start, end, parent index, command]
        self.stack: list[int] = []
        self.command = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.max_err = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        import tourney.cli  # noqa: F401  (loads every module the commands use)

        modules = [m for name, m in sys.modules.items() if name == "tourney" or name.startswith("tourney.")]
        for module_name, attr, span in SPANS:
            owner = sys.modules[f"tourney.{module_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self._wrap(span, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        cls = sys.modules["tourney.distributions"].NoiseDistribution
        for attr in EVALUATIONS:
            setattr(cls, attr, self._count(getattr(cls, attr)))
        return self

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self.stack, getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(dist, x):
            counts["eval_calls"] += 1
            counts["eval_points"] += getattr(x, "size", 1)
            return fn(dist, x)

        return counted

    # -- per-call measurements ---------------------------------------------------

    def _after_distributions_sample(self, args, kwargs, result):
        self.counts["samples_drawn"] += result.size

    def _after_equilibrium_rank_coefficients(self, args, kwargs, result):
        dist, n, r, t = args
        ref = self.refs.coefficients(dist.family, dist.params, int(n), float(t))
        if ref is not None:
            _, _, scale = standardise(dist.family, dist.params)
            self.max_err = max(self.max_err, abs(result - ref[int(r) - 1]) * scale)

    def _after_montecarlo_best_response(self, args, kwargs, result):
        self.counts["draw_efforts"] += result.draws * len(result.effort_grid)
        self.counts["grid_bias"] += result.grid_bias
        self.counts["verify_calls"] += 1

    def _after_audit_audit_sample(self, args, kwargs, result):
        self.counts["resamples"] += result.bootstrap_draws

    # -- commands -----------------------------------------------------------

    def run_command(self, index: int, fn):
        self.command = index
        return self._wrap(COMMAND, fn)()

    def summary(self, commands: int) -> dict:
        """Per-layer metrics, per command of the run."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - children[i]
        c = self.counts
        per = 1.0 / max(commands, 1)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        metrics = {
            "distributions.from_spec_s": (total["distributions.from_spec"] * per, "s"),
            "distributions.find_modes_s": (total["distributions.find_modes"] * per, "s"),
            "distributions.eval_calls": (c["eval_calls"] * per, "count"),
            "distributions.eval_points": (c["eval_points"] * per, "count"),
            "distributions.sample_s": (total["distributions.sample"] * per, "s"),
            "distributions.samples_drawn": (c["samples_drawn"] * per, "count"),
            "equilibrium.threshold_scan_s": (total["equilibrium.threshold_scan"] * per, "s"),
            "equilibrium.concavity_s": (total["equilibrium.concavity"] * per, "s"),
            "equilibrium.rank_coefficients_s": (total["equilibrium.rank_coefficients"] * per, "s"),
            "equilibrium.curve_s": (total["equilibrium.curve"] * per, "s"),
            "equilibrium.prize_probability_s": (total["equilibrium.prize_probability"] * per, "s"),
            "equilibrium.rank_coefficients_max_err": (self.max_err, "1"),
            "prizes.sufficiency_s": (total["prizes.sufficiency"] * per, "s"),
            "prizes.rank_scores_s": (total["prizes.rank_scores"] * per, "s"),
            "montecarlo.best_response_s": (total["montecarlo.best_response"] * per, "s"),
            "montecarlo.rank_frequencies_s": (total["montecarlo.rank_frequencies"] * per, "s"),
            "montecarlo.draw_efforts_per_s": (
                rate(c["draw_efforts"], self_time["montecarlo.best_response"]), "1/s"),
            "montecarlo.grid_bias": (c["grid_bias"] / max(c["verify_calls"], 1), "budget"),
            "payschemes.incentive_bound_s": (total["payschemes.incentive_bound"] * per, "s"),
            "audit.kde_s": (total["audit.kde"] * per, "s"),
            "audit.bootstrap_s": (self_time["audit.audit_sample"] * per, "s"),
            "audit.resamples_per_s": (rate(c["resamples"], self_time["audit.audit_sample"]), "1/s"),
            "svgplot.line_plot_s": (total["svgplot.line_plot"] * per, "s"),
            "cli.overhead_s": (self_time[COMMAND] * per, "s"),
            "trace.span_coverage": (
                100.0 * (1.0 - rate(self_time[COMMAND], total[COMMAND])), "%"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"], "spans": self.spans}, fh)

