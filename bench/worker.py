"""One workload process: import ``tourney``, warm up, then run whole rounds.

Started by ``run.py`` with BLAS and OpenMP held to one thread.  It prints
``READY`` once the interpreter has started, ``tourney.cli`` is imported and
the untimed warm-up command has run; with ``--probe`` it exits there, which
is how ``run.py`` times set-up.  Otherwise it runs the plan's round of
commands in a closed loop, each through ``tourney.cli.main`` in this
process, and starts another round only while that round would end within
the plan's seconds.  After each command it times calibration passes for a
tenth of the command's time, so that ``run.py`` can scale the times to a
reference host speed.  Outputs are checked afterwards by ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from scipy import integrate, ndimage, special

# Share of the loop given to calibration passes, run after each command in
# proportion to its time, so that they sample the host over the whole run.
CALIBRATION_SHARE = 0.1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class Calibration:
    """A fixed computation, timed between commands, whose time follows the
    host's speed.  It is made of the kinds of work the commands do: adaptive
    quadrature with a Python callback on scalars (``solve``, ``prizes``), dense
    vector evaluation and ranking of a noise matrix (the concavity grid,
    ``verify``), and Gaussian smoothing (the ``audit`` bootstrap).  It uses
    numpy and scipy only, never ``tourney``, so a change to the program does
    not move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.normal(size=(100, 1000))
        # preallocated: freeing a large array would raise glibc's mmap
        # threshold and change how the program's own arrays are placed
        self.out = np.empty_like(self.grid)
        self.noise = rng.random((4096, 4))
        self.counts = rng.multinomial(10_000, np.full(4096, 1 / 4096)).astype(float)
        self.passes: list[float] = []

    def one_pass(self) -> None:
        start = time.perf_counter()
        integrate.quad(lambda x: float(np.exp(-0.5 * x * x)) * float(special.ndtr(x)) ** 2,
                       -8.0, 8.0, epsabs=1e-11, epsrel=1e-11, limit=400)
        special.ndtr(self.grid, out=self.out)
        x = self.noise
        for e in np.linspace(0.0, 1.0, 8):
            np.sum(x[:, 1:] > (e + x[:, :1]), axis=1)
        ndimage.gaussian_filter1d(self.counts, sigma=20.0, mode="constant")
        self.passes.append(time.perf_counter() - start)

    def run_for(self, seconds: float) -> None:
        """At least one pass, then passes until about ``seconds`` are spent."""
        stop = time.perf_counter() + seconds
        self.one_pass()
        while time.perf_counter() < stop:
            self.one_pass()

    def mean(self) -> float:
        return statistics.mean(self.passes)


def run_command(cli, argv) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command; the loop goes on
        code = -1
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue()[-2000:]


def _round_argv(plan, argv, tag: str) -> list[str]:
    """The argv with its outputs placed in the round's own directory."""
    os.makedirs(os.path.join(plan["workdir"], f"r{tag}"), exist_ok=True)
    return [a.replace("{round}", tag) for a in argv]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--results")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import tourney
    import tourney.cli as cli

    if not os.path.abspath(tourney.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported tourney from {tourney.__file__}, not from {SRC}\n")
        return 2
    with open(args.plan) as fh:
        plan = json.load(fh)
    code, _, err = run_command(cli, _round_argv(plan, plan["warmup"], "warmup"))
    if code != 0:
        sys.stderr.write(f"warm-up command exited {code}:\n{err}")
        return 2
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    setup_calibration = Calibration()
    setup_calibration.run_for(0.3)
    if args.probe:
        sys.stdout.write(f"CALIBRATION {setup_calibration.mean()!r}\n")
        return 0

    tracer = None
    if args.trace:
        from refs import References
        from tracer import Tracer

        tracer = Tracer(References()).install()

    records = []
    calibration = Calibration()
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for cmd in plan["commands"]:
            argv = _round_argv(plan, cmd["argv"], str(rounds))
            if tracer is None:
                code, seconds, err = run_command(cli, argv)
            else:
                code, seconds, err = tracer.run_command(len(records), lambda: run_command(cli, argv))
            records.append({"id": cmd["id"], "round": rounds, "code": code,
                            "seconds": seconds, "stderr": err})
            calibration.run_for(CALIBRATION_SHARE * seconds)
        rounds += 1
        if rounds == 1:
            # later rounds reuse fragmented memory and would read higher
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if now - start + (now - round_start) > plan["seconds"]:
            break
    wall = time.perf_counter() - start

    result = {
        "records": records,
        "rounds": rounds,
        "wall_seconds": wall,
        "peak_rss_mb": peak_rss_mb,
        "setup_calibration_s": setup_calibration.mean(),
        "calibration_s": calibration.mean(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.summary(len(records))
        tracer.write(plan["trace_path"])
    with open(args.results, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
