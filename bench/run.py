"""Benchmark of the ``tourney`` command line: one workload, one run.

    python3 bench/run.py --workload design|certify|audit --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``tourney`` is imported from its
``src/``.  The run generates its inputs from the seed, times set-up in fresh
processes, runs whole rounds of the workload's commands in one fresh
single-threaded worker process (see ``worker.py``), checks every output
(``checks.py``) and prints one JSON line last: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A summary goes to
standard error.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread, set before numpy loads, here and in the workers
# that inherit this environment.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from refs import References  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(HERE, ".runs")
SETUP_PROBES = 2       # set-up is also timed on the worker itself
DEADLINE_S = 170.0     # every run ends within 180 s
# Times are reported at the host speed where a calibration pass takes this
# long (see README.md); wall times go to standard error.
REFERENCE_CALIBRATION_S = 0.004


LIVE: list[subprocess.Popen] = []  # stopped and waited for before the run returns


class RunFailed(RuntimeError):
    pass


def _remaining(t0: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t0)
    if left <= 0:
        raise RunFailed(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def _start_worker(plan_path, t0, extra=(), results=None):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    argv = [sys.executable, WORKER, "--plan", plan_path, *extra]
    if results:
        argv += ["--results", results]
    log = open(os.path.join(os.path.dirname(plan_path), "worker.log"), "a")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
    log.close()
    LIVE.append(proc)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=_remaining(t0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        raise RunFailed(f"worker did not start:\n{_tail(plan_path)}")
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _tail(plan_path) -> str:
    try:
        with open(os.path.join(os.path.dirname(plan_path), "worker.log")) as fh:
            return fh.read()[-3000:]
    except OSError:
        return ""


def _wait(proc, t0, plan_path) -> None:
    try:
        proc.wait(timeout=_remaining(t0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RunFailed(f"worker ran past {DEADLINE_S:.0f} s")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}:\n{_tail(plan_path)}")


def _check(record, spec, refs, samples) -> list[str]:
    if record["code"] != 0:
        return [f"exit code {record['code']}: {record['stderr'].strip()[-300:]}"]
    out = spec["out"].replace("{round}", str(record["round"]))
    try:
        if spec["kind"] == "figures":
            return checks.check_figures(out, spec, refs)
        with open(out) as fh:
            doc = json.load(fh)
        if spec["kind"] == "solve":
            return checks.check_solve(doc, spec, refs)
        if spec["kind"] == "prizes":
            return checks.check_prizes(doc, spec, refs)
        if spec["kind"] == "verify":
            tally = spec["tally"].replace("{round}", str(record["round"]))
            return checks.check_verify(doc, tally, spec, refs)
        return checks.check_audit(doc, spec, *samples[record["id"]])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def run(args) -> dict:
    t0 = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "tourney", "cli.py")):
        raise RunFailed(f"no tourney sources under {os.path.join(ROOT, 'src')}")
    refs = References()
    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        warmup, commands, specs, samples = workloads.build(args.workload, args.seed, workdir, refs)
        plan = {"warmup": warmup, "commands": commands, "seconds": args.seconds,
                "workdir": workdir,
                "trace_path": os.path.join(RUNS, f"trace-{args.workload}-s{args.seed}.json")}
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)

        setups = []  # (seconds, mean calibration pass right after, in the same process)
        for _ in range(SETUP_PROBES):
            proc, seconds = _start_worker(plan_path, t0, ["--probe"])
            try:
                tail, _ = proc.communicate(timeout=_remaining(t0))
            except subprocess.TimeoutExpired:
                raise RunFailed(f"set-up probe ran past {DEADLINE_S:.0f} s")
            _wait(proc, t0, plan_path)
            setups.append((seconds, float(tail.split("CALIBRATION")[1])))
        results_path = os.path.join(workdir, "results.json")
        proc, seconds = _start_worker(plan_path, t0, ["--trace"] if args.trace else [], results_path)
        _wait(proc, t0, plan_path)
        with open(results_path) as fh:
            res = json.load(fh)
        setups.append((seconds, res["setup_calibration_s"]))

        records = res["records"]
        failed, unexpected = [], []
        for rec in records:
            spec = specs[rec["id"]]
            problems = _check(rec, spec, refs, samples)
            if problems:
                failed.append(rec)
                if "known_fault" not in spec:
                    unexpected.append(rec)
                print(f"FAILED {rec['id']} round {rec['round']} {spec['kind']} "
                      f"{spec.get('family', spec.get('which', ''))} n={spec.get('n', '')}: "
                      f"{'; '.join(problems)}", file=sys.stderr)
    finally:
        for proc in LIVE:
            _stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)

    _summary(args, res, records, specs, setups)
    wall = _end_to_end(records, len(failed), [s for s, _ in setups], res["peak_rss_mb"], 1.0)
    print("  wall-time metrics: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in wall.items()),
          file=sys.stderr)
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = _end_to_end(records, len(failed),
                              [s * REFERENCE_CALIBRATION_S / cal for s, cal in setups],
                              res["peak_rss_mb"], REFERENCE_CALIBRATION_S / res["calibration_s"])
    return {"correct": not unexpected, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def _end_to_end(records, failed: int, setups, peak_rss_mb: float, scale: float) -> dict:
    """End-to-end metrics with command times multiplied by ``scale``."""
    times = [r["seconds"] * scale for r in records]
    return {
        "goodput_ops_per_s": {"value": (len(records) - failed) / sum(times), "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def _summary(args, res, records, specs, setups) -> None:
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        by_kind.setdefault(specs[rec["id"]]["kind"], []).append(rec["seconds"])
    times = sorted(r["seconds"] for r in records)
    lines = [f"{args.workload} seed={args.seed}: {len(records)} commands in {res['rounds']} "
             f"round(s), {res['wall_seconds']:.2f} s; set-up "
             f"{', '.join(f'{s:.3f}' for s, _ in setups)} s; calibration pass "
             f"{1e3 * res['calibration_s']:.3f} ms (after set-up "
             f"{', '.join(f'{1e3 * c:.3f}' for _, c in setups)} ms); wall times:"]
    for kind, ts in sorted(by_kind.items()):
        lines.append(f"  {kind:8s} {len(ts):3d} commands, median {statistics.median(ts):.3f} s, "
                     f"max {max(ts):.3f} s")
    # the highest percentile with at least ten commands beyond it
    if len(times) >= 40:
        q = (len(times) - 10) / len(times)
        lines.append(f"  p{100 * q:.0f} command time {times[len(times) - 11]:.3f} s")
    print("\n".join(lines), file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its workers (the finally block in run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
