"""Benchmark command for hfda.

    python3 perfbench/run.py --workload fn_full --seed 1234 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) against the hfda sources in
``src/`` of the checkout that holds this file, checks its outputs, and
prints every metric by name and unit.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the run sets up at least ``SETUP_REPS`` times and for at
least ``SETUP_SECONDS``, then repeats the workload's round of fixed work
until ``--seconds`` have passed, and reports the end-to-end metrics as
medians over set-ups and rounds.  With
``--trace 1`` it alternates untraced and traced passes (set-up plus one
round) until ``--seconds`` have passed, and reports the per-layer metrics of
``tracer.py`` as medians over the traced passes, plus ``trace_overhead``:
the traced minus the untraced pass time.  ``--smoke`` runs the same code on
tiny inputs.

The exit code is 0 only when every correctness check passed.  Reference
fits are cached in fresh temporary directories inside the checkout, which
are removed at the end; ``runs/`` is never touched.
"""
from __future__ import annotations

import os

# Pinned before numpy is first imported: one process, one compute thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up runs at least SETUP_REPS times and until SETUP_SECONDS have passed,
# so that a cheap set-up is timed often enough for a steady median
SETUP_REPS = 3
SETUP_SECONDS = 3.0
CLOCK = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import hfda from this checkout's sources; exit if they are missing."""
    if not (SRC / "hfda" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hfda sources under {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hfda

    if Path(hfda.__file__).resolve().parent != SRC / "hfda":
        raise SystemExit(f"perfbench: imported hfda from {hfda.__file__}, not from {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Run:
    """One workload, its scratch directory and the tallies of a run."""

    def __init__(self, workload, scratch: str):
        from workloads import integration_steps

        self.workload = workload
        self.scratch = scratch
        self.steps = integration_steps
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.scratch)

    def setup(self):
        start = CLOCK()
        state = self.workload.setup(self.fresh_dir())
        elapsed = CLOCK() - start
        if "converged" in state:  # the set-up ran a reference fit
            self.attempted += 1
            self.failed += not state["converged"]
        return state, elapsed

    def round(self, state):
        steps, start = self.steps(), CLOCK()
        outcome = self.workload.round(state, self.fresh_dir())
        elapsed, steps = CLOCK() - start, self.steps() - steps
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        return elapsed, steps, outcome

    def check(self, state, rounds) -> dict:
        """Gate the outputs; returns the accuracy figures of the last round."""
        self.problems += self.workload.gate(state)
        if len({outcome.digest() for _, _, outcome in rounds}) != 1:
            self.problems.append("rounds produced different final iterates")
        if len({steps for _, steps, _ in rounds}) != 1:
            self.problems.append("rounds took different numbers of integration steps")
        errors, problems = self.workload.evaluate(state, rounds[-1][2])
        self.problems += problems
        for name, value in errors.items():
            if not math.isfinite(value):
                self.problems.append(f"{name} is not finite")
        return errors


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics and the detail figures."""
    setups = []
    start = CLOCK()
    while len(setups) < SETUP_REPS or CLOCK() - start < SETUP_SECONDS:
        setups.append(run.setup())
    state = setups[-1][0]
    rounds = []
    start = CLOCK()
    while not rounds or CLOCK() - start < seconds:
        rounds.append(run.round(state))
    errors = run.check(state, rounds)
    walls = [wall for wall, _, _ in rounds]
    outcomes = [outcome for _, _, outcome in rounds]
    metrics = {
        "setup_s": statistics.median(elapsed for _, elapsed in setups),
        "iters_per_s": statistics.median(o.iterations / o.solver_s for o in outcomes),
        "steps_per_s": statistics.median(steps / wall for wall, steps, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "rounds": len(rounds),
        "setups": len(setups),
        "work_s": statistics.median(walls),
        "digest": outcomes[-1].digest(),
        "integrate.steps_per_round": rounds[-1][1],
        "iterations_per_round": outcomes[-1].iterations,
        "round_s": walls,
        **{name: statistics.median(o.phases[name] for o in outcomes) for name in outcomes[-1].phases},
        **errors,
    }
    return metrics, details


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Traced run: per-layer metrics and the detail figures."""
    from tracer import Tracer

    rounds, untraced, traced, layers = [], [], [], []

    def one_pass(tracer):
        start, steps = CLOCK(), run.steps()
        with tracer or contextlib.nullcontext():
            state, _ = run.setup()
            rounds.append(run.round(state))
        return state, CLOCK() - start, run.steps() - steps

    start = CLOCK()
    while not traced or CLOCK() - start < seconds:
        _, elapsed, _ = one_pass(None)
        untraced.append(elapsed)
        tracer = Tracer()
        state, elapsed, steps = one_pass(tracer)
        traced.append(elapsed)
        layers.append(tracer.metrics(steps))
    errors = run.check(state, rounds)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead"] = statistics.median(traced) - statistics.median(untraced)
    details = {
        "passes": len(traced),
        "digest": rounds[-1][2].digest(),
        "untraced_pass_s": statistics.median(untraced),
        "traced_pass_s": statistics.median(traced),
        **errors,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fn_full", "lv_sampled", "fn_study"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    args = parser.parse_args(argv)

    load_package()
    from workloads import FULL, SMOKE, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, CLOCK)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        run = Run(workload, scratch)
        if args.trace:
            from tracer import UNITS

            metrics, details = measure_traced(run, args.seconds)
            units = {**UNITS, "trace_overhead": "s"}
        else:
            metrics, details = measure(run, args.seconds)
            units = END_TO_END_UNITS

    details["failed_share"] = run.failed / run.attempted
    print(f"# {args.workload} " + json.dumps(environment(args.seed), sort_keys=True))
    for name, value in details.items():
        print(f"# {name} = {value}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in run.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
