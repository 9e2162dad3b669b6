"""One pass of a benchmark run: a fresh interpreter runs a job list.

Usage::

    python3 worker.py --workload NAME --seed N --out DIR
                      (--seconds S | --jobs N) [--trace]

The worker is the benchmark's client: it calls ``subfinsler.cli.main``
in this process on one generated scenario after another, one at a time,
and writes each job's outputs to ``DIR/jobs/<index>/``.  Between jobs it
times the workload's reference kernel (``reference_seconds``), fixed
work that does not call the program, so the caller can rescale each
job's wall time to a fixed host speed.  With ``--seconds`` it runs
whole rounds over the workload's families until their rescaled time
reaches S (at least ``MIN_JOBS`` jobs); with ``--jobs`` it runs exactly
that many.  It writes ``DIR/result.json`` with per-job wall times, the
kernel time around each job and exit codes, and its peak resident set.
With ``--trace`` it adds the per-layer totals of ``tracing.Tracer``
(spans go to ``DIR/spans.npz``) and times each bundled scenario once.
Checking the outputs is left to the caller.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
# The tail percentile needs at least ten jobs beyond it.  Three rounds
# of polytope_certify's nine slots put its median and tail job inside
# the cube slots; the other workloads fill more jobs in their time.
MIN_JOBS = 27
# Reference speed: the host speed at which a reference kernel takes
# exactly this long.
REF_NOMINAL_S = 0.014
_REF_MAT = np.array([[0.6, -0.3, 0.2], [0.4, 0.9, -0.1], [-0.2, 0.3, 0.7]])
# A 4-variable LP with 12 inequality rows, feasible at 0 and bounded.
_REF_LP = {"c": np.array([0.3, -1.0, 0.5, 0.2]),
           "A_ub": np.random.default_rng(0).standard_normal((12, 4)),
           "b_ub": np.ones(12), "A_eq": np.ones((1, 4)), "b_eq": [0.0],
           "bounds": [(-1.0, 1.0)] * 4, "method": "highs"}
# Bundled scenarios and their subcommands, as in the acceptance tests'
# determinism criterion.
SCENARIO_COMMANDS = {
    "abelian_euclidean": "integrate",
    "abelian_l1": "integrate",
    "affine_corner_half": "branch",
    "affine_corner_pair": "branch",
    "heisenberg_carnot": "certify",
    "heisenberg_finsler_certify": "certify",
    "heisenberg_rootsum_pair": "branch",
    "heisenberg_shortcut": "shortcut",
    "heisenberg_vertical": "integrate",
    "hexagon_faces": "faces",
    "rotation_axis_pair": "branch",
}


def _interpreter_kernel() -> None:
    total = 0.0
    for i in range(50_000):
        total += i * i % 7
    x = np.ones(3)
    for _ in range(1_000):
        x = _REF_MAT @ x
        x = x / np.linalg.norm(x)
        total += np.maximum(x, 0.0).sum() + float(x[0])


def _lp_kernel() -> None:
    for _ in range(6):
        linprog(**_REF_LP)


# A workload's kernel does the kind of work its jobs spend their time on:
# interpreter and 3-vector numpy work, or small HiGHS LPs.  The two kinds
# speed up by different amounts when the host speeds up: over 170 s of
# swings, LP-bound certify jobs kept within 4% of the LP kernel's time
# but moved 8% against the interpreter kernel, and RK4-bound branch jobs
# the other way round.
REFERENCE_KERNELS = {"interpreter": _interpreter_kernel, "lp": _lp_kernel}


def reference_seconds(kernel: str) -> float:
    """Wall time of one run of a reference kernel.

    The kernels share no code with the program.  On shared cores their
    time follows the host's speed swings (up to 2x over tens of seconds),
    so ``REF_NOMINAL_S / reference_seconds(kernel)`` is the host's speed
    relative to the reference.
    """
    t0 = perf_counter()
    REFERENCE_KERNELS[kernel]()
    return perf_counter() - t0


def to_reference(seconds: float, ref_s: float) -> float:
    """A wall time measured next to a kernel time, at reference speed."""
    return seconds * REF_NOMINAL_S / ref_s


def scenario_path(work: Path, job) -> Path:
    """Write the job's scenario once per run; passes share the file."""
    path = work.parent / "scenarios" / f"{job.name}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(job.scenario, indent=1))
    return path


def job_argv(job, config: Path, out: Path) -> list[str]:
    return [job.command, "--config", str(config), "--out", str(out),
            "--quiet"]


def run_job(cli, argv: list[str]) -> tuple[int | None, float, str]:
    """Exit code (None if the call raised), wall seconds, a note."""
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # the job fails; the pass goes on
        return None, perf_counter() - t0, f"raised {exc!r}"
    return code, perf_counter() - t0, f"exit code {code}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--jobs", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from subfinsler import cli
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = Path(args.out)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # Warm-up: first calls pay lazy imports that no later job pays.
    first = workload.job(args.seed, 0)
    run_job(cli, job_argv(first, scenario_path(work, first),
                          work / "warmup"))
    shutil.rmtree(work / "warmup", ignore_errors=True)

    tracer = tracing.Tracer() if args.trace else None
    rounds = len(workload.families)
    jobs = []
    timed = 0.0
    index = 0
    ref_before = reference_seconds(workload.reference_kernel)
    while (index < args.jobs if args.jobs is not None else
           timed < args.seconds or index < MIN_JOBS or index % rounds):
        job = workload.job(args.seed, index)
        argv = job_argv(job, scenario_path(work, job),
                        work / "jobs" / str(index))
        if tracer is None:
            code, seconds, note = run_job(cli, argv)
        else:
            tracer.job_id = index
            with tracer.installed():
                code, seconds, note = run_job(cli, argv)
        ref_after = reference_seconds(workload.reference_kernel)
        ref_s = 0.5 * (ref_before + ref_after)
        jobs.append({"index": index, "family": job.family,
                     "seconds": seconds, "ref_s": ref_s, "code": code,
                     "note": note})
        timed += to_reference(seconds, ref_s)
        ref_before = ref_after
        index += 1

    result = {"jobs": jobs,
              "rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["counters"] = [[job, key, value] for (job, key), value
                              in sorted(tracer.counters.items())]
        tracer.save(work / "spans.npz")
        result["bundled_ms"] = {}
        for name, command in SCENARIO_COMMANDS.items():
            code, seconds, _ = run_job(cli, [
                command, "--config", name, "--out",
                str(work / "bundled" / name), "--quiet"])
            result["bundled_ms"][f"{name}.{command}"] = (
                1e3 * seconds if code == 0 else None)
    (work / "result.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
