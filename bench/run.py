"""Benchmark of the ``subfinsler`` command line on generated scenarios.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The client is a closed loop:
one process calls the public entry point ``subfinsler.cli.main`` on one
scenario file after another, one job at a time (``worker.py``).  Job
``i`` of a workload is generated from ``(--seed, i)`` (``workloads.py``);
the program sees only the scenario file.

A run is ``PASSES`` passes over the same job list, each in a fresh
worker process, so no in-process cache sees a job twice: the first pass
fixes the job list from its share of ``--seconds``, and the others
repeat it.  Before the passes, a fresh interpreter imports the CLI and
runs the first job cold, ``COLD_STARTS`` times: the set-up a
command-line user pays on every call.

Every time is reported at reference speed.  Where the cores are shared
with other work, the host's speed swings by up to 2x for tens of seconds
at a time, which no choice among passes can filter.  So each measured
wall time is rescaled by ``worker.to_reference`` with the time of the
workload's reference kernel run next to it (``worker.reference_seconds``),
which follows the same swings; the run also reports the host's measured
speed.
A job's time is the median of its rescaled passes, which drops a burst
that hit one pass.

After the passes, every job's first-pass outputs are checked against
independent oracles (``reference.py``), the other passes' and the cold
runs' output bytes are compared with the first pass, and a job fails on
an exception, a nonzero exit, a missing artifact, a check outside
tolerance, or differing bytes.  ``correct`` is false when a job that
exited 0 gave a wrong answer; a job that exits nonzero reports its own
failure and only counts in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
more pass with the layer functions wrapped by ``tracing.Tracer``, reports
per-layer metrics from it, and times each bundled scenario once.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
same numbers for people, plus the metrics that cannot enter the JSON
because they may be zero, and the run's provenance.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; child processes inherit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import worker  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("smooth_branch", "polyhedral_events", "polytope_certify")
# Passes per run; the first fixes the job list from 1/PASSES of --seconds.
PASSES = 3
# Cold interpreter runs per benchmark run; set-up time is their median.
COLD_STARTS = 5
TAIL_BEYOND = 10
# Each child process must end within this many seconds.
CHILD_TIMEOUT = 150


@dataclass
class Record:
    """One job: its median pass at reference speed and what the checks
    found."""

    index: int
    family: str
    seconds: float
    ok: bool
    wrong: bool
    reason: str = ""
    oracle_err: float | None = None
    oracle_switches: int = 0
    m_method: str | None = None


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def same_bytes(first: Path, second: Path) -> bool:
    if not (first.is_dir() and second.is_dir()):
        return False
    names = sorted(p.name for p in first.iterdir())
    if names != sorted(p.name for p in second.iterdir()):
        return False
    return all((first / n).read_bytes() == (second / n).read_bytes()
               for n in names)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND values beyond it
    (nearest rank), and that percentile."""
    n = len(values)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(math.ceil(pct * n / 100), 1)
    return sorted(values)[rank - 1], pct


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return wall, proc


def run_pass(args, work: Path, budget: list[str], *extra: str) -> dict:
    run_child([str(BENCH_DIR / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work), *budget, *extra])
    return json.loads((work / "result.json").read_text())


def cold_start(workload, seed: int, work: Path, run_id: int
               ) -> tuple[float, float, dict]:
    """Wall time of one fresh interpreter running job 0, the host speed
    around it, and the child's result."""
    job = workload.job(seed, 0)
    config = worker.scenario_path(work / "pass0", job)
    argv = worker.job_argv(job, config, work / "cold" / str(run_id))
    ref_before = worker.reference_seconds(workload.reference_kernel)
    wall, proc = run_child([str(BENCH_DIR / "cold_start.py"), str(SRC),
                            *argv])
    ref_s = 0.5 * (ref_before
                   + worker.reference_seconds(workload.reference_kernel))
    return (wall, worker.to_reference(1.0, ref_s),
            json.loads(proc.stdout.strip().splitlines()[-1]))


def judge(workload, seed: int, job_result: dict, seconds: float,
          out: Path) -> Record:
    index, family = job_result["index"], job_result["family"]
    if job_result["code"] != 0:
        return Record(index, family, seconds, False, False,
                      job_result["note"])
    job = workload.job(seed, index)
    try:
        found = workload.check(job, out)
    except Exception as exc:  # unreadable output is a wrong answer
        return Record(index, family, seconds, False, True,
                      f"check raised {exc!r}")
    return Record(index, family, seconds, found.ok, not found.ok,
                  found.reason, found.oracle_err, found.oracle_switches,
                  found.m_method)


def end_to_end(records: list[Record], setup: list[float], rss_mb: float,
               host_speed: float) -> tuple[dict, dict]:
    """The gated metrics, and the ones that go in the report only."""
    ms = [1e3 * r.seconds for r in records]
    tail_ms, pct = tail(ms)
    failed = sum(not r.ok for r in records)
    errs = [r.oracle_err for r in records if r.oracle_err is not None]
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "jobs_per_s": (len(records) / sum(r.seconds for r in records), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "fail_frac": (failed / len(records), "ratio"),
        "oracle_err_max": (max(errs) if errs else 0.0, "workload_unit"),
        "job_ms_tail_percentile": (pct, "%"),
        "jobs": (len(records), "count"),
        "host_speed": (host_speed, "ratio"),
    }
    return gated, info


def per_layer(records: list[Record], traced: dict, import_s: list[float],
              untraced_p50: float) -> dict:
    """Per-layer metrics of the traced pass.  Its times are rescaled to
    reference speed by the pass's median host speed; ``import_s`` is
    already rescaled."""
    totals = traced["totals"]
    jobs = len(records)
    traced_s = [worker.to_reference(j["seconds"], j["ref_s"])
                for j in traced["jobs"]]
    to_ms = 1e3 * statistics.median(worker.to_reference(1.0, j["ref_s"])
                                    for j in traced["jobs"])

    def stat(name: str, key: str, scale: float = 1.0) -> float:
        return scale * totals.get(name, {}).get(key, 0.0) / jobs

    def counter(key: str, only=None) -> float:
        return sum(v for job, k, v in traced["counters"]
                   if k == key and (only is None or job in only))

    out: dict[str, tuple[float, str]] = {}
    for name in ("dual_value", "value", "unit_face", "grad_dual_energy",
                 "regime_id"):
        out[f"convex.{name}.calls_per_job"] = (
            stat(f"convex.{name}", "calls"), "count")
        out[f"convex.{name}.self_ms_per_job"] = (
            stat(f"convex.{name}", "self_s", to_ms), "ms")
    out["convex.norm_from_json.ms_per_job"] = (
        stat("convex.norm_from_json", "total_s", to_ms), "ms")
    for name in ("exp", "adjoint_matrix", "coadjoint_dual_point",
                 "ad_matrix"):
        out[f"groups.{name}.calls_per_job"] = (
            stat(f"groups.{name}", "calls"), "count")
        out[f"groups.{name}.self_ms_per_job"] = (
            stat(f"groups.{name}", "self_s", to_ms), "ms")
    for name in ("integrate_smooth", "integrate_polyhedral",
                 "detect_branching", "check_constant_speed",
                 "write_trajectory_csv"):
        out[f"flow.{name}.self_ms_per_job"] = (
            stat(f"flow.{name}", "self_s", to_ms), "ms")
    steps = counter("flow.steps")
    out["flow.steps_per_job"] = (steps / jobs, "count")
    out["flow.events_per_job"] = (counter("flow.events") / jobs, "count")
    out["flow.csv_bytes_per_job"] = (counter("flow.csv_bytes") / jobs, "B")
    with_oracle = {r.index for r in records if r.oracle_switches}
    switches = sum(r.oracle_switches for r in records)
    out["flow.events_per_switch"] = (
        counter("flow.events", with_oracle) / switches if switches else 0.0,
        "ratio")
    face_calls = totals.get("polyhedra.face_of", {}).get("calls", 0.0)
    out["flow.face_probes_per_step"] = (
        face_calls / steps if steps else 0.0, "ratio")
    out["polyhedra.face_of.calls_per_job"] = (
        stat("polyhedra.face_of", "calls"), "count")
    out["polyhedra.face_of.self_ms_per_job"] = (
        stat("polyhedra.face_of", "self_s", to_ms), "ms")
    for name in ("faces", "star_covering", "from_vertices"):
        out[f"polyhedra.{name}.self_ms_per_job"] = (
            stat(f"polyhedra.{name}", "self_s", to_ms), "ms")
    out["polyhedra.lp.calls_per_job"] = (stat("polyhedra.lp", "calls"),
                                         "count")
    out["polyhedra.lp.ms_per_job"] = (stat("polyhedra.lp", "total_s", to_ms),
                                      "ms")
    coverings = totals.get("polyhedra.star_covering", {}).get("calls", 0.0)
    lp_calls = totals.get("polyhedra.lp", {}).get("calls", 0.0)
    out["polyhedra.lp_per_covering"] = (
        lp_calls / coverings if coverings else 0.0, "ratio")
    for name in ("certify_trajectory", "adjoint_bracket_bound",
                 "verify_face_stability", "abelianized_minimality"):
        out[f"certify.{name}.self_ms_per_job"] = (
            stat(f"certify.{name}", "self_s", to_ms), "ms")
    out["certify.sampled_m_share"] = (
        sum(r.m_method == "sampled" for r in records) / jobs, "ratio")
    out["cli.main.self_ms_per_job"] = (stat("cli.main", "self_s", to_ms), "ms")
    out["cli.load_scenario.ms_per_job"] = (
        stat("cli.load_scenario", "total_s", to_ms), "ms")
    out["cli.import_s"] = (statistics.median(import_s), "s")
    out["trace.overhead_frac"] = (
        statistics.median(traced_s) / untraced_p50 - 1.0, "ratio")
    errs = [r.oracle_err for r in records if r.oracle_err is not None]
    out["oracle_err_max"] = (max(errs) if errs else 0.0, "workload_unit")
    return out


def provenance(args) -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "passes": PASSES, "cold_starts": COLD_STARTS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "subfinsler" / "cli.py").is_file():
        print(f"no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)

    cold = [cold_start(workload, args.seed, work, k)
            for k in range(COLD_STARTS)]

    # Pass 0 fixes the job list; later passes repeat it and must write
    # the same bytes.
    first = run_pass(args, work / "pass0",
                     ["--seconds", str(args.seconds / PASSES)])
    count = ["--jobs", str(len(first["jobs"]))]
    passes = [first]
    mismatched: dict[int, str] = {}

    def compare(label: str, pass_dir: Path) -> None:
        for job in first["jobs"]:
            i = job["index"]
            if job["code"] == 0 and not same_bytes(
                    pass_dir / "jobs" / str(i),
                    work / "pass0" / "jobs" / str(i)):
                mismatched.setdefault(i, f"{label} wrote different bytes")

    for p in range(1, PASSES):
        passes.append(run_pass(args, work / f"pass{p}", count))
        compare(f"pass {p}", work / f"pass{p}")
        shutil.rmtree(work / f"pass{p}")
    traced = None
    if args.trace:
        traced = run_pass(args, work / "traced", count, "--trace")
        compare("traced pass", work / "traced")
        shutil.rmtree(work / "traced" / "jobs")
    for k, (_, _, result) in enumerate(cold):
        if result["code"] != 0 or not same_bytes(
                work / "cold" / str(k), work / "pass0" / "jobs" / "0"):
            mismatched.setdefault(0, f"cold run {k} wrote different bytes")

    records = []
    for job in first["jobs"]:
        i = job["index"]
        seconds = statistics.median(
            worker.to_reference(p["jobs"][i]["seconds"], p["jobs"][i]["ref_s"])
            for p in passes)
        record = judge(workload, args.seed, job, seconds,
                       work / "pass0" / "jobs" / str(i))
        if record.ok and i in mismatched:
            record.ok, record.wrong, record.reason = False, True, mismatched[i]
        records.append(record)

    rss_mb = max(p["rss_mb"] for p in passes)
    host_speed = statistics.median(
        worker.to_reference(1.0, j["ref_s"])
        for p in passes for j in p["jobs"])
    setup = [wall * speed for wall, speed, _ in cold]
    gated, info = end_to_end(records, setup, rss_mb, host_speed)
    report = {"provenance": provenance(args),
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in {**gated, **info}.items()},
              "families": {f: sum(r.family == f for r in records)
                           for f in dict.fromkeys(workload.families)},
              "failures": [{"job": r.index, "family": r.family,
                            "wrong": r.wrong, "reason": r.reason}
                           for r in records if not r.ok]}
    if traced is not None:
        untraced_p50 = statistics.median(
            statistics.median(worker.to_reference(j["seconds"], j["ref_s"])
                              for j in p["jobs"])
            for p in passes)
        metrics = per_layer(records, traced,
                            [result["import_s"] * speed
                             for _, speed, result in cold], untraced_p50)
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}
        report["bundled_ms"] = traced["bundled_ms"]
    else:
        metrics = gated
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {workload.name}: {json.dumps(report['provenance'])}")
    for section in ("end_to_end", "per_layer"):
        for key, entry in report.get(section, {}).items():
            print(f"# {section} {key} = {entry['value']:.6g} {entry['unit']}")
    for key, value in report.get("bundled_ms", {}).items():
        print(f"# bundled {key} = {value} ms")
    for failure in report["failures"]:
        print(f"# failed job {failure['job']} ({failure['family']}): "
              f"{failure['reason']}")
    print(json.dumps({
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
