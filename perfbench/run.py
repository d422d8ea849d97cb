"""linksig benchmark: whole CLI runs in fresh interpreters, checked by exact oracles.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seconds S     # every workload
  python3 perfbench/run.py --smoke                        # tiny sizes, seconds

Load is a closed loop of one client: one child interpreter at a time runs
``linksig.cli.main(argv)`` on generated input files, and the next starts when
it has exited and its output has been checked.  The loop runs for about
``--seconds`` seconds and reports medians over the runs it made.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones, plus ``trace.overhead_s``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The program comes from ``src/`` of the checkout; ``LINKSIG_THREADS`` and
``LINKSIG_BACKEND`` are removed from the children's environment so that the
defaults are measured.  The BLAS thread environment is passed through as is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib.util import find_spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, "work")

CHILD_TIMEOUT_S = 150
MIN_RUNS = 3
EXIT_OK, EXIT_UNCERTAIN, EXIT_NUMERICAL = 0, 3, 4  # linksig's CLI exit codes
# The child's probe loop takes about this long on the 2-core machine the
# benchmark was written on, at its faster speed; timings are rescaled to it.
PROBE_REFERENCE_S = 0.0022
DROPPED_ENV = ("LINKSIG_THREADS", "LINKSIG_BACKEND")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# End-to-end metric units; perfbench/README.md defines each metric.
END_TO_END_UNITS = {
    "run_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "certified_rate": "ratio",
    "oracle_match_rate": "ratio",
}


@dataclass
class Tally:
    """Outputs of every run of one workload, summed."""

    runs: int = 0
    samples: int = 0
    errors: int = 0
    uncertain: int = 0
    evaluated: int = 0
    checked: int = 0
    mismatches: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, check) -> None:
        self.runs += 1
        self.samples += check.samples
        self.errors += check.errors
        self.uncertain += check.uncertain
        self.evaluated += check.evaluated
        self.checked += check.checked
        self.mismatches += check.mismatches
        self.problems += check.problems

    @property
    def correct(self) -> bool:
        return self.runs > 0 and not self.problems and self.mismatches == 0


def _revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def _environment_lines(args) -> list[str]:
    import numpy

    blas = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV)
    dropped = " ".join(f"{k}={os.environ[k]}" for k in DROPPED_ENV if k in os.environ) or "none"
    return [
        f"# linksig benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# revision {_revision()}",
        f"# nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, numba {'present' if find_spec('numba') else 'absent'}",
        f"# blas env: {blas}",
        f"# removed from the children's environment: {dropped}",
        "# load: closed loop, one client, one child interpreter at a time",
    ]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def invoke(name: str, prep, check_fn, workdir: str, trace: bool, tally: Tally) -> dict | None:
    """One child run of the workload's command; its output is checked into ``tally``."""
    result_path = os.path.join(workdir, "result.json")
    stdout_path = os.path.join(workdir, "stdout.txt")
    for path in (result_path, prep.output):
        if path and os.path.exists(path):
            os.remove(path)
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": prep.argv, "inputs": prep.inputs, "trace": trace, "output": prep.output,
                   "result": result_path, "spans": os.path.join(WORK, f"spans-{name}.tsv")}, fh)
    with open(stdout_path, "w", encoding="utf-8") as out:
        try:
            proc = subprocess.run([sys.executable, CHILD, spec_path], cwd=ROOT, env=_child_env(),
                                  stdout=out, stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.add(_failed_check(prep, f"child exceeded {CHILD_TIMEOUT_S} s"))
            return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        tally.add(_failed_check(prep, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"))
        return None
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    code = result["exit_code"]
    if code == EXIT_NUMERICAL:
        check = _failed_check(prep, None)
    elif code in (EXIT_OK, EXIT_UNCERTAIN):
        check = check_fn(prep, stdout_path)
    else:
        check = _failed_check(prep, f"command exited {code}: {proc.stderr.strip()[-400:]}")
    tally.add(check)
    result["samples"] = check.samples
    _rescale(result)
    return result


def _rescale(result: dict) -> None:
    """Add the run's times at the reference host speed, as *_ref keys.

    The probe time is taken out of the run and CPU times, and what remains
    is scaled by the reference probe time over the mean probe time seen
    during the run.  Per-layer self times get the same factor.
    """
    factor = PROBE_REFERENCE_S / result["probe_mean_s"]
    result["speed_factor"] = factor
    result["run_s_ref"] = (result["run_s"] - result["probe_total_s"]) * factor
    result["cpu_s_ref"] = (result["cpu_s"] - result["probe_total_s"]) * factor
    for name, value in result.get("layers", {}).items():
        if name.endswith("_s"):
            result["layers"][name] = value * factor


def _failed_check(prep, problem: str | None):
    from workloads import Check

    check = Check(samples=prep.samples, errors=prep.samples)
    if problem:
        check.problems.append(problem)
    return check


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Prepare one workload, run its closed loop and return (tally, metrics, notes)."""
    import workloads

    prepare, check_fn = workloads.WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        prep = prepare(workdir, seed, smoke)
        tally = Tally()
        plain: list[dict] = []
        traced: list[dict] = []
        walls = {False: [], True: []}
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            with_trace = trace and index % 2 == 1
            start = time.perf_counter()
            result = invoke(name, prep, check_fn, workdir, with_trace, tally)
            walls[with_trace].append(time.perf_counter() - start)
            if result is not None:
                (traced if with_trace else plain).append(result)
            index += 1
            if smoke:
                if index >= (2 if trace else 1):
                    break
                continue
            next_trace = trace and index % 2 == 1
            estimate = statistics.median(walls[next_trace] or walls[not next_trace])
            # start another run while at least half of it fits before the deadline
            if index >= MIN_RUNS and time.perf_counter() + estimate / 2 > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = plain + traced
    notes = [f"# command: linksig {' '.join(os.path.relpath(a, workdir) if os.path.isabs(a) else a for a in prep.argv)}",
             f"# runs: {len(plain)} untraced, {len(traced)} traced"]
    if runs:
        notes.append(f"# host speed factor (reference probe / probe during the run): median "
                     f"{_median(runs, 'speed_factor'):.3f}, range {min(r['speed_factor'] for r in runs):.3f}"
                     f" to {max(r['speed_factor'] for r in runs):.3f}")
        notes.append(f"# unscaled wall time of the untraced runs: median {_median(plain, 'run_s'):.4f} s")
    if traced:
        notes.append(f"# absent layer functions (0 calls): {', '.join(traced[0]['absent']) or 'none'}")
    if trace:
        metrics = _layer_metrics(plain, traced)
    else:
        metrics = _end_to_end_metrics(plain, tally)
    return tally, metrics, notes


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results) if results else 0.0


def _end_to_end_metrics(plain: list[dict], tally: Tally) -> dict[str, float]:
    return {
        "run_s": _median(plain, "run_s_ref"),
        "samples_per_s": statistics.median(r["samples"] / r["run_s_ref"] for r in plain) if plain else 0.0,
        "setup_s": _median(plain, "setup_s"),
        "cpu_s": _median(plain, "cpu_s_ref"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "ok_rate": 1.0 - tally.errors / tally.samples if tally.samples else 0.0,
        "certified_rate": 1.0 - tally.uncertain / tally.evaluated if tally.evaluated else 0.0,
        "oracle_match_rate": 1.0 - tally.mismatches / tally.checked if tally.checked else 0.0,
    }


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    import tracing

    metrics = {}
    for name, _unit, _better in tracing.layer_metric_specs():
        if name == "trace.overhead_s":
            metrics[name] = _median(traced, "run_s_ref") - _median(plain, "run_s_ref")
        else:
            values = [r["layers"][name] for r in traced]
            metrics[name] = statistics.median(values) if values else 0.0
    return metrics


def _units(trace: bool) -> dict[str, str]:
    if trace:
        import tracing

        return {name: unit for name, unit, _better in tracing.layer_metric_specs()}
    return END_TO_END_UNITS


def _report_lines(name: str, tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    lines = [f"# oracle: {tally.checked} samples checked over {tally.runs} runs, "
             f"{'correct' if tally.correct else 'NOT correct'}"]
    lines += [f"# problem: {p}" for p in tally.problems[:10]]
    for metric, value in metrics.items():
        lines.append(f"{name}  {metric:<40} {value:>16.6g} {units[metric]}")
    for metric, count, base in (("error_rate", tally.errors, tally.samples),
                                ("uncertain_rate", tally.uncertain, tally.evaluated)):
        lines.append(f"{name}  {metric:<40} {count / base if base else 0.0:>16.6g} ratio"
                     f"  ({count} of {base})")
    lines.append(f"{name}  {'oracle_mismatch':<40} {tally.mismatches:>16d} count"
                 f"  (of {tally.checked} checked)")
    return lines


def _smoke() -> int:
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        start = time.perf_counter()
        tally, metrics, _notes = measure(name, 0, 0.0, trace=True, smoke=True)
        calls = sum(v for k, v in metrics.items() if k.endswith(".calls"))
        print(f"smoke {name}: {'ok' if tally.correct else 'FAILED'}, {tally.samples} samples, "
              f"{tally.mismatches} mismatches, {calls} traced calls, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        for problem in tally.problems[:5]:
            print(f"  problem: {problem}")
        ok = ok and tally.correct
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one run of each workload")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "linksig", "__init__.py")):
        sys.stderr.write(f"error: no linksig package under {SRC}; run from a linksig checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.smoke:
        return _smoke()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        sys.stderr.write(f"error: unknown workload {unknown[0]!r}; known: {', '.join(workloads.WORKLOADS)}, all\n")
        return 2

    for line in _environment_lines(args):
        print(line)
    units = _units(bool(args.trace))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        tally, metrics, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        for line in notes + _report_lines(name, tally, metrics, units):
            print(line, flush=True)
        combined["correct"] = combined["correct"] and tally.correct
        combined["attempted"] += tally.samples
        combined["failed"] += tally.errors
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in metrics.items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    combined["attempted"] = max(combined["attempted"], 1)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
