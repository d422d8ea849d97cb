"""Run one linksig command in this fresh interpreter and record its cost.

Usage: python3 child.py SPEC.json

SPEC names the CLI argv, the input files to load for the set-up timing,
whether to trace, and where to write the result JSON.  Set-up is the time to
import linksig and load the inputs with the public loaders; the run is one
call of ``linksig.cli.main(argv)``.
"""

import sys
import time

T0 = time.perf_counter()

import cmath  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

import linksig  # noqa: E402
from linksig import cli  # noqa: E402

LOADERS = {
    "link": linksig.load_link,
    "slope": linksig.load_slope,
    "presentation": linksig.load_presentation,
}


SAMPLE_INTERVAL_S = 0.1
PROBE_ITERATIONS = 600


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop (Fraction and complex arithmetic)."""
    start = time.perf_counter()
    total = Fraction(0)
    z = 0j
    for i in range(1, PROBE_ITERATIONS):
        total += Fraction(i % 97, 31) * 3
        z += cmath.exp(1j * (i % 13))
    return time.perf_counter() - start


class SpeedSampler:
    """Times the probe loop every SAMPLE_INTERVAL_S while the command runs.

    The host's speed drifts by up to 2x within seconds, so one probe before
    and after a run misses changes during it.  A SIGALRM handler runs the
    probe in this thread between bytecodes; the run's time minus the probes'
    time, divided by the mean probe time, is the run's cost at a fixed speed.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe_s())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    for kind, path in spec["inputs"]:
        LOADERS[kind](path)
    setup_s = time.perf_counter() - T0

    entry = cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        entry = tracer.wrap(tracing.ROOT, cli.main)

    before = resource.getrusage(resource.RUSAGE_SELF)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        code = entry(spec["argv"])
        run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()
    probes = sampler.probes or [probe_s()]

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "probe_total_s": sum(sampler.probes),
        "probe_mean_s": sum(probes) / len(probes),
    }
    if tracer is not None:
        out_path = spec["output"]
        if out_path is None:
            size = os.fstat(sys.stdout.fileno()).st_size
        else:
            size = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        result["layers"] = tracer.layer_metrics(size)
        result["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
