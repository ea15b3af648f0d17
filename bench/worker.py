"""One workload run in a fresh process: ``python -m bench.worker``.

``python -m bench`` starts this module once per set-up probe and once
for the measured run, with ``src`` on ``PYTHONPATH``. It builds the
workload from the seed and warms it up; the instant the timed region
starts is written to the result file (``ready``), and ``setup_s``
(:mod:`bench.run`) is that instant minus the moment it started this process.
Rounds then repeat until the next one would overrun ``--seconds``. With
``--trace 1`` rounds alternate untraced and traced, so one run gives the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass

from . import golden
from .metrics import PER_LAYER, median, percentile

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "REPRO_JOBS", "REPRO_SHARDS",
)


@dataclass
class _Done:
    round: object
    traced: bool
    layers: dict | None = None
    spans: dict | None = None


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {
                line.split()[-1] for line in maps if "openblas" in line.lower()
            }
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def environment() -> dict:
    """Machine, interpreter and BLAS facts every result file records."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _openblas_threads(),
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def _run_rounds(workload, seconds: float, trace: bool, workdir) -> list:
    from .trace import Tracer, layer_metrics, span_table

    done: list[_Done] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(done) % 2 == 1
        if traced:
            tracer = Tracer(workdir / f"trace-{len(done)}")
            with tracer:
                result = workload.run_round(tracer)
            spans = tracer.collect()
            shutil.rmtree(tracer.trace_dir)
            done.append(_Done(
                result, True,
                layer_metrics(spans, result.program, result.wall_s,
                              workload.jobs),
                span_table(spans),
            ))
        else:
            done.append(_Done(workload.run_round(), False))
        if len(done) < (2 if trace else 1):
            continue
        following = trace and len(done) % 2 == 1
        expected = median(
            [d.round.wall_s for d in done if d.traced == following]
        )
        if time.perf_counter() - start + expected > seconds:
            return done


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (pool
    workers), in MiB (``ru_maxrss`` is in KiB on Linux)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def summarize(name: str, done: list, expected: dict) -> dict:
    """Correctness, end-to-end and per-layer metrics of finished rounds."""
    plain = [d.round for d in done if not d.traced]
    traced = [d for d in done if d.traced]
    wrong = [golden.mismatches(expected, d.round.verdicts) for d in done]
    attempted = sum(d.round.attempted for d in done)
    failed = sum(d.round.failed for d in done)
    # Every timing is a per-round value, then the median over rounds, so
    # one round slowed by the host does not move the run's number.
    end_to_end = {
        "wall_s": median([r.wall_s for r in plain]),
        "verdicts_per_s": median([r.attempted / r.wall_s for r in plain]),
        "latency_p50_ms":
            median([percentile(r.latencies_ms, 50) for r in plain]),
        "latency_p99_ms":
            median([percentile(r.latencies_ms, 99) for r in plain]),
        "peak_rss_mb": _peak_rss_mb(),
        "failed_share": failed / attempted,
        "wrong_verdicts": sum(len(keys) for keys in wrong),
    }
    per_layer = None
    if traced:
        per_layer = {
            metric.name: median([d.layers[metric.name] for d in traced])
            for metric in PER_LAYER if metric.name in traced[0].layers
        }
        per_layer["bench.trace_overhead"] = (
            median([d.round.wall_s for d in traced]) / end_to_end["wall_s"]
            - 1.0
        )
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not any(wrong),
        "mismatches": sorted({key for keys in wrong for key in keys})[:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "rounds": [
            {"wall_s": d.round.wall_s, "traced": d.traced,
             "attempted": d.round.attempted, "failed": d.round.failed,
             "wrong_verdicts": len(keys),
             "latency_samples": len(d.round.latencies_ms)}
            for d, keys in zip(done, wrong)
        ],
        "spans": [d.spans for d in traced],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    from .workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    ready = time.perf_counter()
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}))
        return 0
    done = _run_rounds(workload, args.seconds, bool(args.trace), args.workdir)
    if args.update_golden:
        golden.save(args.workload, done[0].round.verdicts)
    result = summarize(args.workload, done, golden.load(args.workload))
    result.update(ready=ready, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=environment())
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
