"""Run workloads in fresh processes, print their metrics, keep results.

For each workload ``python -m bench`` starts ``python -m bench.worker`` three
times, one after another: twice to set up only, once to set up and
measure. ``setup_s`` is the median of the three set-up times, each from
process start to the start of the timed region. Only one worker process
runs at a time, so with the pooled workloads' two runner workers at most
two processes are busy on the two-CPU reference machine. BLAS threading
is left at the program's default and recorded in every result file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

from .metrics import END_TO_END, PER_LAYER, median

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("table1-ladder", "cegis-loop", "fuzz-small", "certify-stream")
SETUP_RUNS = 3
#: Seconds a set-up probe may take, and a measured run beyond --seconds.
SETUP_TIMEOUT = 60.0
RUN_GRACE = 120.0
RESULT_SCHEMA = "repro-bench-run/1"


class WorkerError(RuntimeError):
    pass


def _spawn(options: list, result_path: pathlib.Path, timeout: float,
           log_path: pathlib.Path) -> tuple[dict, float]:
    """Run one worker to completion; return its result and start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-m", "bench.worker", *options,
             "--result", str(result_path)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise WorkerError(f"worker exceeded {timeout:.0f}s")
    if code != 0 or not result_path.exists():
        raise WorkerError(f"worker exited with code {code}")
    return json.loads(result_path.read_text()), started


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 out_dir: pathlib.Path, update_golden: bool = False) -> dict:
    """Set up three times, measure once, and return the result record."""
    began = time.time()
    work = out_dir / f"work-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    options = ["--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(work)]
    log = work / "worker.log"
    setups = []
    try:
        for probe in range(SETUP_RUNS - 1):
            payload, started = _spawn(
                options + ["--setup-only"], work / f"setup-{probe}.json",
                SETUP_TIMEOUT, log,
            )
            setups.append(payload["ready"] - started)
        result, started = _spawn(
            options + (["--update-golden"] if update_golden else []),
            work / "result.json", SETUP_TIMEOUT + seconds + RUN_GRACE, log,
        )
        setups.append(result["ready"] - started)
    except WorkerError:
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["schema"] = RESULT_SCHEMA
    result["started"] = began
    result["setup_samples_s"] = setups
    result["end_to_end"]["setup_s"] = median(setups)
    return result


def reported(result: dict) -> dict:
    """The metrics the last output line carries for this run."""
    if result["trace"]:
        table, values = PER_LAYER, result["per_layer"]
    else:
        table, values = END_TO_END, result["end_to_end"]
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in table
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Run the benchmark of record (see bench/README.md). "
        "Subcommands: 'compare BASE HEAD', 'summary DIR...'.",
    )
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES, action="append",
        help="workload to run (repeatable; default: all four in order)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced rounds and "
                        "report per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "bench" / "out",
                        help="directory for the JSON result files")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite bench/golden/<workload>.json from "
                        "this run's first round")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(WORKLOAD_NAMES)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.out, args.update_golden)
        except WorkerError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = args.out / (f"{name}-seed{args.seed}-trace{args.trace}-"
                           f"{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(result, indent=1) + "\n")
        metrics = reported(result)
        for metric, entry in metrics.items():
            print(f"{name:<15} {metric:<30} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
        for metric in ("failed_share", "wrong_verdicts"):
            print(f"{name:<15} {metric:<30} "
                  f"{result['end_to_end'][metric]:>14.6g}")
        if result["mismatches"]:
            print(f"{name:<15} golden mismatches: "
                  + ", ".join(result["mismatches"]))
        print(f"{name:<15} result: {path}")
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update(
                {f"{name}.{metric}": entry for metric, entry in metrics.items()}
            )
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
