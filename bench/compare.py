"""``python -m bench compare BASE HEAD`` and ``python -m bench summary DIR``.

``compare`` judges HEAD's result files against BASE's, one row per
workload and end-to-end metric, with the bounds in ``BENCHMARK.json``
by this rule:

* runs of each side are paired in the order they started, so run the
  two commits alternately and drift hits both sides alike;
* ``better`` needs at least 10 pairs, HEAD winning at least nine tenths
  of them (ties count for neither), and medians that differ by more than
  the interquartile distance of BASE's runs;
* ``worse`` when HEAD's median is worse than BASE's by more than the
  bound, as a share of BASE's median, and either every HEAD run reads
  worse than every BASE run or neither side's spread exceeds the bound;
* ``unresolved`` when either side's interquartile distance, as a share
  of its median, is wider than the bound, unless every HEAD run reads
  better than every BASE run;
* ``within-bound`` otherwise.

``failed_share`` and ``wrong_verdicts`` have bound 0: any HEAD run with
a nonzero value is ``worse``. ``summary`` prints the median and
quartiles of every metric per workload as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict

from .run import RESULT_SCHEMA, ROOT
from .metrics import CORRECTNESS, END_TO_END, median, quartiles, relative_spread

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(paths, trace: int = 0) -> dict:
    """``{workload: [result, ...]}`` from result files or directories of
    them, ordered by start time."""
    runs = defaultdict(list)
    for path in map(pathlib.Path, paths):
        files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
        for file in files:
            result = json.loads(file.read_text())
            if result.get("schema") == RESULT_SCHEMA and (
                result["trace"] == trace
            ):
                runs[result["workload"]].append(result)
    for results in runs.values():
        results.sort(key=lambda result: result["started"])
    return dict(runs)


def judge(base: list, head: list, better: str, bound: float) -> dict:
    """One row of the comparison for one metric's two samples."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    head_median = median(head)
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) < 0 for b, h in pairs)
    losses = sum(sign * (h - b) > 0 for b, h in pairs)
    change = sign * (head_median - base_median) / abs(base_median)
    spread = max(relative_spread(base), relative_spread(head))
    if better == "lower":
        dominates, dominated = max(head) < min(base), min(head) > max(base)
    else:
        dominates, dominated = min(head) > max(base), max(head) < min(base)
    if dominated and change > bound:
        verdict = "worse"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif (
        len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
        and abs(head_median - base_median) > base_q3 - base_q1
        and change < 0
    ):
        verdict = "better"
    elif change > bound:
        verdict = "worse"
    else:
        verdict = "within-bound"
    return {
        "pairs": len(pairs), "wins": wins, "losses": losses,
        "base_median": base_median, "head_median": head_median,
        "change": change, "spread": spread, "verdict": verdict,
    }


def compare(base_runs: dict, head_runs: dict, bounds: dict) -> list[dict]:
    rows = []
    for workload in sorted(base_runs.keys() & head_runs.keys()):
        base, head = base_runs[workload], head_runs[workload]
        for metric in END_TO_END:
            row = judge(
                [r["end_to_end"][metric.name] for r in base],
                [r["end_to_end"][metric.name] for r in head],
                metric.better, bounds[metric.name],
            )
            rows.append({"workload": workload, "metric": metric.name,
                         "unit": metric.unit, "bound": bounds[metric.name],
                         **row})
        for metric in CORRECTNESS:
            worst = max(r["end_to_end"][metric.name] for r in head)
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "bound": 0.0, "pairs": min(
                    len(base), len(head)),
                "base_median": median(
                    [r["end_to_end"][metric.name] for r in base]),
                "head_median": median(
                    [r["end_to_end"][metric.name] for r in head]),
                "verdict": "worse" if worst > 0 else "within-bound",
            })
    return rows


def summarize(runs: dict, traced: dict) -> dict:
    """Median and quartiles per workload and metric (the baseline)."""
    out = {}
    for workload, results in sorted(runs.items()):
        entry = {}
        for metric in END_TO_END + CORRECTNESS:
            values = [r["end_to_end"][metric.name] for r in results]
            q1, middle, q3 = quartiles(values)
            entry[metric.name] = {
                "unit": metric.unit, "median": middle, "q1": q1, "q3": q3,
                "iqr_share": relative_spread(values) if middle else 0.0,
                "runs": len(values),
            }
        out[workload] = {"end_to_end": entry}
    for workload, results in sorted(traced.items()):
        layers = defaultdict(list)
        for result in results:
            for name, value in result["per_layer"].items():
                layers[name].append(value)
        out.setdefault(workload, {})["per_layer"] = {
            name: median(values) for name, values in layers.items()
        }
    return out


def _print_rows(rows) -> None:
    header = (f"{'workload':<15} {'metric':<16} {'base':>12} {'head':>12} "
              f"{'change':>8} {'spread':>7} {'bound':>6} {'pairs':>5} verdict")
    print(header)
    for row in rows:
        change = row.get("change")
        spread = row.get("spread")
        print(
            f"{row['workload']:<15} {row['metric']:<16} "
            f"{row['base_median']:>12.5g} {row['head_median']:>12.5g} "
            f"{'' if change is None else f'{change:+.1%}':>8} "
            f"{'' if spread is None else f'{spread:.1%}':>7} "
            f"{row['bound']:>6.0%} {row['pairs']:>5} {row['verdict']}"
        )


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    compare_cmd = commands.add_parser(
        "compare", help="judge HEAD's runs against BASE's")
    compare_cmd.add_argument("base", type=pathlib.Path)
    compare_cmd.add_argument("head", type=pathlib.Path)
    summary_cmd = commands.add_parser(
        "summary", help="median and quartiles of runs per workload")
    summary_cmd.add_argument("paths", type=pathlib.Path, nargs="+")
    args = parser.parse_args(argv)

    if args.command == "summary":
        data = summarize(load_results(args.paths),
                         load_results(args.paths, trace=1))
        print(json.dumps(data, indent=1))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(load_results([args.base]), load_results([args.head]),
                   bounds)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    _print_rows(rows)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
