"""The compare rule on synthetic samples."""

from bench.compare import compare, judge

BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_clear_win_over_ten_pairs_is_better():
    head = [value * 0.8 for value in BASE]
    assert judge(BASE, head, "lower", 0.1)["verdict"] == "better"


def test_higher_is_better_metrics_win_upwards():
    head = [value * 1.2 for value in BASE]
    assert judge(BASE, head, "higher", 0.1)["verdict"] == "better"
    assert judge(BASE, head, "lower", 0.1)["verdict"] == "worse"


def test_regression_beyond_bound_is_worse():
    head = [value * 1.15 for value in BASE]
    row = judge(BASE, head, "lower", 0.1)
    assert row["verdict"] == "worse"
    assert abs(row["change"] - 0.15) < 1e-9


def test_small_shift_stays_within_bound():
    head = [value * 1.05 for value in BASE]
    assert judge(BASE, head, "lower", 0.1)["verdict"] == "within-bound"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert judge(BASE, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert judge(noisy, BASE, "lower", 0.1)["verdict"] == "unresolved"


def test_dominating_head_is_judged_despite_spread():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    head = [value / 10 for value in noisy]
    assert judge(noisy, head, "lower", 0.1)["verdict"] == "better"


def test_dominated_head_is_worse_despite_spread():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    slower = [value + 20.0 for value in noisy]
    assert judge(noisy, slower, "lower", 0.25)["verdict"] == "worse"
    fewer = [value / 10 for value in noisy]
    assert judge(noisy, fewer, "higher", 0.25)["verdict"] == "worse"


def test_gain_needs_ten_pairs_and_nine_wins():
    head = [value * 0.8 for value in BASE]
    assert judge(BASE[:5], head[:5], "lower", 0.1)["verdict"] == "within-bound"
    mixed = head[:8] + [value * 1.01 for value in BASE[8:]]
    assert judge(BASE, mixed, "lower", 0.1)["verdict"] == "within-bound"


def test_gain_needs_median_gap_beyond_base_iqr():
    wide = [9.5, 10.5, 9.6, 10.4, 9.7, 10.3, 9.8, 10.2, 9.9, 10.1]
    head = [value - 0.5 for value in wide]  # wins every pair, gap < IQR
    row = judge(wide, head, "lower", 0.2)
    assert row["wins"] == 10
    assert row["verdict"] == "within-bound"


def _run(workload, wall, wrong=0):
    metrics = {
        "setup_s": 1.0, "wall_s": wall, "verdicts_per_s": 100 / wall,
        "latency_p50_ms": 1.0, "latency_p99_ms": 10.0, "peak_rss_mb": 80.0,
        "failed_share": 0.0, "wrong_verdicts": wrong,
    }
    return {"workload": workload, "end_to_end": metrics}


def test_one_row_per_workload_and_metric():
    base = {"w": [_run("w", 5.0 + i / 100) for i in range(5)]}
    head = {"w": [_run("w", 5.0 + i / 100) for i in range(4)]
            + [_run("w", 5.0, wrong=1)]}
    bounds = {"setup_s": 0.25, "wall_s": 0.1, "verdicts_per_s": 0.1,
              "latency_p50_ms": 0.15, "latency_p99_ms": 0.15,
              "peak_rss_mb": 0.1}
    rows = compare(base, head, bounds)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert len(rows) == len(verdicts) == 8
    assert verdicts["wall_s"] == "within-bound"
    assert verdicts["wrong_verdicts"] == "worse"
