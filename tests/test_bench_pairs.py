"""The summary of scripts/bench_pairs.py on canned run records: no
benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "task_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def record(pair: int, side: str, rate: float, p50: float, exit: int = 0, correct: bool = True) -> dict:
    metrics = {"tasks_per_s": {"value": rate, "unit": "1/s"}, "task_p50_ms": {"value": p50, "unit": "ms"}}
    result = {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    return {"pair": pair, "side": side, "ran_first": (side == "parent") == bool(pair % 2), "exit": exit, "result": result}


def canned() -> list[dict]:
    parent = [(100, 6.0), (110, 5.5), (90, 6.5), (105, 5.8)]
    change = [(120, 5.0), (130, 4.5), (85, 6.6), (125, 4.8)]
    return [r for i, (p, c) in enumerate(zip(parent, change), start=1) for r in (record(i, "parent", *p), record(i, "change", *c))]


def test_summary_gives_medians_quartiles_ratio_and_wins():
    rows = {row["metric"]: row for row in bench_pairs.summarize(canned(), METRICS)}
    rate = rows["tasks_per_s"]
    assert rate["pairs"] == 4
    assert rate["parent"] == (102.5, 97.5, 106.25)  # median, inclusive quartiles
    assert rate["change"] == (122.5, 111.25, 126.25)
    assert rate["ratio"] == pytest.approx(122.5 / 102.5)
    assert rate["wins"] == 3  # pair 3 is slower
    p50 = rows["task_p50_ms"]
    assert p50["parent"][0] == pytest.approx(5.9) and p50["change"][0] == pytest.approx(4.9)
    assert p50["wins"] == 3  # lower is better: pair 3 took longer
    lines = bench_pairs.format_rows(list(rows.values()))
    assert lines[1].startswith("tasks_per_s (higher)") and lines[1].endswith("1.195  3/4")


def test_summary_skips_pairs_with_a_failed_run():
    records = canned()
    records[2] = record(2, "parent", 500, 1.0, exit=1)
    records[5] = record(3, "change", 500, 1.0, correct=False)
    assert [bench_pairs.failed(r) for r in records].count(True) == 2
    rate = bench_pairs.summarize(records, METRICS)[0]
    assert rate["pairs"] == 2 and rate["wins"] == 2
    assert rate["parent"] == (102.5, 101.25, 103.75)


def test_summary_without_a_complete_pair():
    rows = bench_pairs.summarize([record(1, "parent", 100, 6.0)], METRICS)
    assert [row["pairs"] for row in rows] == [0, 0]
    assert bench_pairs.format_rows(rows)[1].endswith("no complete pair")
