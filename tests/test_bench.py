"""Tests of the benchmark scripts' bookkeeping (no timing)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from bench_windows import compare  # noqa: E402


def runs(workload, seeds, value):
    return [{"workload": workload, "seed": s, "trace": 0,
             "metrics": {"op_p90_s": value + s}} for s in seeds]


def test_compare_pairs_shared_seeds():
    lk = {"units": {"op_p90_s": "s"},
          "before": runs("box-hsup", [1, 2, 3], 10.0),
          "after": runs("box-hsup", [2, 3, 4], 5.0)}
    out = compare(lk)
    row = out["box-hsup trace=0"]
    assert row["seeds"] == [2, 3]
    m = row["metrics"]["op_p90_s"]
    assert m["pairs"] == 2 and m["after_wins"] == 2 and m["ties"] == 0


def test_compare_skips_a_key_without_shared_seeds(capsys):
    lk = {"units": {"op_p90_s": "s"},
          "before": runs("box-hsup", [1501, 1502], 1.0)
          + runs("cli-session", [7], 1.0),
          "after": runs("box-hsup", [1601, 1602], 1.0)
          + runs("cli-session", [7], 0.5)}
    out = compare(lk)
    assert list(out) == ["cli-session trace=0"]
    err = capsys.readouterr().err
    assert "box-hsup trace=0" in err
    assert "[1501, 1502]" in err and "[1601, 1602]" in err
