"""Tests of the benchmark scripts' shared front end and bookkeeping."""

import argparse
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from harness import compare  # noqa: E402

SCRIPTS = sorted(BENCH.glob("bench_*.py"))


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


def lkbench_result(path, op_p90_s):
    path.write_text(json.dumps({
        "correct": True, "failed": 0, "attempted": 40,
        "versions": {"kernel": "separable"},
        "metrics": {"op_p90_s": {"value": op_p90_s, "unit": "s"}}}))
    return str(path)


def test_main_merges_both_labels(tmp_path):
    out = tmp_path / "BENCH_stub.json"
    for label, value in (("before", 2.0), ("after", 1.0)):
        lk = tmp_path / label
        lk.mkdir()
        files = [lkbench_result(lk / f"box-hsup-seed{s}-trace0.json", value + s)
                 for s in (1, 2)]
        assert harness.main("Stub.", "unused.json",
                            lambda args: {"stub": [{"case": args.label}]},
                            ["--label", label, "--out", str(out),
                             "--lkbench", *files]) == 0
    bench = json.loads(out.read_text())
    assert bench["stub"] == {"before": [{"case": "before"}],
                             "after": [{"case": "after"}]}
    for label in ("before", "after"):
        assert set(bench["environment"][label]) >= {"python", "numpy", "scipy"}
    lk = bench["lkbench"]
    assert [r["seed"] for r in lk["before"]] == [1, 2]
    m = lk["comparison"]["box-hsup trace=0"]["metrics"]["op_p90_s"]
    assert m["unit"] == "s" and m["pairs"] == 2 and m["after_wins"] == 2


def test_lkbench_needs_label(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        harness.main("Stub.", "unused.json", lambda args: {},
                     ["--lkbench", str(tmp_path / "box-hsup-seed1-trace0.json")])
    assert exc.value.code == 2
    assert "--lkbench needs --label" in capsys.readouterr().err


class Parsed(Exception):
    """Raised in place of parsing, with the parser's option strings."""


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_takes_the_four_shared_flags(script, monkeypatch):
    module = importlib.import_module(script.stem)

    def capture(parser, argv=None):
        raise Parsed({s for action in parser._actions for s in action.option_strings})

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(Parsed) as exc:
        module.main([])
    assert exc.value.args[0] == {"-h", "--help", "--src", "--label", "--out",
                                 "--lkbench"}


def test_no_script_imports_another():
    for script in SCRIPTS:
        text = script.read_text()
        assert "import bench_" not in text and "from bench_" not in text, script.name


def test_bench_sharpness_writes_the_committed_layout(tmp_path):
    import bench_sharpness

    out = tmp_path / "BENCH_sharpness.json"
    assert bench_sharpness.main(["--label", "after", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["sharpness"]["after"]
    committed = json.loads((ROOT / "BENCH_sharpness.json").read_text())
    want = committed["sharpness"]["after"]
    assert [sorted(r) for r in rows] == [sorted(r) for r in want]
    assert [r["case"] for r in rows] == [r["case"] for r in want]
