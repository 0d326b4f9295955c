"""The verdict rule of tools/bench_pairs.py on hand-made runs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def judge(base, change, bound=0.1, sign=1.0):
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    return bench_pairs.verdict(
        bench_pairs.summary(base), bench_pairs.summary(change), wins, bound, sign
    )


@pytest.mark.parametrize(
    "change, sign, want",
    [
        ([v * 1.2 for v in BASE], 1.0, "past bound"),  # 20 % slower, bound 10 %
        ([v * 0.8 for v in BASE], -1.0, "past bound"),  # 20 % lower where higher is better
        ([v * 1.05 for v in BASE], 1.0, "within bound"),
        ([v * 0.8 for v in BASE], 1.0, "gain"),
        ([v * 0.8 for v in BASE[:8]] + [2.0, 2.0], 1.0, "within bound"),  # won 8 of 10 pairs
        ([v - 0.005 for v in BASE], 1.0, "within bound"),  # won every pair, by less than the IQR
    ],
)
def test_verdict(change, sign, want):
    assert judge(BASE, change, sign=sign) == want


def test_wide_base_spread_is_unresolved_unless_every_change_run_is_better():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]
    assert judge(wide, [1.0] * 10) == "unresolved"
    assert judge(wide, [0.5] * 10) == "gain"
    # every change run below every base run, by less than the base's IQR (0.5)
    skewed = [1.0] * 5 + [1.5] * 5
    assert judge(skewed, [0.99] * 10) == "within bound"


def fake_run(calls, traced_correct=True, untraced=None):
    """A ``subprocess.run`` stand-in that records each command and prints a result.

    The traced run is correct when ``traced_correct``.  Every untraced run
    passes, except on the side ``untraced = (side, correct, failed)`` names,
    whose runs report that ``correct`` and ``failed``; the working tree, at
    ``bench_pairs.ROOT``, is the change side.  The k-th run's meta reads
    ``import_s`` = 0.4 + k / 100 and builds of 0.1, 0.2 + k / 100 and 0.9 s.
    """

    def run(args, **kwargs):
        calls.append(args)
        k = len(calls) - 1
        if args[args.index("--trace") + 1] == "1":
            correct, failed = traced_correct, 0 if traced_correct else 1
        else:
            side = "change" if Path(kwargs["cwd"]) == bench_pairs.ROOT else "base"
            correct, failed = untraced[1:] if untraced and untraced[0] == side else (True, 0)
        meta = dict(python="3", numpy="2", scipy="1", nproc=2, env={}, import_s=0.4 + k / 100)
        meta.update(setup_builds_s=[0.1, 0.2 + k / 100, 0.9])
        metrics = {m: dict(value=1.0) for m in ("run_s", "setup_s", "peak_rss_mb")}
        result = dict(correct=correct, attempted=1, failed=failed, metrics=metrics)
        return SimpleNamespace(stdout=json.dumps(dict(meta=meta)) + "\n" + json.dumps(result) + "\n", stderr="")

    return run


def test_run_once_passes_the_trace_flag(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run(calls))
    for trace in (0, 1):
        run = bench_pairs.run_once(tmp_path, ["python3", "perfbench/run.py"], "ratio", 7, 20, trace=trace)
        assert run["result"]["correct"]
    assert [c[c.index("--trace") + 1] for c in calls] == ["0", "1"]
    assert calls[0][2:] == ["--workload", "ratio", "--seed", "7", "--seconds", "20", "--trace", "0"]


@pytest.mark.parametrize("traced_correct, code", [(True, 0), (False, 1)])
def test_traced_run_decides_the_exit_code(monkeypatch, tmp_path, traced_correct, code):
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    calls = []
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run(calls, traced_correct))
    assert bench_pairs.main(["--label", "t", "--base", "HEAD", "maxprinciple:2:5"]) == code
    # two pairs, then one traced run of the working tree on the first seed
    assert [(c[c.index("--seed") + 1], c[c.index("--trace") + 1]) for c in calls] == [
        ("5", "0"), ("5", "0"), ("6", "0"), ("6", "0"), ("5", "1")
    ]
    out = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["maxprinciple"]
    assert (out["traced_correct"], out["traced_failed"]) == (traced_correct, 0 if traced_correct else 1)


@pytest.mark.parametrize(
    "untraced, code",
    [(None, 0), (("base", False, 1), 1), (("change", False, 0), 1), (("change", True, 2), 1), (("base", True, 3), 1)],
)
def test_untraced_runs_on_either_side_decide_the_exit_code(monkeypatch, tmp_path, capsys, untraced, code):
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run([], untraced=untraced))
    assert bench_pairs.main(["--label", "t", "--base", "HEAD", "witness:2:5"]) == code
    out = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["witness"]
    assert out["traced_correct"]
    last = capsys.readouterr().out.strip().splitlines()[-1]
    if code:
        side, correct, failed = untraced
        assert out[f"{side}_correct"] == [correct] * 2 and out[f"{side}_failed"] == [failed] * 2
        assert last == f"runs not correct or with failed operations: witness {side}"
    else:
        assert last.startswith("wrote ")


def test_setup_split_is_recorded_and_printed(monkeypatch, tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run([]))
    assert bench_pairs.main(["--label", "t", "--base", "HEAD", "ratio:2:5"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["ratio"]
    # runs 0-3 alternate base, change, change, base; run 4 is the traced one
    for side, ks in (("base", (0, 3)), ("change", (1, 2))):
        split = out[f"{side}_setup"]
        assert split["import_s"]["values"] == [0.4 + k / 100 for k in ks]
        assert split["build_s"]["values"] == [0.2 + k / 100 for k in ks]
        assert split["build_s"]["median"] == pytest.approx(0.2 + sum(ks) / 200)
        assert split["import_s"]["iqr"] == pytest.approx((ks[1] - ks[0]) / 100 / 2)
    line = next(l for l in capsys.readouterr().out.splitlines() if "setup_s =" in l)
    assert line.startswith("ratio") and "import_s base 0.415" in line and "build_s base 0.215" in line
