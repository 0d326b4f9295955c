"""Run the benchmark on a base commit and on the working tree in alternated pairs.

    python3 tools/bench_pairs.py --label data_norms --base HEAD~1 ratio:10:501 witness:5:601

Each ``WORKLOAD:PAIRS:FIRST_SEED`` runs ``PAIRS`` pairs on seeds
``FIRST_SEED .. FIRST_SEED + PAIRS - 1``; pair k runs the base first when k is
even and the working tree first when k is odd.  Every run is the command of
``BENCHMARK.json`` with ``--workload W --seed S --seconds T --trace 0``, where
``T`` is its ``run_seconds``, from the root of its checkout.  After a
workload's pairs the working tree runs it once more with ``--trace 1`` on
``FIRST_SEED``, so the traced gates (per-layer spans, counts that repeat
between passes) are checked too.  The script exits 1, naming the workload and
side, when any run, traced or not, on either side is not correct or reports
failed operations.  The base is
exported with ``git archive`` into a temporary directory (honours ``TMPDIR``);
its ``perfbench/cache`` links to the working tree's, whose entries are keyed
by a hash of their inputs.

``BENCH_<label>.json`` gets, per workload and end-to-end metric, each side's
raw values, median, quartiles and IQR, the pairs the change won and a verdict
(see ``verdict``) and the traced run's ``traced_correct`` and
``traced_failed``; per workload and side, ``<side>_setup`` splits ``setup_s``
(import time plus the median of the workload's builds) into the summaries of
each run's ``import_s`` and of each run's median build time ``build_s``; plus
the git shas, library versions, nproc and seeds.
Nothing about the workloads, gates or bounds is changed here: bounds are
copied from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` under ``dest``, with the working tree's reference cache linked in."""
    archive = dest / "tree.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    cache = ROOT / "perfbench" / "cache"
    cache.mkdir(exist_ok=True)
    (dest / "tree" / "perfbench" / "cache").symlink_to(cache, target_is_directory=True)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} printed no result:\n{proc.stderr}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return dict(meta=meta, result=result)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return dict(median=median, q1=q1, q3=q3, iqr=q3 - q1, values=values)


def verdict(base: dict, change: dict, wins: int, bound: float, sign: float) -> str:
    """One metric's verdict from both sides' ``summary`` and the pairs the change won.

    ``sign`` is 1 when lower is better, -1 when higher is.  In order:

    - "past bound": the change's median is worse than the base's by more than
      ``bound``, relative to the base's median;
    - "gain": the change won at least nine tenths of the pairs (ties count for
      neither) and the medians differ, in its favour, by more than the base's IQR;
    - "unresolved": the base's IQR over its median exceeds ``bound`` and not
      every change run beats every base run;
    - "within bound" otherwise.
    """
    worse_by = sign * (change["median"] - base["median"])
    if worse_by > bound * abs(base["median"]):
        return "past bound"
    if wins >= 0.9 * len(base["values"]) and -worse_by > base["iqr"]:
        return "gain"
    beats_all = all(sign * (c - b) < 0 for c in change["values"] for b in base["values"])
    if base["iqr"] > bound * abs(base["median"]) and not beats_all:
        return "unresolved"
    return "within bound"


def parse_plan(items: list[str], known: set[str]) -> list[tuple[str, int, int]]:
    plan = []
    for item in items:
        name, pairs, first = item.split(":")
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}; BENCHMARK.json has {sorted(known)}")
        if int(pairs) < 2:
            raise SystemExit(f"{item}: quartiles need at least 2 pairs")
        plan.append((name, int(pairs), int(first)))
    return plan


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repository root")
    p.add_argument("--base", required=True, help="git revision to compare the working tree against")
    p.add_argument("plan", nargs="+", help="WORKLOAD:PAIRS:FIRST_SEED")
    args = p.parse_args(argv)
    plan = parse_plan(args.plan, {w["name"] for w in bench["workloads"]})
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    record = dict(
        label=args.label,
        base_sha=git("rev-parse", args.base),
        change_sha=git("rev-parse", "HEAD"),
        change_dirty=bool(git("status", "--porcelain", "--", "src", "perfbench")),
        command=bench["command"],
        seconds=bench["run_seconds"],
        workloads={},
    )
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export(record["base_sha"], Path(tmp))
        sides = {"base": Path(tmp) / "tree", "change": ROOT}
        for name, pairs, first in plan:
            runs = {"base": [], "change": []}
            seeds = list(range(first, first + pairs))
            for k, seed in enumerate(seeds):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    t0 = time.perf_counter()
                    run = run_once(sides[side], bench["command"], name, seed, bench["run_seconds"])
                    runs[side].append(run)
                    run_s = run["result"]["metrics"]["run_s"]["value"]
                    took = time.perf_counter() - t0
                    print(f"{name} seed {seed} {side}: run_s {run_s:.3f} ({took:.0f} s)", flush=True)
            traced = run_once(sides["change"], bench["command"], name, first, bench["run_seconds"], trace=1)["result"]
            print(f"{name} seed {first} change traced: correct {traced['correct']}, failed {traced['failed']}")
            out = dict(seeds=seeds, first=["base" if k % 2 == 0 else "change" for k in range(pairs)], metrics={})
            out.update(traced_correct=traced["correct"], traced_failed=traced["failed"])
            for side in runs:
                out[f"{side}_correct"] = [r["result"]["correct"] for r in runs[side]]
                out[f"{side}_failed"] = [r["result"]["failed"] for r in runs[side]]
                out[f"{side}_attempted"] = [r["result"]["attempted"] for r in runs[side]]
                out[f"{side}_setup"] = dict(
                    import_s=summary([r["meta"]["import_s"] for r in runs[side]]),
                    build_s=summary([statistics.median(r["meta"]["setup_builds_s"]) for r in runs[side]]),
                )
            for metric, spec in metrics.items():
                vals = {s: [r["result"]["metrics"][metric]["value"] for r in runs[s]] for s in runs}
                sign = 1.0 if spec["better"] == "lower" else -1.0
                base, change = summary(vals["base"]), summary(vals["change"])
                wins = sum(sign * (c - b) < 0 for b, c in zip(vals["base"], vals["change"]))
                out["metrics"][metric] = dict(
                    unit=spec["unit"],
                    better=spec["better"],
                    bound=spec["bound"],
                    base=base,
                    change=change,
                    change_wins=wins,
                    rel_change_of_median=change["median"] / base["median"] - 1.0,
                    verdict=verdict(base, change, wins, spec["bound"], sign),
                )
            record["workloads"][name] = out
    meta = runs["change"][0]["meta"]
    record["environment"] = {k: meta[k] for k in ("python", "numpy", "scipy", "nproc", "env")}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, out in record["workloads"].items():
        for metric, m in out["metrics"].items():
            print(
                f"{name:12s} {metric:12s} base {m['base']['median']:.4g} (IQR {m['base']['iqr']:.3g}) -> "
                f"change {m['change']['median']:.4g} ({m['rel_change_of_median']:+.1%}), "
                f"change won {m['change_wins']}/{len(out['seeds'])}: {m['verdict']}"
            )
        parts = [
            f"{part} base {out['base_setup'][part]['median']:.4g} (IQR {out['base_setup'][part]['iqr']:.3g}) -> "
            f"change {out['change_setup'][part]['median']:.4g} (IQR {out['change_setup'][part]['iqr']:.3g})"
            for part in ("import_s", "build_s")
        ]
        print(f"{name:12s} setup_s = " + " + ".join(parts))
    print(f"wrote {path}")
    bad = []
    for name, out in record["workloads"].items():
        for side in ("base", "change"):
            if not all(out[f"{side}_correct"]) or any(out[f"{side}_failed"]):
                bad.append(f"{name} {side}")
        if not out["traced_correct"] or out["traced_failed"]:
            bad.append(f"{name} change traced")
    if bad:
        print(f"runs not correct or with failed operations: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
