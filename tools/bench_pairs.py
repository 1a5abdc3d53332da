"""Alternating base/head pairs of perfbench runs, summarized as one JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --runs study-raw=10 --runs study-lbp-pca=3 --runs predict-cli=3 \\
        --out BENCH_<n>.json

Each side is a git revision, extracted with ``git archive`` into its own
temporary directory, or ``worktree``: the checkout's current files,
tracked and untracked but not ignored, copied the same way. So both sides
run from fresh directories and nothing is left in ``.git``.

A pair runs ``perfbench/run.py --trace 0`` once on each side, from that
side's own copy, with the same seed and the ``run_seconds`` of the
head's BENCHMARK.json. The base runs first in even pairs and the head in
odd ones, so a drift of the host's speed does not favour one side. Only
the last stdout line of run.py, its JSON record, is read.

The output holds, per workload and metric, each side's median and
quartiles (``statistics.quantiles(values, n=4)``) with the run count, the
pairs the head won (strictly better in the metric's ``better`` direction
of the head's BENCHMARK.json), every raw value in pair order, and the
host facts: nproc, CPU, Python, numpy, BLAS and BLAS threads.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Corpus seeds, used in turn: pair i runs seed SEEDS[i % len(SEEDS)].
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

#: (workload, metric) pairs whose number is known not to measure what its
#: name says; they are recorded but flagged, not corrected. predict-cli's
#: peak is also its set-up's: ru_maxrss reads about 30 MB after imports,
#: 86 MB after the corpus, 100 MB after the request images and 111 MB after
#: the set-ups' training, and the timed requests add nothing.
KNOWN_BAD = {(workload, "peak_rss_mb"): "ru_maxrss at the end of the run, made by the set-up "
                                         "(corpus generation), not by the timed calls"
             for workload in ("study-raw", "study-lbp-pca", "predict-cli")}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(side: str, into: Path) -> str:
    """Put side's files into the empty directory into; returns its commit
    (with a ``+worktree`` suffix for the checkout's current files)."""
    if side == "worktree":
        names = git("ls-files", "-z", "-co", "--exclude-standard").split("\0")
        for name in filter(None, names):
            src = ROOT / name
            if src.is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, into / name)
        return git("rev-parse", "HEAD") + "+worktree"
    commit = git("rev-parse", "--verify", f"{side}^{{commit}}")
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"bench_pairs: git archive {commit} failed")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its JSON record plus the exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} printed no JSON "
                         f"line (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record["returncode"] = proc.returncode
    return record


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarize(workload: str, pairs: list[dict], better: dict[str, str]) -> dict:
    metrics = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better.get(name, "lower") == "lower" else -1
        entry = {
            "unit": pairs[0]["base"]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            "base": spread(base),
            "head": spread(head),
            "pairs": len(pairs),
            "head_wins": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
            "base_values": base,
            "head_values": head,
        }
        if (workload, name) in KNOWN_BAD:
            entry["known_bad"] = KNOWN_BAD[(workload, name)]
        metrics[name] = entry
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "all_correct": all(p[s]["correct"] and p[s]["returncode"] == 0
                           for p in pairs for s in ("base", "head")),
        "end_to_end": metrics,
    }


def host(checkout: Path) -> dict:
    import numpy as np

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy too old to describe its BLAS this way
        facts["blas"] = "unknown"
    for node in ast.parse((checkout / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "BLAS_THREADS" for t in node.targets):
            facts["blas_threads"] = ast.literal_eval(node.value)
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = platform.processor() or "unknown"
    return facts


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD~1", help="git revision, or 'worktree'")
    p.add_argument("--head", default="HEAD", help="git revision, or 'worktree'")
    p.add_argument("--runs", action="append", required=True, metavar="WORKLOAD=PAIRS",
                   help="a workload and its number of pairs; repeat for more workloads")
    p.add_argument("--out", required=True, type=Path)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = []
    for item in args.runs:
        workload, _, count = item.partition("=")
        plan.append((workload, int(count)))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        commits = {}
        for side, ref in (("base", args.base), ("head", args.head)):
            dirs[side].mkdir()
            commits[side] = {"ref": ref, "commit": extract(ref, dirs[side])}
        declared = json.loads((dirs["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        seconds = declared["run_seconds"]
        result = {
            "recorded": datetime.date.today().isoformat(),
            "machine": host(dirs["head"]),
            "sides": commits,
            "run_seconds": seconds,
            "quartiles": "statistics.quantiles(values, n=4) over each side's runs; "
                         "head_wins counts pairs where head is strictly better",
            "workloads": {},
        }
        for workload, count in plan:
            pairs = []
            for i in range(count):
                seed = SEEDS[i % len(SEEDS)]
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(dirs[side], workload, seed, seconds)
                b, h = (pair[s]["metrics"]["wall_s"]["value"] for s in ("base", "head"))
                print(f"{workload} pair {i + 1}/{count} seed {seed}: "
                      f"wall_s base {b:.3f} head {h:.3f}", file=sys.stderr)
                pairs.append(pair)
            result["workloads"][workload] = summarize(workload, pairs, better)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
