"""Benchmark of sphere-sapt as its users run it: CLI subcommands and library
sweeps, each command in a fresh process, one after another.

    python3 bench/run.py --workload star-calibrate --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each
    python3 bench/verify.py --self-test          # the output checks catch bad values

With --trace 0 the run repeats the workload until --seconds are used and
reports the end-to-end metrics of BENCHMARK.json (medians over the reps).
With --trace 1 it alternates one untraced rep with two traced ones and
reports the per-layer metrics; the traced reps must write the same outputs
as the untraced one and count the same work as each other.  The last line
of standard output is one JSON object; the lines before it are a table and
the environment record.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = workloads.ROOT
# imports timed before each rep: spread over the run, their median is
# steadier than that of one burst, as a shared host's speed can drift by
# tens of percent within seconds
SETUP_SAMPLES = 3


def git_record() -> dict:
    """Revision of the code measured; the benchmark may run outside git."""
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    rec = {"src_sha256": digest.hexdigest()[:16], "git_rev": None, "git_dirty": None}
    if not (ROOT / ".git").exists():
        return rec
    git = ["git", "-C", str(ROOT)]
    try:
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    except FileNotFoundError:  # no git program
        return rec
    if rev.returncode == 0:
        rec["git_rev"] = rev.stdout.strip()
        rec["git_dirty"] = bool(dirty.stdout.strip())
    return rec


def env_record(work: Path) -> dict:
    log = work / "env.log"
    u = workloads.spawn([workloads.CHILD, "env"], work, workloads.child_env(), log)
    rec = json.loads(log.read_text().splitlines()[-1]) if u.returncode == 0 else {"error": log.read_text()[-300:]}
    return {**rec, **git_record()}


def layer_metrics(traced, untraced, names) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced reps, and trace integrity problems."""
    per_rep = [spans.combine(r.layers) for r in traced]
    problems = []
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in per_rep]
    if any(c != counts[0] for c in counts):
        problems.append(f"traced reps counted different work: {counts}")
    for r in traced:
        if r.outputs != untraced[0].outputs:
            problems.append("a traced rep wrote outputs different from the untraced rep")
    first = per_rep[0]
    walls = [r.wall_s for r in traced]
    out = {}
    for name in names:
        layer, _, what = name.partition(".")
        if name == "trace.wall_s":
            out[name] = statistics.median(walls)
        elif name == "trace.overhead_s":
            out[name] = statistics.median(walls) - statistics.median(r.wall_s for r in untraced)
        elif name == "star.useful_coeff_ratio":
            computed = first["star.computed_coeffs"]
            out[name] = first["star.useful_coeffs"] / computed if computed else 0.0
        elif what == "share":
            shares = [
                100 * sum(v for k, v in s.items() if k.startswith(layer + ".") and k.endswith(".self_s")) / w
                for s, w in zip(per_rep, walls)
            ]
            out[name] = statistics.median(shares)
        elif name.endswith(".self_s"):
            out[name] = statistics.median(s[name] for s in per_rep)
        else:
            out[name] = first[name.replace("trace.", "")]
    return out, problems


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    """Run one workload for `seconds` and return its result object."""
    workloads.import_time(work)  # compiles bytecode, as an install would; not timed
    schedule = itertools.cycle([False, True, True]) if trace else itertools.repeat(False)
    setup, reps, durations = [], [], []
    t0 = time.perf_counter()
    for i, traced in enumerate(schedule):
        r0 = time.perf_counter()
        if not trace:
            setup += [workloads.import_time(work) for _ in range(SETUP_SAMPLES)]
        reps.append(workloads.run_rep(workload, seed, work / f"rep{i}", traced))
        durations.append(time.perf_counter() - r0)
        if len(reps) >= (3 if trace else 1) and time.perf_counter() - t0 + statistics.median(durations) > seconds:
            break

    ops = [op for r in reps for op in r.ops]
    failed = [(label, p) for label, p in ops if p]
    problems = [f"{label}: {'; '.join(p)}" for label, p in failed]
    untraced = [r for r in reps if not r.traced]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, integrity = layer_metrics([r for r in reps if r.traced], untraced, names)
        problems += integrity
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "rep_walls": [(r.traced, r.wall_s) for r in reps],
        "setup": setup,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_table(workload: str, seed: int, res: dict) -> None:
    walls = " ".join(f"{w:.3f}{'T' if t else ''}" for t, w in res["rep_walls"])
    print(f"== {workload}  seed {seed}  operations {res['attempted']}  rep wall_s {walls}")
    if res["setup"]:
        print(f"   setup samples {' '.join(f'{s:.3f}' for s in res['setup'])}")
    for name, m in res["metrics"].items():
        print(f"   {name:38s} {m['value']:14.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"   {'fail_ratio':38s} {ratio:14.6g} ratio ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"   FAILED {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="workload seed; shifts the star-calibrate corpora")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced reps")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "BENCHMARK.json", workloads.SRC / "sphere_sapt" / "cli.py") if not p.exists()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(env_record(work)))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for w in names:
            results[w] = measure(w, args.seed, args.seconds, bool(args.trace), spec, work)
            print_table(w, args.seed, results[w])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
