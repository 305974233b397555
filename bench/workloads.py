"""The three workloads and the runner that times their processes.

A workload run ("rep") starts every process afresh, one at a time (a closed
loop with one client), in a new directory that is deleted afterwards, so no
output or cache file of an earlier rep is visible to a later one.  Each
process is timed from spawn to exit, and `os.wait4` gives its own CPU time
and peak resident set.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
PROCESS_TIMEOUT_S = 150

# The default workload seed 0 gives the CLI defaults (--seed 17 for
# star-slopes, 11 for calibrate); seed n shifts both corpora by n mod
# CORPUS_SEEDS, the number of corpora with recorded reference outputs.
CORPUS_SEEDS = 16

PAPER_CHECKS = (
    ("gap",),
    ("chern",),
    ("obstruction",),
    ("bands",),
    ("invariance-slopes",),
    ("egorov",),
    ("kernel-check", "--two-j", "1,2,3,5,10,20,30"),
)
WORKLOADS = ("star-calibrate", "sapt-lconv", "paper-checks")


@dataclass(frozen=True)
class Proc:
    """One process of a workload: child.py arguments and the files it writes."""

    key: str  # reference key and label
    argv: tuple
    outputs: tuple

    def args(self, out: Path) -> list:
        return [CHILD, *self.argv, *(("--out", out) if self.argv[0] == "cli" else (out,))]


def cli_proc(*args) -> Proc:
    return Proc(" ".join(args), ("cli",) + args, (f"{args[0]}.csv", f"{args[0]}.json"))


def procs(workload: str, seed: int) -> list[Proc]:
    if workload == "star-calibrate":
        k = seed % CORPUS_SEEDS
        return [cli_proc("star-slopes", "--seed", str(17 + k)), cli_proc("calibrate", "--seed", str(11 + k))]
    if workload == "sapt-lconv":
        return [Proc("sapt-lconv", ("lconv",), ("sapt-lconv.json",))]
    if workload == "paper-checks":
        return [cli_proc(*args) for args in PAPER_CHECKS]
    raise ValueError(f"unknown workload {workload!r}")


def child_env(trace_file=None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("SPHERE_SAPT_OUT", "SPHERE_SAPT_BENCH_TRACE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if trace_file is not None:
        env["SPHERE_SAPT_BENCH_TRACE"] = str(trace_file)
    return env


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


def spawn(args, cwd, env, log_path) -> Usage:
    """Run one python process to completion and return its own resource use."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, *map(str, args)], cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Usage(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, p.returncode)


def import_time(work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    u = spawn(["-c", "import sphere_sapt.cli"], work, child_env(), work / "import.log")
    if u.returncode != 0:
        raise RuntimeError(f"importing sphere_sapt.cli failed; see {work / 'import.log'}")
    return u.wall_s


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    ops: list = field(default_factory=list)  # (label, problems) per operation
    outputs: dict = field(default_factory=dict)  # file -> normalized content
    layers: list = field(default_factory=list)  # span summaries, one per process


def run_rep(workload: str, seed: int, rep_dir: Path, traced: bool) -> Rep:
    out, logs = rep_dir / "out", rep_dir / "logs"
    out.mkdir(parents=True)
    logs.mkdir()
    rep = Rep(traced)
    for i, proc in enumerate(procs(workload, seed)):
        trace_file = logs / f"{i}.trace.json" if traced else None
        before = set(os.listdir(out))
        log = logs / f"{i}.log"
        u = spawn(proc.args(out), out, child_env(trace_file), log)
        rep.wall_s += u.wall_s
        rep.cpu_s += u.cpu_s
        rep.peak_rss_mb = max(rep.peak_rss_mb, u.maxrss_mb)
        new = set(os.listdir(out)) - before
        tail = log.read_text(errors="replace")[-300:] if u.returncode else ""
        rep.ops += verify.check_proc(proc, out, u.returncode, new, tail)
        for name in proc.outputs:
            if (out / name).exists():
                rep.outputs[name] = verify.normalized(out / name)
        if traced:
            rep.layers.append(json.loads(trace_file.read_text()) if trace_file.exists() else {})
    shutil.rmtree(rep_dir)
    return rep
