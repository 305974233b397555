"""Output checks behind the benchmark's failure count.

An operation (one CLI command, or one step of the sapt-lconv driver) fails
when its process exits nonzero, writes a file it should not, reports a
failed check or pass flag in its JSON, writes a non-finite number, or
differs from the reference recorded at the seed commit by more than
|got - ref| <= ATOL + RTOL |ref|.  The reference holds every CSV row, the
sapt-lconv norms and distances, and every fitted slope.

    python3 bench/verify.py --record      # rewrite reference.json
    python3 bench/verify.py --self-test   # show that bad outputs are counted
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
RTOL, ATOL = 1e-6, 1e-12
SLOPE_KEYS = ("slope", "residual_slope")
TIMING_KEYS = ("wall_time_s",)


@lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE.read_text())["outputs"]


def normalized(path: Path):
    """File content without run timings, for comparing two runs' outputs."""
    if path.suffix != ".json":
        return path.read_text()
    doc = json.loads(path.read_text())
    return {k: v for k, v in doc.items() if k not in TIMING_KEYS}


def _numbers(obj, path=""):
    """(path, value) of every number in a JSON document; list entries that
    carry a "name" are addressed by it, so reordering does not matter."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            if k not in TIMING_KEYS:
                yield from _numbers(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            tag = v["name"] if isinstance(v, dict) and "name" in v else i
            yield from _numbers(v, f"{path}[{tag}]")


def slopes(doc) -> dict:
    return {p: v for p, v in _numbers(doc) if p.rsplit(".", 1)[-1] in SLOPE_KEYS}


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_rows(rows, ref_rows) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} CSV rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        got_f = [_as_float(c) for c in row]
        ref_f = [_as_float(c) for c in ref]
        same = len(row) == len(ref) and all(
            (g is not None and r is not None and _close(g, r)) or (r is None and c == rc)
            for g, r, c, rc in zip(got_f, ref_f, row, ref)
        )
        if not same:
            problems.append(f"CSV row {i} {row} differs from reference {ref}")
    return problems


def compare_slopes(got: dict, ref: dict) -> list[str]:
    problems = []
    for path, r in ref.items():
        if path not in got:
            problems.append(f"slope {path} missing")
        elif not _close(got[path], r):
            problems.append(f"slope {path} = {got[path]!r}, reference {r!r}")
    return problems


def health(doc) -> list[str]:
    """Failed pass flags and non-finite numbers of a JSON summary."""
    problems = [f"non-finite {p} = {v}" for p, v in _numbers(doc) if not math.isfinite(v)]
    problems += [f"check failed: {c.get('name')}" for c in doc.get("checks", []) if not c.get("pass")]
    if doc.get("pass") is not True:
        problems.append("pass flag is not true")
    return problems


def _read_json(path: Path):
    try:
        return json.loads(path.read_text()), []
    except (OSError, ValueError) as e:
        return None, [f"{path.name}: {e}"]


def _check_step(step, ref) -> list[str]:
    if step is None:
        return ["step missing"]
    problems = [step["error"]] if "error" in step else []
    problems += [f"non-finite {p} = {v}" for p, v in _numbers(step) if not math.isfinite(v)]
    problems += [f"check failed: {c['name']}" for c in step["checks"] if not c["pass"]]
    vals = step.get("values", [])
    if len(vals) != len(ref["values"]) or not all(map(_close, vals, ref["values"])):
        problems.append(f"values {vals} differ from reference {ref['values']}")
    return problems + compare_slopes(slopes(step), ref["slopes"])


def check_proc(proc, out: Path, returncode: int, new_files, log_tail: str = "") -> list:
    """(label, problems) for each operation of one finished process."""
    common = []
    if returncode != 0:
        common.append(f"exit code {returncode}: {log_tail.strip()}")
    extra = sorted(set(new_files) - set(proc.outputs))
    if extra:
        common.append(f"unexpected files {extra}")
    ref = reference().get(proc.key)
    if ref is None:
        return [(proc.key, common + ["no reference output recorded"])]
    doc, problems = _read_json(out / proc.outputs[-1])

    if "steps" in ref:  # sapt-lconv: one operation per driver step
        steps = {s.get("name"): s for s in (doc or {}).get("steps", [])}
        return [
            (f"sapt-lconv {name}", common + problems + _check_step(steps.get(name), ref_step))
            for name, ref_step in ref["steps"].items()
        ]

    p = common + problems
    if doc is not None:
        p += health(doc) + compare_slopes(slopes(doc), ref["slopes"])
    try:
        with open(out / proc.outputs[0], newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as e:
        p.append(str(e))
    else:
        bad = [c for row in rows[1:] for c in row if _as_float(c) is not None and not math.isfinite(float(c))]
        if bad:
            p.append(f"non-finite CSV values {bad[:3]}")
        p += compare_rows(rows, ref["csv"])
    return [(proc.key, p)]


# -- recording and self-test ---------------------------------------------------


def _run_once(proc, work: Path):
    import workloads

    out = work / "out"
    shutil.rmtree(work, ignore_errors=True)
    out.mkdir(parents=True)
    u = workloads.spawn(proc.args(out), out, workloads.child_env(), work / "log")
    return out, u.returncode


def record() -> int:
    """Run every process of every workload once and store its outputs."""
    import workloads

    keys = {}
    for w in workloads.WORKLOADS:
        seeds = range(workloads.CORPUS_SEEDS) if w == "star-calibrate" else [0]
        for seed in seeds:
            for proc in workloads.procs(w, seed):
                keys[proc.key] = proc
    outputs = {}
    work = workloads.ROOT / ".bench_work" / "record"
    for key, proc in keys.items():
        out, rc = _run_once(proc, work)
        doc, problems = _read_json(out / proc.outputs[-1])
        if rc != 0 or problems:
            print(f"{key}: exit {rc} {problems}", file=sys.stderr)
            return 1
        if "steps" in doc:
            bad = [s["name"] for s in doc["steps"] if "error" in s or not all(c["pass"] for c in s["checks"])]
            outputs[key] = {
                "steps": {s["name"]: {"values": s["values"], "slopes": slopes(s)} for s in doc["steps"]}
            }
        else:
            bad = health(doc)
            with open(out / proc.outputs[0], newline="") as fh:
                outputs[key] = {"csv": list(csv.reader(fh)), "slopes": slopes(doc)}
        if bad:
            print(f"{key}: {bad}", file=sys.stderr)
            return 1
        print(f"recorded {key}")
    shutil.rmtree(work.parent, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"tolerance": {"rtol": RTOL, "atol": ATOL}, "outputs": outputs}, indent=1) + "\n")
    return 0


def self_test() -> int:
    """Feed the checks good outputs and broken copies of them.

    Runs `gap` and `egorov` once, then checks that the clean outputs count
    no failure and that each corruption below counts exactly one.
    """
    import workloads

    work = workloads.ROOT / ".bench_work" / "selftest"
    cases = []

    def count(proc, out, rc=0, new=()):
        return sum(1 for _, p in check_proc(proc, out, rc, new or proc.outputs) if p)

    csv_file, json_file = 0, 1
    for args, corruptions in (
        (
            ("gap",),
            [
                ("perturbed CSV value", csv_file, lambda t: _scale_first_value(t, 1 + 1e-4)),
                ("NaN row", csv_file, lambda t: _scale_first_value(t, float("nan"))),
            ],
        ),
        (
            ("egorov",),
            [
                ("perturbed slope", json_file, lambda t: _edit_json(t, lambda d: d["fit"].update(slope=d["fit"]["slope"] * 1.001))),
                ("failed pass flag", json_file, lambda t: _edit_json(t, lambda d: d.update({"pass": False}))),
            ],
        ),
    ):
        proc = workloads.cli_proc(*args)
        out, rc = _run_once(proc, work / args[0])
        cases.append((f"{args[0]} clean", count(proc, out, rc), 0))
        cases.append((f"{args[0]} exit code 1", count(proc, out, 1), 1))
        cases.append((f"{args[0]} unexpected file", count(proc, out, rc, proc.outputs + ("cg.cache",)), 1))
        for what, index, fn in corruptions:
            target = out / proc.outputs[index]
            good = target.read_text()
            target.write_text(fn(good))
            cases.append((f"{args[0]} {what}", count(proc, out, rc), 1))
            target.write_text(good)

    # sapt-lconv steps, from a document built out of the reference
    proc = workloads.procs("sapt-lconv", 0)[0]
    lconv_out = work / "lconv"
    lconv_out.mkdir(parents=True)
    steps = reference()["sapt-lconv"]["steps"]

    def lconv_doc(values_edit=None):
        doc_steps = []
        for name, s in steps.items():
            vals = list(s["values"])
            if values_edit and name == next(iter(steps)):
                vals = values_edit(vals)
            fit = {k.rsplit(".", 1)[-1]: v for k, v in s["slopes"].items()}
            doc_steps.append({"name": name, "values": vals, "fit": fit, "checks": [{"name": "gate", "pass": True}]})
        (lconv_out / "sapt-lconv.json").write_text(json.dumps({"steps": doc_steps, "pass": True}))
        return count(proc, lconv_out)

    cases.append(("sapt-lconv clean", lconv_doc(), 0))
    cases.append(("sapt-lconv perturbed norm", lconv_doc(lambda v: [v[0] * (1 + 1e-4)] + v[1:]), 1))
    cases.append(("sapt-lconv NaN value", lconv_doc(lambda v: [float("nan")] + v[1:]), 1))
    shutil.rmtree(work.parent, ignore_errors=True)

    ok = True
    for what, got, want in cases:
        ok &= got == want
        print(f"[{'ok' if got == want else 'WRONG'}] {what}: {got} failed operation(s), expected {want}")
    return 0 if ok else 1


def _scale_first_value(text: str, factor: float) -> str:
    """Scale the last cell of the first data row of a CSV text."""
    lines = text.splitlines(keepends=True)
    head, sep, last = lines[1].rstrip("\r\n").rpartition(",")
    lines[1] = f"{head}{sep}{float(last) * factor!r}\r\n"
    return "".join(lines)


def _edit_json(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    g = ap.add_mutually_exclusive_group(required=True)
    g.add_argument("--record", action="store_true", help="rewrite reference.json from the current program")
    g.add_argument("--self-test", action="store_true", help="check that corrupted outputs are counted")
    a = ap.parse_args()
    sys.exit(record() if a.record else self_test())
