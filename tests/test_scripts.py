"""The sweep scripts run end to end and read the JSON keys they rely on."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(stem):
    path = ROOT / "scripts" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_runs(path, tmp_path):
    script = _load(path.stem)
    script.OUT = str(tmp_path)
    assert script.run() == 0


@pytest.mark.parametrize("stale", ["cli.main", "star.no_such_function"], ids=["entered", "undefined"])
def test_unreached_fails_on_a_stale_keep_entry(stale, tmp_path, monkeypatch):
    # a KEEP name that a command enters, or that names no function, fails
    # the gate like an unreached function missing from KEEP
    script = _load("unreached")
    script.OUT = str(tmp_path)
    monkeypatch.setitem(script.KEEP, stale, "stale")
    assert script.run() == 1


@pytest.mark.parametrize(
    "argv", [("star-slopes", "--two-j", "10,20"), ("calibrate",), ("kernel-check", "--two-j", "1,2,5")], ids=lambda a: a[0]
)
def test_bench_trace_runs(argv, tmp_path):
    # bench/spans.py hooks star_exact(f, g, ...) and berezin_exact by the
    # star commands' calls, and dequantize(A, kernel) and quantize(sym,
    # kernel) by kernel-check's; a changed signature fails here.  No
    # command enters its tensor_basis(two_j) hook.
    # calibrate runs at its default sizes: below two_j = 80 its unit-pair
    # gate fails on the physics, which would hide a failing hook
    trace = tmp_path / "trace.json"
    env = {**os.environ, "SPHERE_SAPT_BENCH_TRACE": str(trace)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "cli", *argv, "--out", str(tmp_path)]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    counts = json.loads(trace.read_text())
    if argv[0] == "kernel-check":
        assert counts["swq.dequantize.calls"] > 0 and counts["swq.quantize.calls"] > 0
        assert counts["swq.nonfinite_outputs"] == 0
    else:
        assert counts["star.computed_coeffs"] == counts["star.useful_coeffs"] > 0


def test_bench_trace_of_the_sector_commands(tmp_path):
    # the model commands under the span tracer: no dense Hamiltonian, no
    # full tensor basis and no exact band levels beyond obstruction and bands
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    calls = {}
    for name in ("obstruction", "bands", "invariance-slopes", "egorov"):
        env["SPHERE_SAPT_BENCH_TRACE"] = str(tmp_path / f"{name}.json")
        cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "cli", name, "--out", str(tmp_path)]
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        calls[name] = json.loads((tmp_path / f"{name}.json").read_text())
    for name, c in calls.items():
        assert c["model.build_hamiltonian.calls"] == 0 and c["spin.tensor_basis.calls"] == 0, name
        assert c["swq.dequantize.calls"] == 0 and c["cli.nonzero_exits"] == 0, name
    assert calls["obstruction"]["sapt.exact_band_projection.calls"] == 1
    assert calls["bands"]["sapt.exact_band_projection.calls"] == 8  # 4 sizes, 2 orders
    assert calls["egorov"]["sapt.egorov_error.calls"] == 1
