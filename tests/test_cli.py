"""Command-line harness: determinism, exit codes, option handling."""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_sapt import cli, model
from sphere_sapt.cli import main
from sphere_sapt.sapt import effective_hamiltonian, moyal_projection
from sphere_sapt.sphere import SphereSymbol, make_grid


def test_gap_runs_and_writes_outputs(tmp_path):
    rc = main(["gap", "--lambdas", "0.5,0.45,0.55", "--thetas", "16", "--out", str(tmp_path)])
    assert rc == 0
    csv_text = (tmp_path / "gap.csv").read_text()
    assert (tmp_path / "gap.csv").read_bytes().startswith(b"lambda,theta,N\r\n")
    assert len(csv_text.splitlines()) == 1 + 3 * 16
    summary = json.loads((tmp_path / "gap.json").read_text())
    assert summary["pass"] is True
    assert summary["config"]["thetas"] == 16
    assert "wall_time_s" in summary


def _fresh_python(code: str, **env) -> str:
    """Stdout of `code` in a new interpreter whose environment lacks
    OPENBLAS_THREAD_TIMEOUT, plus `env`."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


_TIMEOUT = "import os, {module}; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"


@pytest.mark.parametrize(
    "module, env, want",
    [
        ("sphere_sapt", {}, "12"),  # the package sets it before any submodule loads numpy
        ("sphere_sapt.sapt", {}, "12"),
        ("sphere_sapt.star", {}, "12"),
        ("sphere_sapt.cli", {}, "12"),
        ("sphere_sapt", {"OPENBLAS_THREAD_TIMEOUT": "20"}, "20"),  # the user's value wins
        ("sphere_sapt.cli", {"OPENBLAS_THREAD_TIMEOUT": "20"}, "20"),
    ],
)
def test_every_entry_point_sets_the_blas_thread_timeout(module, env, want):
    assert _fresh_python(_TIMEOUT.format(module=module), **env) == want


def test_package_import_loads_no_numpy():
    # the package's default timeout must be set before numpy is loaded
    assert _fresh_python("import sys, sphere_sapt; print('numpy' in sys.modules)") == "False"


_IDLE_CPU = """import sphere_sapt.sapt, numpy as np, time
a = np.random.default_rng(0).random((400, 400))
a @ a
t = time.process_time()
time.sleep(0.3)
print(time.process_time() - t)"""


@pytest.mark.skipif((cli._blas_threads() or 0) < 2, reason="needs OpenBLAS with at least 2 threads")
def test_idle_blas_workers_do_not_spin():
    # with OpenBLAS's own default an idle worker spins ~0.1 s after each threaded call
    assert float(_fresh_python(_IDLE_CPU)) < 0.02


def test_summary_records_the_environment(tmp_path):
    _fresh_python(f"from sphere_sapt.cli import main; main(['gap', '--thetas', '4', '--out', {str(tmp_path)!r}])")
    env = json.loads((tmp_path / "gap.json").read_text())["env"]
    assert env["thread_env"]["OPENBLAS_THREAD_TIMEOUT"] == "12"
    assert env["numpy"] == np.__version__
    assert env["blas_threads"] == cli._blas_threads()
    assert set(env) == {"git", "python", "numpy", "blas", "blas_threads", "thread_env"}
    assert env["git"] == cli._git_revision()


_HASH = "0123456789abcdef0123456789abcdef01234567"


@pytest.mark.parametrize(
    "files, want",
    [
        ({"HEAD": _HASH + "\n"}, _HASH),  # detached
        ({"HEAD": "ref: refs/heads/main\n", "refs/heads/main": _HASH + "\n"}, _HASH),  # loose ref
        ({"HEAD": "ref: refs/heads/main\n", "packed-refs": f"# pack-refs\n{'f' * 40} refs/heads/old\n{_HASH} refs/heads/main\n^{'e' * 40}\n"}, _HASH),
        ({"HEAD": "ref: refs/heads/main\n", "packed-refs": f"{_HASH} refs/heads/other\n"}, None),  # unborn branch
        ({}, None),  # no .git directory
    ],
)
def test_git_revision_is_read_from_the_checkout(files, want, tmp_path, monkeypatch):
    # a source tree whose .git holds `files`; cli.py sits two levels below its root
    for name, text in files.items():
        (tmp_path / ".git" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / ".git" / name).write_text(text)
    monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "sphere_sapt" / "cli.py"))
    assert cli._git_revision() == want


def test_csv_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gap", "--thetas", "12", "--out", str(out)]) == 0
        assert main(["chern", "--grid", "16", "--out", str(out)]) == 0
    assert (a / "gap.csv").read_bytes() == (b / "gap.csv").read_bytes()
    assert (a / "chern.csv").read_bytes() == (b / "chern.csv").read_bytes()


def test_chern_exit_codes(tmp_path):
    assert main(["chern", "--lambda", "0.8", "--grid", "16", "--out", str(tmp_path)]) == 0
    # gap closing: invalid input, not a failed check
    assert main(["chern", "--lambda", "0.5", "--grid", "16", "--out", str(tmp_path)]) == 2


def test_gap_check_reads_zero_next_to_the_closing(tmp_path):
    # N(pi, lam) = |1 - 2 lam| = 2e-9 exactly; chern's run there is in the refusal-window test
    assert main(["gap", "--lambdas", "0.499999999,0.500000001", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "gap.json").read_text())["checks"][0]["worst"] == 0.0


_CLOSING = "no spectral gap within 1e-12 of the closing lam = 1/2"


@pytest.mark.parametrize("command", ["chern", "obstruction", "bands", "invariance-slopes", "egorov"])
def test_one_refusal_window_around_the_closing(command, tmp_path, capsys):
    # within 1e-12 of lam = 1/2 every command refuses with the model's one cause
    for lam in ("0.4999999999999", "0.5", "0.5000000000001"):
        assert main([command, "--lambda", lam, "--out", str(tmp_path / lam)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {_CLOSING}"
        assert not (tmp_path / lam).exists()
    # 1e-9 away none does: the Chern numbers and ranks agree, and the sweeps
    # run and fail their slope gates (pre-asymptotic at two_j 10-80 this close)
    want = 0 if command in ("chern", "obstruction") else 1
    for lam in ("0.499999999", "0.500000001"):
        assert main([command, "--lambda", lam, "--out", str(tmp_path / lam)]) == want


def test_chern_reads_no_slow_spin(tmp_path, capsys):
    # neither Chern number depends on the slow spin, so a fast spin of any
    # size runs on the smallest slow sector the model allows
    assert main(["chern", "--two-s", "9", "--grid", "16", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "chern.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:] for r in rows] == [[str(2 * k - 9)] * 2 for k in range(10)]
    assert "two_j" not in json.loads((tmp_path / "chern.json").read_text())["config"]


def test_obstruction_subcommand(tmp_path):
    rc = main(["obstruction", "--lambda", "0.8", "--two-j", "8", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "obstruction.csv").read_text().splitlines()
    assert rows[0] == "band,exact_rank,reference_rank,expected_rank"
    assert rows[1].split(",")[1] == "10"
    assert rows[2].split(",")[1] == "8"


def test_invalid_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_invalid_flag_value_exits_2(tmp_path):
    assert main(["egorov", "--observable", "bogus", "--out", str(tmp_path)]) == 2


def test_a_config_file_is_no_option(tmp_path, capsys):
    # options are flags alone: --config is refused by the parser like any unknown flag
    (tmp_path / "run.cfg").write_text("thetas=4\n")
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_output_goes_to_the_working_directory_without_out(tmp_path, monkeypatch):
    # no environment variable chooses the output directory: without --out it is the cwd
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPHERE_SAPT_OUT", str(tmp_path / "envdir"))
    assert main(["gap", "--thetas", "3"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.csv", "gap.json"]


def test_kernel_check_subcommand(tmp_path):
    rc = main(["kernel-check", "--two-j", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "kernel-check.json").read_text())
    assert all(c["pass"] for c in summary["checks"])


def test_kernel_check_rows_do_not_depend_on_the_sweep(tmp_path):
    # the round-trip operator is seeded by two_j alone, not drawn from a
    # stream shared with the sizes before it
    for name, sweep in (("alone", "5"), ("after", "1,5")):
        assert main(["kernel-check", "--two-j", sweep, "--out", str(tmp_path / name)]) == 0
    alone, after = ((tmp_path / name / "kernel-check.csv").read_text().splitlines() for name in ("alone", "after"))
    assert alone[1:] == [row for row in after[1:] if row.startswith("5,")]


@pytest.mark.parametrize(
    "scale",
    [
        lambda d: 1 + 1e-8,  # the n.S coefficient off by 1e-8 relative
        lambda d: 1 / sqrt(1 - d**-2),  # the unscaled principal symbol stands for the SW one
    ],
    ids=["n.S-off-by-1e-8", "unscaled-principal-symbol"],
)
def test_model_symbol_identity_gate_can_fail(tmp_path, monkeypatch, scale):
    # kernel-check compares the l <= 1 coefficients of the dequantized (SW)
    # and lower (coherent-state) symbols of H with cli.hamiltonian_symbol,
    # its n.S row (l = 1) scaled by sqrt(1 - d^-2) and by 1 - 1/d.  A row off
    # by 1e-8 relative, or the principal symbol's d^-2 defect (~1.1e-3
    # relative at two_j = 20; ~4.5e-4 in samples), misses the 1e-10 gate.
    def hamiltonian_symbol(p):
        c = model.hamiltonian_symbol(p).coeffs.copy()
        c[1] *= scale(p.d_j)
        return SphereSymbol(c)

    monkeypatch.setattr(cli, "hamiltonian_symbol", hamiltonian_symbol)
    assert main(["kernel-check", "--two-j", "2,20", "--out", str(tmp_path)]) == 1
    rows = [r.split(",") for r in (tmp_path / "kernel-check.csv").read_text().splitlines()[1:]]
    got = {int(t): float(v) for t, prop, v in rows if prop == "model_symbol_identity"}
    for two_j, v in got.items():
        d = two_j + 1
        # the SW identity's largest n.S coefficient (lam = 0.8) times the defect
        n_s = np.max(np.abs(model.hamiltonian_symbol(model.ModelParams(two_j, 1, 0.8)).coeffs[1]))
        assert v == pytest.approx(n_s * sqrt(1 - d**-2) * abs(scale(d) - 1), rel=1e-6)
        assert v > 1e-10


_LOADED = """import sys, tempfile
from sphere_sapt.cli import main
from sphere_sapt.sapt import effective_hamiltonian, moyal_projection
with tempfile.TemporaryDirectory() as out:
    assert main({argv!r} + ["--out", out]) == 0
print(sorted(m for m in ("numpy.random", "_hashlib") if m in sys.modules))"""


@pytest.mark.parametrize(
    "argv",
    [["gap"], ["chern"], ["obstruction"], ["bands"], ["invariance-slopes"], ["egorov"], ["kernel-check"]],
    ids=lambda a: a[0],
)
def test_paper_checks_load_no_numpy_random(argv):
    # numpy.random brings ten extension modules and, through secrets and
    # hmac, OpenSSL's libcrypto: ~5 MB of resident memory none of these need
    assert _fresh_python(_LOADED.format(argv=argv)).splitlines()[-1] == "[]"


_SUBMODULES = """import json, sys, tempfile
import sphere_sapt, numpy
before = set(sys.modules)
from sphere_sapt.cli import main
with tempfile.TemporaryDirectory() as out:
    assert main([{name!r}, "--out", out]) == 0
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("numpy."))))"""


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_commands_load_no_numpy_submodule_of_their_own(name):
    # beyond what `import numpy` loads, a command may load numpy.random for
    # the corpus draw alone: numpy.fft (pocketfft, ~0.24 MB of peak RSS at
    # import and ~0.6 MB more after its first transforms) has no caller, as
    # a transform's phi step is a product with the grid's phase matrix
    loaded = json.loads(_fresh_python(_SUBMODULES.format(name=name)).splitlines()[-1])
    corpus_draw = name in ("star-slopes", "calibrate")
    assert [m for m in loaded if not (corpus_draw and m.split(".")[:2] == ["numpy", "random"])] == []


_POLYNOMIAL = """import sys, tempfile
from sphere_sapt.cli import COMMANDS, main
loaded = []
with tempfile.TemporaryDirectory() as out:
    for name in COMMANDS:
        assert main([name, "--out", out]) == 0
        loaded += [name] if "numpy.polynomial" in sys.modules else []
print(loaded)"""


def test_commands_load_no_numpy_polynomial():
    # grids take their Gauss-Legendre nodes from the package's own
    # recurrence, not numpy.polynomial's nine modules and a LAPACK eigvalsh
    assert _fresh_python(_POLYNOMIAL).splitlines()[-1] == "[]"


def test_kernel_check_rejects_sizes_beyond_physical_memory(tmp_path, monkeypatch, capsys):
    # with 1.25 MiB of memory two_j = 1 fits (~1.01 MiB counted) but 20 (~1.49 MiB) does not
    monkeypatch.setattr(cli, "_physical_memory", lambda: 5 * 2**18)
    monkeypatch.setattr(cli, "kernel_property_residuals", lambda *a: pytest.fail("work started"))
    out = tmp_path / "out"
    assert main(["kernel-check", "--two-j", "1,20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --two-j 20 needs") and "physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["star-slopes", "--two-j", "10,1000000000"], ["calibrate", "--two-j", "6,8,1000000000"]])
def test_exact_products_reject_sizes_beyond_physical_memory(argv, tmp_path, monkeypatch, capsys):
    # the kernel rows and diagonals at d = 10^9 + 1 take 118 or 161 floats
    # per dimension at band 6 or 8, ~0.9 or 1.2 TiB
    monkeypatch.setattr(cli, "calibration_corpus", lambda *a: pytest.fail("work started"))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --two-j 1000000000 needs") and "physical memory" in err
    assert not out.exists()


def test_star_slopes_beyond_the_default_sizes(tmp_path):
    assert main(["star-slopes", "--two-j", "80,160,320,640", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "star-slopes.json").read_text())
    assert len(summary["checks"]) == 4 and summary["pass"] is True


@pytest.mark.parametrize("name", ["star-slopes", "calibrate"])
def test_exact_star_sweeps_to_two_j_5120(name, tmp_path):
    # the banded products reach d ~ 5 10^3 with every gate passing
    assert main([name, "--two-j", "640,1280,2560,5120", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{name}.json").read_text())
    assert len(summary["checks"]) == 4 and summary["pass"] is True


# -- the model commands on the M-sectors, beyond the default sizes ------------


@pytest.mark.parametrize(
    "argv", [["bands", "--two-j", "10,100,1000,10000"], ["invariance-slopes", "--two-j", "10,100,1000"]]
)
def test_sweeps_over_three_decades_pass_their_gates(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert len(summary["checks"]) == 2 and summary["pass"] is True
    assert set(summary["health"]["symbol_hermiticity"]) == {"order0", "order1"}
    assert max(summary["health"]["symbol_hermiticity"].values()) < 1e-12


@pytest.mark.parametrize("name, build", [("bands", effective_hamiltonian), ("invariance-slopes", moyal_projection)])
def test_symbol_hermiticity_is_recorded_per_order(name, build, tmp_path):
    # order k records the worst residual of terms 0..k of the series its sweep truncates
    assert main([name, "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / f"{name}.json").read_text())["health"]["symbol_hermiticity"]
    cfg = cli.COMMANDS[name][2]
    series = build(model.ModelParams(int(cfg["two_j"].split(",")[0]), 1, cfg["lam"]), cfg["band"])
    residuals = [t.hermiticity_residual() for t in series.terms]
    assert got == {"order0": residuals[0], "order1": max(residuals)}
    if name == "bands":  # h0 = m N(theta) is real to the last bit, h1 is not
        assert got["order0"] == 0.0 < got["order1"]


def test_obstruction_inside_the_gapped_phase(tmp_path):
    # at lam = 0.45 the levels cluster by no gap below two_j = 32; the
    # M-sectors label them at every size
    assert main(["obstruction", "--lambda", "0.45", "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in (tmp_path / "obstruction.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0.5", "9"), ("-0.5", "9")]


def test_bands_inside_the_gapped_phase_fail_their_gates(tmp_path, capsys):
    # at its default sizes two_j <= 80 lam = 0.45 is pre-asymptotic: the
    # slopes miss their gates, which is a failed check and writes both files
    assert main(["bands", "--lambda", "0.45", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "bands.json").read_text())
    assert (tmp_path / "bands.csv").exists() and not any(c["pass"] for c in summary["checks"])


def test_bands_at_lambda_1_still_run(tmp_path):
    # H = (2/d) J.S: the order-0 distances are exactly 1/(2d), and the
    # order-1 ones keep the gauge defect of h1 in view (order 1 misses its gate)
    assert main(["bands", "--lambda", "1", "--out", str(tmp_path)]) == 1
    rows = [r.split(",") for r in (tmp_path / "bands.csv").read_text().splitlines()[1:]]
    order0 = [(int(d), float(v)) for d, q, v in rows if q == "hausdorff_order0"]
    assert len(order0) == 4 and all(abs(v - 1 / (2 * d)) < 1e-12 for d, v in order0)
    assert all(float(v) > 1e-4 for _, q, v in rows if q == "hausdorff_order1")
    assert (tmp_path / "bands.json").exists()


def test_obstruction_at_two_j_10_5(tmp_path):
    assert main(["obstruction", "--lambda", "0.8", "--two-j", "100000", "--out", str(tmp_path)]) == 0
    rows = [r.split(",") for r in (tmp_path / "obstruction.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0.5", "100002"), ("-0.5", "100000")]


def test_egorov_to_two_j_640(tmp_path):
    assert main(["egorov", "--two-j", "20,40,80,160,320,640", "--out", str(tmp_path)]) == 0
    assert abs(json.loads((tmp_path / "egorov.json").read_text())["fit"]["slope"] + 2) < 0.1


def test_kernel_check_to_two_j_160(tmp_path):
    # the gate is 1e-10; the worst residual here is ~1e-12 (trace duality),
    # and ~3e-11 with eigenvalue-based Gauss-Legendre weights.  two_j = 320
    # passes too (worst ~2e-12), but takes ~7 s and ~435 MB
    assert main(["kernel-check", "--two-j", "160", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "kernel-check.csv").read_text().splitlines()[1:]
    assert len(rows) == 9 and max(float(r.split(",")[2]) for r in rows) < 1e-11


def test_model_commands_build_no_dense_operator(tmp_path, monkeypatch):
    # no 2d x 2d Hamiltonian, no eigensolver or SVD (not even of the 2 x 2 fast
    # sector), and no full tensor basis in the four sector commands: their
    # symbols carry the offsets |m| <= 1 alone, so no kernel (the full one
    # included, which a band-32 symbol gets at two_j = 10) builds another block.
    # kernel-check reads H's symbols from its diagonals: no dense H and no
    # dense slow spin matrices at any of its sizes
    from sphere_sapt import model, sapt, spin, swq
    from sphere_sapt.sphere import make_grid

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    def band_block(two_j, m, L):
        assert m <= 1, f"block {m} of the band-{L} kernel at two_j = {two_j}"
        return spin.offset_block(two_j, m, L)

    # the commands' quadrature grids are built anew, under the ban
    sapt._symbol_grid.cache_clear()
    make_grid.cache_clear()
    spin.make_irrep.cache_clear()  # irreps whose Jvec an earlier test built
    monkeypatch.setattr(model, "build_hamiltonian", forbidden("build_hamiltonian"))
    monkeypatch.setattr(spin, "tensor_basis", forbidden("tensor_basis"))
    monkeypatch.setattr(swq, "offset_block", band_block)
    for mod in (np.linalg, np.linalg._linalg):  # numpy's own norm(ord=2) calls the latter's svd
        monkeypatch.setattr(mod, "eigvalsh", forbidden("eigvalsh"))
        monkeypatch.setattr(mod, "svd", forbidden("svd"))
        monkeypatch.setattr(mod, "eigh", forbidden("eigh"))
    for name in ("obstruction", "bands", "invariance-slopes", "egorov"):
        assert main([name, "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(swq, "offset_block", spin.offset_block)  # its full kernels read every block
    assert main(["kernel-check", "--out", str(tmp_path)]) == 0
    for two_j in (2, 3, 5, 10, 20):
        assert "Jvec" not in vars(spin.make_irrep(two_j)), two_j


# every numpy.linalg routine that reaches LAPACK (norm of a vector does not)
LAPACK = ("eigh", "eigvalsh", "eig", "lstsq", "inv", "solve", "svd", "qr", "det", "pinv", "cholesky")


def test_default_paths_call_no_lapack(tmp_path, monkeypatch):
    # each first LAPACK call pages in part of the BLAS library, which sets a short
    # run's peak RSS: the nine commands at their defaults, the bench's kernel-check
    # sweep and its L-convergence calls (band limits 32 and 64) call none.  The
    # package caches are cleared first, so an irrep built by an earlier test cannot
    # hide a call its first build makes, and again after, so the tests that follow
    # start from the caches of a fresh process, not from this run's grids
    from sphere_sapt.sapt import almost_invariance_norms, band_spectrum_compare
    from sphere_sapt.star import CALIBRATED

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")

        return call

    def clear_caches():
        for module in [m for n, m in sys.modules.items() if n.startswith("sphere_sapt.")]:
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()

    clear_caches()
    for mod in (np.linalg, np.linalg._linalg):
        for name in LAPACK:
            monkeypatch.setattr(mod, name, forbidden(name))
    try:
        for name in cli.COMMANDS:
            assert main([name, "--out", str(tmp_path)]) == 0
        assert main(["kernel-check", "--two-j", "1,2,3,5,10,20,30", "--out", str(tmp_path)]) == 0
        for L in (32, 64):
            for sweep in (almost_invariance_norms, band_spectrum_compare):
                sweep(0.2, 0.5, [10, 20, 40], order=1, cs=CALIBRATED, L=L)
    finally:
        clear_caches()


@pytest.mark.parametrize(
    "argv, work",
    [
        (["bands", "--two-j", "10,10000000"], "band_spectrum_compare"),
        (["invariance-slopes", "--two-j", "10,10000000"], "almost_invariance_norms"),
        (["obstruction", "--two-j", "10000000"], "exact_band_projection"),
        (["egorov", "--two-j", "10,20000"], "egorov_error"),
    ],
)
def test_model_commands_reject_sizes_beyond_physical_memory(argv, work, tmp_path, monkeypatch, capsys):
    # with 1 GiB: the sweeps hold ~1.2 kB per dimension (12 GB at d = 10^7),
    # egorov ~8 d^2 B, the cached Q[1] (3.2 GB at d = 2 10^4; 0.8 GB at 10^4 fits)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(cli, work, lambda *a, **k: pytest.fail("work started"))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --two-j {argv[2].split(',')[-1]} needs") and "physical memory" in err
    assert not out.exists()


def test_model_commands_fit_their_defaults_in_a_gibibyte(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2**30)
    for name in ("obstruction", "bands", "invariance-slopes", "egorov"):
        assert main([name, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-check", "--two-j", "80"],
        ["egorov", "--two-j", "20,320"],
        ["bands", "--two-j", "10,20000"],
        ["invariance-slopes", "--two-j", "10,20000"],
        ["star-slopes", "--two-j", "640,1280,2560,5120"],
        ["calibrate", "--two-j", "640,1280,2560,5120"],
        # the exact products hold their diagonal arrays for every pair of the batch at once
        ["star-slopes", "--two-j", "640,1280,2560,5120", "--pairs", "40"],
        ["calibrate", "--two-j", "640,1280,2560,5120", "--pairs", "24"],
        ["kernel-check", "--two-j", "160"],
        # the evolved symbol has width 1: what grows as d^2 is the cached Q[1] alone
        ["egorov", "--two-j", "640,1280"],
    ],
)
def test_memory_counts_bound_the_measured_peak(argv, tmp_path, monkeypatch):
    # the size check counts at least what the run allocates (tracemalloc
    # sees numpy's buffers), so a path that grows past its count fails here
    peak, counted = _peak_and_counts(argv, tmp_path, monkeypatch)
    assert len(counted) == 1 and peak < counted[0], (peak, counted)


@pytest.mark.parametrize(
    "first, second",
    [(["kernel-check"], ["egorov", "--two-j", "640,1280"]), (["egorov", "--two-j", "640,1280"], ["kernel-check"])],
    ids=["kernel-check-then-egorov", "egorov-then-kernel-check"],
)
def test_a_grid_table_left_by_one_command_stays_inside_the_next_ones_count(first, second, tmp_path, monkeypatch):
    # both sample on the cached make_grid(48): kernel-check asks its Legendre
    # table for the columns m <= 20 at band 20, egorov for m <= 1 at band
    # 1281.  A table that kept the other's columns or rows (41 columns at band
    # 1281, either way round) would outgrow the second command's count
    make_grid.cache_clear()  # the grid holds the two commands' tables alone
    assert main(first + ["--out", str(tmp_path)]) == 0
    peak, counted = _peak_and_counts(second, tmp_path, monkeypatch)
    assert peak < max(counted), (peak, counted)  # kernel-check counts each size up front


def _peak_and_counts(argv, tmp_path, monkeypatch):
    """tracemalloc's peak over a run of argv, and the needs it passed to the size check."""
    counted = []
    monkeypatch.setattr(cli, "_check_memory", lambda two_j, need: counted.append(need))
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, counted


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_egorov_beyond_two_j_99_is_finite(tmp_path):
    # from two_j = 99 on, the unnormalized seed J+^m of the basis exceeds the float range
    assert main(["egorov", "--two-j", "20,40,80,120", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "egorov.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[2]) for r in rows]
    assert len(values) == 4 and all(np.isfinite(values))


def test_two_point_sweep_writes_strict_json(tmp_path):
    assert main(["star-slopes", "--two-j", "10,20", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "star-slopes.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert all(c["ci95"] is None for c in summary["checks"] if "slope" in c)


# each row's id is fixed with the row, so a row added or removed renames no
# other; a new row takes the next unused number
@pytest.mark.parametrize(
    "argv, want",
    [
        pytest.param(["egorov", "--two-j", "10"], 2, id="argv0-2"),  # one size gives no slope
        pytest.param(["bands", "--band", "0.7"], 2, id="argv1-2"),  # not a band label of s = 1/2
        pytest.param(["bands", "--band", "5"], 2, id="argv2-2"),
        pytest.param(["invariance-slopes", "--band", "0.7", "--two-j", "10,20"], 2, id="argv3-2"),  # not snapped to 0.5
        pytest.param(["chern", "--lambda", "0.5"], 2, id="argv6-2"),  # gap closing
        pytest.param(["gap", "--lambdas", "0.2,nan"], 2, id="argv7-2"),  # non-finite input
        pytest.param(["egorov", "--time", "inf"], 2, id="argv8-2"),
        pytest.param(["star-slopes", "--pairs", "0", "--two-j", "10,20"], 2, id="argv9-2"),  # empty corpus
        pytest.param(["star-slopes", "--band-limit", "0", "--two-j", "10,20"], 2, id="argv11-2"),  # constants multiply exactly
        pytest.param(["calibrate", "--band-limit", "0"], 2, id="argv12-2"),
        pytest.param(["calibrate", "--two-j", "1,8,2,4"], 2, id="argv13-2"),  # below 2 * band limit
        pytest.param(["calibrate", "--two-j", "10,10"], 2, id="argv14-2"),  # one size twice gives no slope
        pytest.param(["chern", "--grid", "0"], 2, id="argv15-2"),  # an empty lattice sums to Chern number 0
        pytest.param(["chern", "--grid", "-1"], 2, id="argv16-2"),
        pytest.param(["gap", "--thetas", "0"], 2, id="argv17-2"),  # would write a header-only CSV
        pytest.param(["gap", "--thetas", "-1"], 2, id="argv18-2"),
        pytest.param(["kernel-check", "--two-j", ""], 2, id="argv21-2"),
        pytest.param(["chern", "--two-s", "-1"], 2, id="argv22-2"),  # would write a header-only CSV
        pytest.param(["egorov", "--time", "0"], 2, id="argv23-2"),  # the errors are round-off: the slope would check nothing
        pytest.param(["egorov", "--observable", "n3"], 2, id="argv24-2"),  # conserved by both flows: round-off again
        pytest.param(["star-slopes", "--two-j", "2,4,6"], 2, id="argv25-2"),  # below 2 * band limit: the errors would be projections
        pytest.param(["gap", "--lambdas", ","], 2, id="argv26-2"),  # would write a header-only CSV
        pytest.param(["gap", "--lambdas", ""], 2, id="argv27-2"),
        pytest.param(["bands", "--two-j", "10,10,20"], 2, id="argv28-2"),  # d = 11 written and fitted twice
        pytest.param(["egorov", "--two-j", "20,10,20"], 2, id="argv29-2"),
        pytest.param(["kernel-check", "--two-j", "2,2"], 2, id="argv30-2"),  # the rows of two_j = 2 twice
        pytest.param(["obstruction", "--lambda", "0.5"], 2, id="argv31-2"),  # no Chern number to compare with
        pytest.param(["egorov", "--lambda", "0"], 2, id="argv32-2"),  # N = 1: both flows are the identity
        pytest.param(["egorov", "--lambda", "1"], 2, id="argv33-2"),
        pytest.param(["invariance-slopes", "--lambda", "1"], 2, id="argv34-2"),  # (2/d) J.S commutes with Op(pi)
        pytest.param(["invariance-slopes", "--lambda", "0"], 2, id="argv35-2"),  # the norms are exactly 0
        pytest.param(["bands", "--lambda", "0"], 2, id="argv36-2"),  # H = 1 (x) S3: the levels agree to round-off
        pytest.param(["gap", "--lambdas", "1.5"], 2, id="argv37-2"),  # outside the model's couplings
        pytest.param(["gap", "--lambdas", "-0.5"], 2, id="argv38-2"),
    ],
)
def test_exit_codes(tmp_path, monkeypatch, capsys, argv, want):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == want
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("failed: " if want == 1 else "error: ")
    assert _CAUSES.get(tuple(argv), "") in err[0]
    assert not out.exists()


# the message of an exit names the cause: the option, or the value and its x
_CAUSES = {
    ("star-slopes", "--band-limit", "0", "--two-j", "10,20"): "--band-limit must be >= 1",
    ("calibrate", "--band-limit", "0"): "--band-limit must be >= 1",
    ("calibrate", "--two-j", "1,8,2,4"): "--two-j values must be >= 2 * --band-limit = 6, got 1",
    ("calibrate", "--two-j", "10,10"): "at least two different two_j values, got '10,10'",
    ("bands", "--two-j", "10,10,20"): "--two-j 10 is given twice in '10,10,20'",
    ("egorov", "--two-j", "20,10,20"): "--two-j 20 is given twice in '20,10,20'",
    ("kernel-check", "--two-j", "2,2"): "--two-j 2 is given twice in '2,2'",
    ("star-slopes", "--two-j", "2,4,6"): "--two-j values must be >= 2 * --band-limit = 8, got 2",
    ("star-slopes", "--pairs", "0", "--two-j", "10,20"): "a corpus needs n_pairs >= 1",
    ("chern", "--grid", "0"): "--grid must be >= 1",
    ("chern", "--grid", "-1"): "--grid must be >= 1",
    ("gap", "--thetas", "0"): "--thetas must be >= 1",
    ("gap", "--thetas", "-1"): "--thetas must be >= 1",
    ("kernel-check", "--two-j", ""): "--two-j needs at least one value, got ''",
    ("gap", "--lambdas", ","): "--lambdas needs at least one value, got ','",
    ("gap", "--lambdas", ""): "--lambdas needs at least one value, got ''",
    ("chern", "--two-s", "-1"): "two_s must be >= 0, got -1",
    ("egorov", "--time", "0"): "--time must be nonzero",
    ("egorov", "--observable", "n3"): "unknown observable 'n3'",
    ("chern", "--lambda", "0.5"): _CLOSING,
    ("obstruction", "--lambda", "0.5"): _CLOSING,
    ("gap", "--lambdas", "1.5"): "lambda must lie in [0, 1]",
    ("gap", "--lambdas", "-0.5"): "lambda must lie in [0, 1]",
    ("egorov", "--lambda", "0"): "--lambda must lie strictly between 0 and 1: at 0 N = 1",
    ("egorov", "--lambda", "1"): "--lambda must lie strictly between 0 and 1: at 1 N = 1",
    ("invariance-slopes", "--lambda", "1"): "at 1 H commutes with the quantized projection",
    ("invariance-slopes", "--lambda", "0"): "at 0 H commutes with the quantized projection",
    ("bands", "--lambda", "0"): "--lambda must be nonzero",
}


@pytest.mark.parametrize(
    "argv",
    [
        # the kernel-check gate is 1e-10 and its grid make_grid(max(48, 2 two_j));
        # both sweeps run orders 0 and 1, the only ones the pipeline implements
        ["kernel-check", "--tol", "1"],
        ["kernel-check", "--grid", "120"],
        ["bands", "--orders", "1"],
        ["invariance-slopes", "--orders", "0"],
        # neither Chern number reads a slow spin
        ["chern", "--two-j", "8"],
    ],
)
def test_fixed_settings_are_no_options(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_every_help_entry_names_an_option():
    assert set(cli.HELP) == {key for _, _, defaults in cli.COMMANDS.values() for key in defaults}


def test_failed_computation_exits_1(tmp_path, monkeypatch):
    def broken(*args):
        raise ArithmeticError("plaquette sum 0.5 not an integer")

    monkeypatch.setattr(cli, "chern_plaquette", broken)
    assert main(["chern", "--grid", "8", "--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_row_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "gap_N", lambda theta, lam: np.full(np.shape(theta), np.nan))
    assert main(["gap", "--thetas", "4", "--out", str(tmp_path)]) == 1
    assert "non-finite value in row" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_numpy_floats_are_written_as_numbers(tmp_path):
    assert cli._emit({"out": str(tmp_path)}, "demo", ("x",), [(np.float64(0.1),)], [], {}, 0.0) == 0
    assert (tmp_path / "demo.csv").read_text().splitlines() == ["x", "0.1"]


def test_nonfinite_summary_names_the_key(tmp_path):
    checks = [{"name": "ok", "pass": True}, {"name": "fit", "pass": True, "slope": float("nan")}]
    with pytest.raises(ArithmeticError, match=r"summary at checks\[1\]\.slope$"):
        cli._emit({"out": str(tmp_path)}, "demo", ("x",), [], checks, {}, 0.0)
    assert list(tmp_path.iterdir()) == []


def test_fits_carry_intercept_and_residual(tmp_path):
    assert main(["egorov", "--two-j", "10,20,40", "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "egorov.json").read_text())["fit"]
    assert set(fit) == {"slope", "intercept", "ci95", "n_points", "residual"}
    assert fit["n_points"] == 3 and fit["residual"] >= 0


# -- property test over the argument space ------------------------------------

_FLOATS = st.one_of(st.sampled_from([0.0, 0.2, 0.45, 0.5, 0.8, 1.0, float("nan")]), st.floats(-0.5, 1.5))
_SIZES = st.integers(-2, 12)


def _joined(elements):
    return st.lists(elements, max_size=4).map(lambda xs: ",".join(map(str, xs)))


_VALUES = {
    "lam": _FLOATS,
    "lambdas": _joined(_FLOATS),
    "two_s": st.integers(-1, 3),
    "thetas": st.integers(-2, 16),
    "grid": st.integers(-2, 16),
    "band": st.one_of(st.sampled_from([0.5, -0.5, 0.0, 1.0, 0.7, 5.0, float("nan")]), st.floats(-2, 2)),
    "pairs": st.integers(-1, 3),
    "band_limit": st.integers(-1, 3),
    "seed": st.integers(-1, 50),
    "observable": st.sampled_from(["n1", "n2", "n3", "n4", ""]),
    "time": st.one_of(st.sampled_from([0.0, float("nan")]), st.floats(-2, 2)),
}


@st.composite
def _invocations(draw):
    """argv with every option of a command drawn small, each left at its default or given as a flag."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [name]
    for key, default in cli.COMMANDS[name][2].items():
        if key == "two_j":
            value = draw(_SIZES if isinstance(default, int) else _joined(_SIZES))
        else:
            value = draw(_VALUES[key])
        if draw(st.booleans()):
            argv.append(f"--{'lambda' if key == 'lam' else key.replace('_', '-')}={value}")
    return argv


def _strict(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=40, deadline=None)
@given(_invocations())
def test_any_invocation_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = main(argv + ["--out", str(out)])
        assert rc in (0, 1, 2)
        written = sorted(out.iterdir()) if out.exists() else []
        if rc == 2:
            assert written == []
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_strict)
