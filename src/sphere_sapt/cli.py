"""Batch experiment runner.

Every numerical check is a subcommand writing a CSV (data rows only, byte
deterministic for a fixed seed) and a JSON summary (config echo, wall time,
environment, pass/fail per check, slope fits).  A subcommand returns its
rows, checks and extra summary keys; `main` alone times it, writes the
files and maps what it raises to an exit code:

    0  every check passed
    1  a check failed, or the computation failed (ArithmeticError: e.g. a
       lattice Chern sum that is no integer, or a non-finite result)
    2  bad input (ValueError, LookupError, OSError: e.g. an unknown band
       label, or fewer than two sizes for a slope)

A run that raises writes no file.  Output directory: --out, else cwd.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
import time
from math import isfinite, pi, sqrt
from pathlib import Path
from random import Random

import numpy as np

from .berry import chern_analytic, chern_plaquette
from .fits import loglog_slope
from .model import ModelParams, gap_N, hamiltonian_diagonals, hamiltonian_symbol
from .sapt import (
    BAND_LIMIT,
    almost_invariance_norms,
    band_spectrum_compare,
    egorov_error,
    exact_band_projection,
)
from .sphere import SphereSymbol, make_grid, vector_symbol_coeffs
from .spin import make_irrep
from .star import (
    CALIBRATED,
    PRINTED_MOYAL,
    calibrate_order1,
    calibration_corpus,
    order1_bilinear,
    poisson_bracket,
    star_exact,
    star_truncation,
    _combine,
)
from .swq import (
    SWKernel,
    _lower_scale,
    _per_l,
    _uniform,
    dequantize,
    dequantize_diagonals,
    kernel_property_residuals,
    quantize,
)


def _int_list(s) -> list[int]:
    return [int(x) for x in str(s).split(",") if x != ""]


def _float_list(s) -> list[float]:
    xs = [float(x) for x in str(s).split(",") if x != ""]
    if not all(map(isfinite, xs)):
        raise ValueError(f"non-finite value in {s!r}")
    return xs


def _no_repeats(two_j: list[int], given) -> list[int]:
    """two_j, refused if a value repeats: its rows would be written, and fitted, twice."""
    repeated = next((t for i, t in enumerate(two_j) if t in two_j[:i]), None)
    if repeated is not None:
        raise ValueError(f"--two-j {repeated} is given twice in {given!r}; each size runs once")
    return two_j


def _slope_sweep(cfg) -> list[int]:
    """The two_j values of a slope fit: at least two different ones, none repeated."""
    two_j = _int_list(cfg["two_j"])
    if len(set(two_j)) < 2:
        raise ValueError(f"a slope needs at least two different two_j values, got {cfg['two_j']!r}")
    return _no_repeats(two_j, cfg["two_j"])


def _star_sweep(cfg) -> list[int]:
    """The two_j values of a star-product sweep at band limit L = cfg["band_limit"]:
    a slope sweep whose every dimension resolves the exact products, which
    reach l = 2L.  L = 0 is refused: constant symbols multiply exactly, so
    there is no truncation error to fit and the order-1 ansatz is singular."""
    L = cfg["band_limit"]
    if L < 1:
        raise ValueError(f"--band-limit must be >= 1 (constant symbols multiply exactly), got {L}")
    two_j = _slope_sweep(cfg)
    if min(two_j) < 2 * L:
        raise ValueError(f"--two-j values must be >= 2 * --band-limit = {2 * L}, got {min(two_j)}")
    return two_j


def _nonfinite_key(obj, path: str = "") -> str | None:
    """JSON key path (e.g. "checks[0].slope") of the first non-finite float."""
    if isinstance(obj, float):
        return None if isfinite(obj) else path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, (list, tuple)) else ()
    for k, v in items:
        key = f"[{k}]" if isinstance(k, int) else f".{k}" if path else str(k)
        found = _nonfinite_key(v, path + key)
        if found is not None:
            return found
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def _git_revision() -> str | None:
    """Commit hash of the source checkout this module runs from, or None if no
    .git directory sits above src/: HEAD, then its loose ref or packed-refs.
    Reads files only and starts no git process."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):  # a detached HEAD holds the hash
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def _env_record() -> dict:
    """Python, numpy and BLAS versions, the thread settings of this process
    and the git revision of the source checkout."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS") or k == "OPENBLAS_THREAD_TIMEOUT"
        },
    }


def _emit(cfg, name: str, header, rows, checks, extra, wall_time_s: float) -> int:
    """Write <name>.csv and <name>.json; 0 if every check passed, else 1.

    Everything is checked and serialized before a file is opened, so a
    non-finite value raises ArithmeticError and leaves no partial output.
    """
    for row in rows:
        if not all(isfinite(x) for x in row if isinstance(x, float)):
            raise ArithmeticError(f"{name}: non-finite value in row {row}")
    ok = all(c["pass"] for c in checks)
    summary = {
        "command": name,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "wall_time_s": wall_time_s,
        "env": _env_record(),
        "checks": checks,
        "pass": ok,
        **extra,
    }
    try:  # strict JSON
        text = json.dumps(summary, indent=2, default=float, allow_nan=False)
    except ValueError as e:
        raise ArithmeticError(f"{name}: non-finite value in the summary at {_nonfinite_key(summary)}") from e
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    with open(os.path.join(out, f"{name}.json"), "w") as fh:
        fh.write(text + "\n")
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {name}: {c['name']}")
    return 0 if ok else 1


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(two_j: int, need: float) -> None:
    """ValueError naming the size if a run at two_j needs more than physical memory (need in bytes)."""
    memory = _physical_memory()
    if need > memory:
        raise ValueError(f"--two-j {two_j} needs ~{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB of physical memory")


def _check_star_memory(two_j_list, L: int, pairs: int) -> None:
    """_check_memory for exact star products at band L = L_f + L_g over a sweep,
    each of a batch of `pairs` pairs.

    Per dimension they keep the kernel rows l <= L of Q[m], m <= L, and
    count the d lower-symbol factors; at the largest they hold,
    per pair, the row-indexed diagonal arrays of both factors (2 L_f + 1
    and 2 L_g + 1 rows of d at most, fewer if a factor's top offsets carry
    nothing), of their product and of one step's temporaries; once, a
    complex copy of one kernel block; and a few MiB of grids, tables and
    symbols that do not grow with d.
    """
    rows = sum(((L + 1) * (L + 2) // 2 + 1) * (t + 1) for t in two_j_list)
    per_d = (10 * L + 8) * pairs + 2 * L + 2
    _check_memory(max(two_j_list), 8 * (rows + per_d * (max(two_j_list) + 1)) + 2**22)


# -- subcommands: each returns (rows, checks, extra summary keys) -----------


def cmd_kernel_check(cfg):
    two_j_list = _no_repeats(_int_list(cfg["two_j"]), cfg["two_j"])
    if not two_j_list:
        raise ValueError(f"--two-j needs at least one value, got {cfg['two_j']!r}")
    for two_j in two_j_list:
        # the tensor basis (the blocks Q[m], (d - m)^2 floats each, cached) and the grid's
        # Legendre table, then the larger of two steps, in floats: the quadrature's 40
        # random operators, 80 d^2, with one draw's temporaries, ~90 d^2; or the covariance
        # step's 21 dense kernels and their Legendre table, 63 d^2, with one rotation's
        # products, ~83 d^2 (the symbol identities read H's diagonals, O(d)).  On top: one
        # offset pair's profiles, 8 n_theta d, and 1 MiB of traces and grid nodes
        n_theta, d = max(48, 2 * two_j) // 2 + 1, two_j + 1
        tables = 8 * d * (d + 1) * (2 * d + 1) // 6 + 8 * n_theta * d * d
        _check_memory(two_j, tables + 8 * (90 * d * d + 8 * n_theta * d) + 2**20)
    rows, checks = [], []
    for two_j in two_j_list:
        d = two_j + 1
        ker = SWKernel(make_irrep(two_j))
        # exact to band 2 two_j, the products the checks integrate; never coarser than L = 48
        res = dict(kernel_property_residuals(ker, make_grid(max(48, 2 * two_j))))
        # round trips in both directions plus the high-band projection (seeded by two_j alone)
        rnd = Random(two_j)
        A = _uniform(rnd, (d, d)) + 1j * _uniform(rnd, (d, d))
        sym = dequantize(A, ker)
        B = quantize(sym, ker)
        res["roundtrip_operator"] = float(np.max(np.abs(B - A)))
        res["roundtrip_symbol"] = float(np.max(np.abs(dequantize(B, ker).coeffs - sym.coeffs)))
        L = two_j + 1
        c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        c[L, L] = 1.0
        res["high_band_projection"] = float(np.max(np.abs(quantize(SphereSymbol(c), ker))))
        # exact (SW) and coherent-state symbol identities of the Hamiltonian: its
        # principal symbol with the n.S row (l = 1) scaled by sqrt(1 - d^-2) and by
        # 1 - 1/d (needs a slow sector strictly larger than the spin-1/2 fast one),
        # read from H's three offset diagonals on the band-1 kernel, which returns
        # the rows l <= 1 alone; the lower symbol rescales the SW one per l
        worst_sym, ker1 = 0.0, SWKernel(ker.irrep, 1)
        for lam in (0.2, 0.8) if two_j > 1 else ():
            p = ModelParams(two_j, 1, lam)
            sw, h0 = dequantize_diagonals(hamiltonian_diagonals(p), ker1), hamiltonian_symbol(p).coeffs
            for sym, scale in ((sw, sqrt(1 - d**-2)), (_per_l(sw, _lower_scale(two_j)), 1 - 1 / d)):
                want = h0.copy()
                want[1] *= scale
                worst_sym = max(worst_sym, float(np.max(np.abs(sym.coeffs - want))))
        res["model_symbol_identity"] = worst_sym
        worst = max(res.values())
        for prop, val in res.items():
            rows.append((two_j, prop, val))
        checks.append({"name": f"two_j={two_j} residuals < 1e-10", "pass": worst < 1e-10, "worst": worst})
    return rows, checks, {}


def cmd_star_slopes(cfg):
    two_j_list = _star_sweep(cfg)
    _check_star_memory(two_j_list, 2 * cfg["band_limit"], cfg["pairs"])
    d_list = [t + 1 for t in two_j_list]
    # the corpus as two batches F, G: every product acts pair by pair, and
    # a sup over a batch's samples is the worst pair's
    F, G = (SphereSymbol.stack(s) for s in zip(*calibration_corpus(cfg["pairs"], cfg["band_limit"], cfg["seed"])))
    L_out = 2 * cfg["band_limit"]
    grid = make_grid(2 * L_out)

    def sup(sym):
        return float(np.max(np.abs(grid.synthesize(sym))))

    # the truncation series and the Poisson bracket do not depend on d
    tr, pb = star_truncation(F, G, CALIBRATED), poisson_bracket(F, G)
    rows = []
    sups = {"trunc_err_k0": [], "trunc_err_k1": [], "commutator_residual": []}
    for two_j, d in zip(two_j_list, d_list):
        irr = make_irrep(two_j)
        ex = star_exact(F, G, irr)
        for k in (0, 1):
            sups[f"trunc_err_k{k}"].append(sup(_combine([(1.0, ex), (-1.0, tr.evaluate(d, k))])))
        sups["commutator_residual"].append(sup(_combine([(1.0, ex), (-1.0, star_exact(G, F, irr)), (-2j / d, pb)])))
        rows += [(d, q, v[-1]) for q, v in sups.items()]

    fit0, fit1, fitc = (loglog_slope(d_list, v) for v in sups.values())
    # printed order-1 term on the unit pair: exact 1*1 = 1, printed gives -1/2 d^-1
    one = SphereSymbol.constant(1.0)
    b11 = order1_bilinear(one, one, PRINTED_MOYAL)
    anomaly = float(grid.synthesize(b11.truncated(0)).real.flat[0])
    checks = [
        {"name": "k=0 slope -1 +/- 0.3", "pass": abs(fit0.slope + 1) < 0.3, **fit0.as_dict()},
        {"name": "k=1 slope -2 +/- 0.3", "pass": abs(fit1.slope + 2) < 0.3, **fit1.as_dict()},
        {"name": "commutator residual at least O(d^-2)", "pass": fitc.slope < -1.7, **fitc.as_dict()},
        {"name": "printed order-1 on (1,1) equals -1/2", "pass": abs(anomaly + 0.5) < 1e-10, "value": anomaly},
    ]
    return rows, checks, {}


def cmd_gap(cfg):
    if cfg["thetas"] < 1:
        raise ValueError(f"--thetas must be >= 1, got {cfg['thetas']}")
    lambdas = _float_list(cfg["lambdas"])
    if not lambdas:
        raise ValueError(f"--lambdas needs at least one value, got {cfg['lambdas']!r}")
    thetas = np.linspace(0.0, pi, cfg["thetas"])
    rows = []
    worst = 0.0
    for lam in lambdas:
        ModelParams(1, 0, lam)  # the model's check of the coupling; N reads no spin
        prof = gap_N(thetas, lam)
        for th, v in zip(thetas, prof):
            rows.append((lam, float(th), float(v)))
        worst = max(worst, abs(float(gap_N(pi, lam)) - abs(1 - 2 * lam)))
    return rows, [{"name": "N(pi, lam) = |1 - 2 lam|", "pass": worst < 1e-12, "worst": worst}], {}


def cmd_chern(cfg):
    if cfg["grid"] < 1:
        raise ValueError(f"--grid must be >= 1, got {cfg['grid']}")
    # neither Chern number reads the slow spin: any slow sector larger than the fast one will do
    two_s = cfg["two_s"]
    params = ModelParams(two_s + 1, two_s, cfg["lam"])
    n = cfg["grid"]
    rows, checks = [], []
    for k in range(two_s + 1):
        m = two_s / 2 - k
        cp = chern_plaquette(params, m, n)
        ca = chern_analytic(params, m)
        rows.append((m, cp, ca))
        checks.append({"name": f"band m={m}: plaquette == analytic", "pass": cp == ca, "plaquette": cp, "analytic": ca})
    return rows, checks, {}


def _order_sweep(cfg, sweep, key: str, quantity: str, gate):
    """Rows, checks and fits of the order-0 and order-1 slope sweeps of band cfg["band"].

    `sweep` is a sapt function returning values under `key`, a "fit" and
    the "hermiticity" residual of its truncated series; `gate(order, slope)` gives
    the check's name and verdict.
    """
    two_j_list = _slope_sweep(cfg)
    # the sector path keeps the band-limited rows of Q[0] and Q[1] of every
    # dimension (cached) and holds some hundred length-d float arrays
    # (sector blocks, spectra, and the diagonal arrays of the symbols,
    # trimmed to the offsets |m| <= 1 they carry: three rows) of the largest
    blocks = sum(2 * (BAND_LIMIT + 1) * (t + 1) for t in two_j_list)
    _check_memory(max(two_j_list), 8 * (blocks + 100 * (max(two_j_list) + 1)))
    rows, checks, fits, hermiticity = [], [], {}, {}
    for order in (0, 1):
        r = sweep(cfg["lam"], cfg["band"], two_j_list, order=order, cs=CALIBRATED)
        rows += [(tj + 1, f"{quantity}_order{order}", v) for tj, v in zip(two_j_list, r[key])]
        name, ok = gate(order, r["fit"].slope)
        fits[f"order{order}"] = r["fit"].as_dict()
        hermiticity[f"order{order}"] = r["hermiticity"]
        checks.append({"name": name, "pass": ok, **fits[f"order{order}"]})
    return rows, checks, {"fits": fits, "health": {"symbol_hermiticity": hermiticity}}


def cmd_bands(cfg):
    if cfg["lam"] == 0:  # H = 1 (x) S3: a slope fit of round-off would check nothing
        raise ValueError("--lambda must be nonzero: at 0 the effective levels are the exact ones")

    def gate(order, slope):
        want, tol = {0: (-1.0, 0.3), 1: (-2.0, 0.4)}[order]
        return f"order {order} Hausdorff slope {want} +/- {tol}", abs(slope - want) < tol

    return _order_sweep(cfg, band_spectrum_compare, "hausdorff", "hausdorff", gate)


def cmd_invariance_slopes(cfg):
    if cfg["lam"] in (0, 1):  # H = 1 (x) S3 or (2/d) J.S: a slope fit of round-off would check nothing
        raise ValueError(f"--lambda must lie strictly between 0 and 1: at {cfg['lam']:g} H commutes with the quantized projection")

    # this model beats the generic O(d^-1) bound already at order 0;
    # require at least the advertised decay
    def gate(order, slope):
        want = -(order + 1)
        return f"order {order} slope <= {want} + 0.3", slope < want + 0.3

    return _order_sweep(cfg, almost_invariance_norms, "norms", "commutator_norm", gate)


def cmd_obstruction(cfg):
    params = ModelParams(cfg["two_j"], 1, cfg["lam"])
    _check_memory(params.two_j, 16 * 8 * params.d_j)  # some 16 arrays of the 2d sector eigenvalues
    d_j = params.d_j
    rows, checks = [], []
    for m, levels in exact_band_projection(params).items():
        rank, expected = len(levels), d_j - chern_analytic(params, m)  # rank - d = -C
        rows.append((m, rank, d_j, expected))
        checks.append({"name": f"band m={m}: exact rank {rank} vs reference {d_j}", "pass": rank == expected, "rank": rank})
    return rows, checks, {}


def cmd_egorov(cfg):
    # n3 is left out: both flows conserve it, so its errors are round-off
    obs = {"n1": 0, "n2": 1}
    name = cfg["observable"]
    if name not in obs:
        raise ValueError(f"unknown observable {name!r}, expected one of {sorted(obs)} (n3 is conserved)")
    if cfg["time"] == 0:  # a slope fit of round-off would check nothing
        raise ValueError("--time must be nonzero: at T = 0 both flows are the identity and the errors are round-off")
    if cfg["lam"] in (0, 1):  # N = 1: the same
        raise ValueError(f"--lambda must lie strictly between 0 and 1: at {cfg['lam']:g} N = 1 and both flows are the identity")
    two_j_list = _slope_sweep(cfg)
    # the full block Q[1] of every dimension (d^2 floats each, cached; the
    # observable's diagonal array is trimmed to the offsets |m| <= 1 it
    # carries, and an offset with no content builds no block) and the rows
    # l <= BAND_LIMIT of Q[0] that quantize h0, an m = 0 symbol
    # ((BAND_LIMIT + 1) d, cached); at the largest, the three Legendre
    # columns m <= 2 of the evolved symbol's synthesis on the 25 theta nodes
    # of the error grid, with the previous size's until they are replaced
    # (150 d), and the width-1 evolved symbol, the diagonals and their phases
    # (~40 d); plus ~2 MiB of grids and tables that do not grow with d
    blocks = sum((t + 1) ** 2 + (BAND_LIMIT + 1) * (t + 1) for t in two_j_list)
    d = max(two_j_list) + 1
    _check_memory(max(two_j_list), 8 * (blocks + 190 * d) + 2**21)
    r = egorov_error(cfg["lam"], cfg["band"], vector_symbol_coeffs()[obs[name]], cfg["time"], two_j_list)
    rows = [(tj + 1, f"egorov_error_{name}", e) for tj, e in zip(two_j_list, r["errors"])]
    fit = r["fit"].as_dict()
    return rows, [{"name": "error decays at least O(d^-1)", "pass": r["fit"].slope < -0.7, **fit}], {"fit": fit}


def cmd_calibrate(cfg):
    L = cfg["band_limit"]
    two_j_list = tuple(_star_sweep(cfg))
    _check_star_memory(two_j_list, 2 * L, cfg["pairs"])
    corpus = calibration_corpus(cfg["pairs"], L, cfg["seed"])
    rows, checks, reports = [], [], {}
    for product in ("sw", "berezin"):
        cs, rep = calibrate_order1(two_j_list, corpus, product=product)
        for t in rep["terms"]:
            rows.append((product, t["ansatz"], t["coefficient"], t["std_error"]))
        reports[product] = rep
        checks.append(
            {
                "name": f"{product}: residual slope better than -0.7",
                "pass": rep["residual_slope"] < -0.7,
                "residual_slope": rep["residual_slope"],
            }
        )
        checks.append(
            {
                "name": f"{product}: fitted constants annihilate the unit pair",
                "pass": abs(cs.c_const) < 5e-3,
                "c_const": cs.c_const,
            }
        )
    return rows, checks, {"reports": reports}


# name -> (run, CSV header, defaults); each option's type is its default's type
COMMANDS = {
    "kernel-check": (
        cmd_kernel_check,
        ("two_j", "property", "residual"),
        {"two_j": "1,2,3,5,10,20"},
    ),
    "star-slopes": (
        cmd_star_slopes,
        ("d_j", "quantity", "value"),
        {"two_j": "10,20,40,80", "pairs": 10, "band_limit": 4, "seed": 17},
    ),
    "gap": (
        cmd_gap,
        ("lambda", "theta", "N"),
        {"lambdas": "0.5,0.45,0.55,0.05,0.95,0.495,0.505", "thetas": 64},
    ),
    "chern": (
        cmd_chern,
        ("band", "chern_plaquette", "chern_analytic"),
        {"two_s": 1, "lam": 0.8, "grid": 40},
    ),
    "bands": (
        cmd_bands,
        ("d_j", "quantity", "value"),
        {"lam": 0.2, "band": 0.5, "two_j": "10,20,40,80"},
    ),
    "invariance-slopes": (
        cmd_invariance_slopes,
        ("d_j", "quantity", "value"),
        {"lam": 0.2, "band": 0.5, "two_j": "10,20,40,80"},
    ),
    "obstruction": (
        cmd_obstruction,
        ("band", "exact_rank", "reference_rank", "expected_rank"),
        {"lam": 0.8, "two_j": 8},
    ),
    "egorov": (
        cmd_egorov,
        ("d_j", "quantity", "value"),
        {"lam": 0.2, "band": 0.5, "observable": "n1", "time": 1.0, "two_j": "10,20,40,80"},
    ),
    "calibrate": (
        cmd_calibrate,
        ("product", "ansatz", "coefficient", "std_error"),
        {"two_j": "10,20,40,80", "pairs": 6, "band_limit": 3, "seed": 11},
    ),
}

HELP = {
    "two_j": "spin dimension(s) two_j, comma separated",
    "two_s": "fast-sector spin dimension two_s",
    "lam": "coupling parameter",
    "lambdas": "comma separated couplings",
    "thetas": "number of theta samples",
    "grid": "chern plaquette lattice: n theta links by n phi nodes",
    "band": "band label m",
    "pairs": "number of random symbol pairs",
    "band_limit": "band limit of random symbols",
    "seed": "random seed",
    "observable": "observable name (n1, n2; n3 is conserved by both flows)",
    "time": "evolution time T",
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphere-sapt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, _, defaults) in COMMANDS.items():
        sp = sub.add_parser(name)
        for key, default in defaults.items():
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=type(default), default=default, help=HELP[key])
        sp.add_argument("--out", default=".", help="output directory (default: the working directory)")
    return p


def main(argv=None) -> int:
    cfg = vars(_build_parser().parse_args(argv))
    name = cfg.pop("command")
    run, header, _ = COMMANDS[name]
    try:
        bad = [k for k, v in cfg.items() if isinstance(v, float) and not isfinite(v)]
        if bad:
            raise ValueError(f"non-finite value of {', '.join(bad)}")
        t0 = time.perf_counter()
        rows, checks, extra = run(cfg)
        return _emit(cfg, name, header, rows, checks, extra, time.perf_counter() - t0)
    except ArithmeticError as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, LookupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
