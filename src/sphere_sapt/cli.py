"""Batch experiment runner.

Every numerical check is a subcommand writing a CSV (data rows only, byte
deterministic for a fixed seed) and a JSON summary (config echo, wall time,
pass/fail per check, slope fits).  A subcommand returns its rows, checks
and extra summary keys; `main` alone times it, writes the files and maps
what it raises to an exit code:

    0  every check passed
    1  a check failed, or the computation failed (ArithmeticError: e.g. a
       band split that does not separate, or a non-finite result)
    2  bad input (ValueError, LookupError, OSError: e.g. an unknown band
       label, config key or file, or fewer than two sizes for a slope)

A run that raises writes no file.  Output directory: --out flag, else
SPHERE_SAPT_OUT, else cwd.  An optional key=value config file can pre-set
options; its keys are the option names, its values are converted like the
flags, and explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from math import isfinite, pi

import numpy as np

from .berry import chern_analytic, chern_plaquette
from .fits import loglog_slope
from .model import (
    ModelParams,
    build_hamiltonian,
    exact_symbol_field,
    gap_N,
    lower_hamiltonian_symbol_field,
)
from .sapt import (
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
    SemiclassicalSymbol,
    calibrate_order1,
    calibration_corpus,
    moyal_truncation,
    order1_bilinear,
    poisson_bracket,
    star_exact,
    _combine,
)
from .swq import (
    SWKernel,
    dequantize,
    kernel_property_residuals,
    lower_symbol,
    quantize,
)


def _int_list(s) -> list[int]:
    return [int(x) for x in str(s).split(",") if x != ""]


def _float_list(s) -> list[float]:
    xs = [float(x) for x in str(s).split(",") if x != ""]
    if not all(map(isfinite, xs)):
        raise ValueError(f"non-finite value in {s!r}")
    return xs


def _slope_sweep(cfg) -> list[int]:
    """The two_j values of a slope fit: at least two different ones."""
    two_j = _int_list(cfg["two_j"])
    if len(set(two_j)) < 2:
        raise ValueError(f"a slope needs at least two different two_j values, got {cfg['two_j']!r}")
    return two_j


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


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


def _emit(cfg, name: str, header, rows, checks, extra, wall_time_s: float) -> int:
    """Write <name>.csv and <name>.json; 0 if every check passed, else 1.

    Everything is checked and serialized before a file is opened, so a
    non-finite value raises ArithmeticError and leaves no partial output.
    """
    for row in rows:
        if not all(isfinite(x) for x in row if isinstance(x, float)):
            raise ArithmeticError(f"{name}: non-finite value in row {tuple(map(_fmt, row))}")
    ok = all(c["pass"] for c in checks)
    summary = {
        "command": name,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "wall_time_s": wall_time_s,
        "checks": checks,
        "pass": ok,
        **extra,
    }
    try:  # strict JSON
        text = json.dumps(summary, indent=2, default=float, allow_nan=False)
    except ValueError as e:
        raise ArithmeticError(f"{name}: non-finite value in the summary at {_nonfinite_key(summary)}") from e
    out = cfg.get("out") or os.environ.get("SPHERE_SAPT_OUT") or "."
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    with open(os.path.join(out, f"{name}.json"), "w") as fh:
        fh.write(text + "\n")
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {name}: {c['name']}")
    return 0 if ok else 1


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# -- subcommands: each returns (rows, checks, extra summary keys) -----------


def cmd_kernel_check(cfg):
    if cfg["grid"] < 1:
        raise ValueError(f"--grid must be >= 1 (the reproducing-property nodes need n_phi >= 2), got {cfg['grid']}")
    memory = _physical_memory()
    for two_j in _int_list(cfg["two_j"]):
        # kernel_property_residuals holds at most ~12 theta rows of n_phi d x d samples
        need = 12 * (max(cfg["grid"], 2 * two_j) + 1) * (two_j + 1) ** 2 * 16
        if need > memory:
            raise ValueError(f"--two-j {two_j} needs ~{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB of physical memory")
    rows, checks = [], []
    grid = make_grid(cfg["grid"])
    tol = cfg["tol"]
    rng = np.random.default_rng(23)
    for two_j in _int_list(cfg["two_j"]):
        d = two_j + 1
        ker = SWKernel(make_irrep(two_j))
        g = grid if grid.L_exact >= 2 * two_j else make_grid(2 * two_j)
        res = dict(kernel_property_residuals(ker, g))
        # round trips in both directions plus the high-band projection
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        res["roundtrip_operator"] = float(
            np.max(np.abs(quantize(dequantize(A, ker), ker) - A))
        )
        sym = dequantize(A, ker)
        back = dequantize(quantize(sym, ker), ker)
        res["roundtrip_symbol"] = float(np.max(np.abs(back.coeffs - sym.coeffs)))
        L = two_j + 1
        c = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        c[L, L] = 1.0
        res["high_band_projection"] = float(np.max(np.abs(quantize(SphereSymbol(c), ker))))
        # exact and coherent-state symbol identities of the model Hamiltonian
        # (needs a slow sector strictly larger than the spin-1/2 fast one)
        worst_sym = 0.0
        for lam in (0.2, 0.8) if two_j > 1 else ():
            p = ModelParams(two_j, 1, lam)
            H = build_hamiltonian(p)
            got = g.synthesize(dequantize(H, ker, fast_dim=2).truncated(1))
            worst_sym = max(worst_sym, float(np.max(np.abs(got - exact_symbol_field(p, g)))))
            low = g.synthesize(lower_symbol(H, p.slow, fast_dim=2).truncated(1))
            worst_sym = max(
                worst_sym,
                float(np.max(np.abs(low - lower_hamiltonian_symbol_field(p, g)))),
            )
        res["model_symbol_identity"] = worst_sym
        worst = max(res.values())
        for prop, val in res.items():
            rows.append((two_j, prop, val))
        checks.append({"name": f"two_j={two_j} residuals < {tol}", "pass": worst < tol, "worst": worst})
    return rows, checks, {}


def cmd_star_slopes(cfg):
    two_j_list = _slope_sweep(cfg)
    d_list = [t + 1 for t in two_j_list]
    corpus = calibration_corpus(cfg["pairs"], cfg["band_limit"], cfg["seed"])
    L_out = 2 * cfg["band_limit"]
    grid = make_grid(2 * L_out)

    def sup(sym):
        return float(np.max(np.abs(grid.synthesize(sym.truncated(L_out)))))

    # each pair's truncation series and Poisson bracket do not depend on d
    series = []
    for f, g in corpus:
        F, G = SemiclassicalSymbol.leading(f), SemiclassicalSymbol.leading(g)
        series.append((f, g, moyal_truncation(F, G, 1, CALIBRATED), poisson_bracket(f, g)))
    rows = []
    sups = {"trunc_err_k0": [], "trunc_err_k1": [], "commutator_residual": []}
    for two_j, d in zip(two_j_list, d_list):
        ker = SWKernel(make_irrep(two_j))
        worst = dict.fromkeys(sups, 0.0)
        for f, g, tr, pb in series:
            ex = star_exact(f, g, ker)
            for k in (0, 1):
                q = f"trunc_err_k{k}"
                worst[q] = max(worst[q], sup(_combine([(1.0, ex), (-1.0, tr.evaluate(d, k))])))
            comm = _combine([(1.0, ex), (-1.0, star_exact(g, f, ker)), (-2j / d, pb)])
            worst["commutator_residual"] = max(worst["commutator_residual"], sup(comm))
        for q, v in worst.items():
            sups[q].append(v)
            rows.append((d, q, v))

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
    extra = {"printed_unit_anomaly": {"order1_value": anomaly, "note": "exact 1*1 = 1; printed set deviates by -d^-1/2"}}
    return rows, checks, extra


def cmd_gap(cfg):
    lambdas = _float_list(cfg["lambdas"])
    thetas = np.linspace(0.0, pi, cfg["thetas"])
    rows = []
    worst = 0.0
    for lam in lambdas:
        prof = gap_N(thetas, lam)
        for th, v in zip(thetas, prof):
            rows.append((lam, float(th), float(v)))
        worst = max(worst, abs(float(gap_N(pi, lam)) - abs(1 - 2 * lam)))
    return rows, [{"name": "N(pi, lam) = |1 - 2 lam|", "pass": worst < 1e-12, "worst": worst}], {}


def cmd_chern(cfg):
    two_s = cfg["two_s"]
    params = ModelParams(cfg["two_j"], two_s, cfg["lam"])
    n = cfg["grid"]
    rows, checks = [], []
    for k in range(two_s + 1):
        m = two_s / 2 - k
        cp = chern_plaquette(params, m, n, n)
        ca = chern_analytic(params, m)
        rows.append((m, cp, ca))
        checks.append({"name": f"band m={m}: plaquette == analytic", "pass": cp == ca, "plaquette": cp, "analytic": ca})
    return rows, checks, {}


def _order_sweep(cfg, sweep, key: str, quantity: str, gate):
    """Rows, checks and fits of a per-order slope sweep of band cfg["band"].

    `sweep` is a sapt function returning values under `key` and a "fit";
    `gate(order, slope)` gives the check's name and verdict.
    """
    two_j_list = _slope_sweep(cfg)
    rows, checks, fits = [], [], {}
    for order in _int_list(cfg["orders"]):
        r = sweep(cfg["lam"], cfg["band"], two_j_list, order=order, cs=CALIBRATED)
        rows += [(tj + 1, f"{quantity}_order{order}", v) for tj, v in zip(two_j_list, r[key])]
        name, ok = gate(order, r["fit"].slope)
        fits[f"order{order}"] = r["fit"].as_dict()
        checks.append({"name": name, "pass": ok, **fits[f"order{order}"]})
    return rows, checks, {"fits": fits}


def cmd_bands(cfg):
    def gate(order, slope):
        want, tol = {0: (-1.0, 0.3), 1: (-2.0, 0.4)}.get(order, (-(order + 1), 0.4))
        return f"order {order} Hausdorff slope {want} +/- {tol}", abs(slope - want) < tol

    return _order_sweep(cfg, band_spectrum_compare, "hausdorff", "hausdorff", gate)


def cmd_invariance_slopes(cfg):
    # this model beats the generic O(d^-1) bound already at order 0;
    # require at least the advertised decay
    def gate(order, slope):
        want = -(order + 1)
        return f"order {order} slope <= {want} + 0.3", slope < want + 0.3

    return _order_sweep(cfg, almost_invariance_norms, "norms", "commutator_norm", gate)


def cmd_obstruction(cfg):
    params = ModelParams(cfg["two_j"], 1, cfg["lam"])
    clusters = exact_band_projection(build_hamiltonian(params), params.d_s)
    d_j = params.d_j
    rows, checks = [], []
    for c in clusters:
        expected = d_j + int(round(2 * c.m)) if params.lam > 0.5 else d_j
        rows.append((c.m, c.rank, d_j, expected))
        checks.append(
            {
                "name": f"band m={c.m}: exact rank {c.rank} vs reference {d_j}",
                "pass": c.rank == expected,
                "rank": int(c.rank),
            }
        )
    return rows, checks, {}


def cmd_egorov(cfg):
    obs = {"n1": 0, "n2": 1, "n3": 2}
    name = cfg["observable"]
    if name not in obs:
        raise ValueError(f"unknown observable {name!r}, expected one of {sorted(obs)}")
    two_j_list = _slope_sweep(cfg)
    r = egorov_error(cfg["lam"], cfg["band"], vector_symbol_coeffs()[obs[name]], cfg["time"], two_j_list)
    rows = [(tj + 1, f"egorov_error_{name}", e) for tj, e in zip(two_j_list, r["errors"])]
    fit = r["fit"].as_dict()
    return rows, [{"name": "error decays at least O(d^-1)", "pass": r["fit"].slope < -0.7, **fit}], {"fit": fit}


def cmd_calibrate(cfg):
    L = cfg["band_limit"]
    if L < 1:  # constant symbols leave the order-1 ansatz singular
        raise ValueError(f"--band-limit must be >= 1 for a calibration, got {L}")
    two_j_list = tuple(_slope_sweep(cfg))
    if min(two_j_list) < 2 * L:  # exact products of band-limit-L symbols reach l = 2L
        raise ValueError(f"--two-j values must be >= 2 * --band-limit = {2 * L}, got {min(two_j_list)}")
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
        {"two_j": "1,2,3,5,10,20", "grid": 48, "tol": 1e-10},
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
        {"two_s": 1, "lam": 0.8, "grid": 40, "two_j": 8},
    ),
    "bands": (
        cmd_bands,
        ("d_j", "quantity", "value"),
        {"lam": 0.2, "band": 0.5, "two_j": "10,20,40,80", "orders": "0,1"},
    ),
    "invariance-slopes": (
        cmd_invariance_slopes,
        ("d_j", "quantity", "value"),
        {"lam": 0.2, "band": 0.5, "two_j": "10,20,40,80", "orders": "0,1"},
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
    "grid": "grid resolution",
    "band": "band label m",
    "orders": "truncation orders, comma separated",
    "pairs": "number of random symbol pairs",
    "band_limit": "band limit of random symbols",
    "seed": "random seed",
    "observable": "observable name (n1, n2, n3)",
    "time": "evolution time T",
    "tol": "residual tolerance",
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphere-sapt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, _, defaults) in COMMANDS.items():
        sp = sub.add_parser(name)
        for key, default in defaults.items():
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=type(default), default=argparse.SUPPRESS, help=HELP[key])
        sp.add_argument("--out", default=argparse.SUPPRESS, help="output directory")
        sp.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file")
    return p


def _load_config_file(path: str, defaults: dict) -> dict:
    """Options from key=value lines, converted with the type of their default."""
    known = {"out": "", **defaults}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            k = k.strip().replace("-", "_")
            if k not in known:
                raise ValueError(f"unknown config key {k!r} in {path}")
            out[k] = type(known[k])(v.strip())
    return out


def main(argv=None) -> int:
    provided = vars(_build_parser().parse_args(argv))
    name = provided.pop("command")
    run, header, defaults = COMMANDS[name]
    try:
        cfg = dict(defaults)
        if "config" in provided:
            cfg.update(_load_config_file(provided.pop("config"), defaults))
        cfg.update(provided)
        bad = [k for k, v in cfg.items() if isinstance(v, float) and not isfinite(v)]
        if bad:
            raise ValueError(f"non-finite value of {', '.join(bad)}")
        t0 = time.perf_counter()
        rows, checks, extra = run(cfg)
        return _emit(cfg, name, header, rows, checks, extra, time.perf_counter() - t0)
    except ArithmeticError as e:  # before ValueError: a BandSplitError is both
        print(f"failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, LookupError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
