"""One benchmark process: a CLI command, the L-convergence driver, or the
environment record.

    python3 bench/child.py cli <sphere-sapt arguments>
    python3 bench/child.py lconv <output directory>
    python3 bench/child.py env

`cli` does what the `sphere-sapt` console script does.  When the variable
SPHERE_SAPT_BENCH_TRACE names a file, the process installs the span tracer
of spans.py before it starts and writes its per-layer summary there on exit.
"""

from __future__ import annotations

import json
import os
import platform
import sys

TRACE_VAR = "SPHERE_SAPT_BENCH_TRACE"

# The sapt-lconv check, fixed by the paper's model: band m = +1/2 of the
# two-spin model at lam = 0.2, order-1 projection with the calibrated star.
LCONV = {"lam": 0.2, "band": 0.5, "order": 1, "two_j": [10, 20, 40], "band_limits": [32, 64]}
# The gates of the `invariance-slopes` and `bands` subcommands, and the
# largest relative change allowed when the band limit is doubled.
LCONV_STEPS = (
    ("almost_invariance_norms", "norms", "slope <= -1.7", lambda s: s < -1.7),
    ("band_spectrum_compare", "hausdorff", "slope -2 +/- 0.4", lambda s: abs(s + 2) < 0.4),
)
LCONV_RTOL = 1e-6


def lconv(out_dir: str) -> int:
    """Run the L-convergence sweep and write sapt-lconv.json; 1 if a check fails."""
    from sphere_sapt import sapt
    from sphere_sapt.star import CALIBRATED

    c = LCONV
    steps = []
    for fn, key, gate_name, gate in LCONV_STEPS:
        prev = None
        for L in c["band_limits"]:
            step = {"name": f"{fn}@L{L}", "checks": []}
            steps.append(step)
            try:
                r = getattr(sapt, fn)(c["lam"], c["band"], c["two_j"], order=c["order"], cs=CALIBRATED, L=L)
            except (ArithmeticError, ValueError, LookupError) as e:
                step["error"] = f"{type(e).__name__}: {e}"
                prev = None
                continue
            step["values"] = r[key]
            step["fit"] = r["fit"].as_dict()
            step["checks"].append({"name": gate_name, "pass": gate(r["fit"].slope)})
            if prev is not None:
                change = max(abs(a - b) / abs(b) for a, b in zip(r[key], prev))
                step["checks"].append(
                    {"name": f"change from L/2 < {LCONV_RTOL}", "pass": change < LCONV_RTOL, "change": change}
                )
            prev = r[key]
    ok = all("error" not in s and all(ch["pass"] for ch in s["checks"]) for s in steps)
    with open(os.path.join(out_dir, "sapt-lconv.json"), "w") as fh:
        json.dump({"command": "sapt-lconv", "config": c, "steps": steps, "pass": ok}, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


def _blas_threads():
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


def env() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "env":
        print(json.dumps(env()))
        return 0
    if mode == "cli":
        from sphere_sapt import cli

        def run():
            return cli.main(args)  # looked up here, after the tracer wrapped it

    else:
        def run():
            return lconv(args[0])

    trace_file = os.environ.get(TRACE_VAR)
    tracer = None
    if trace_file:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        return run()
    finally:
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
