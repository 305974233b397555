"""Per-layer spans and counters, installed from outside the package.

`install` replaces public functions of the sphere_sapt modules by wrappers
in every module namespace that holds them (the CLI does
`from .swq import dequantize`, so patching swq alone would miss it).  Each
wrapper records a span (name, start, end, parent) in memory; `summary`
turns the spans of one process into self times and adds the counters.
A span's self time is its duration minus the durations of its child spans.
Nothing here changes arguments or results, which the benchmark checks by
comparing traced outputs with untraced ones.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions timed as spans; "Grid.x" names a method
SPANS = {
    "spin": ["tensor_basis"],
    "swq": ["dequantize", "quantize", "kernel_property_residuals"],
    "star": ["star_exact", "berezin_exact", "order1_bilinear", "symbol_product"],
    "sphere": ["Grid.synthesize", "Grid.analyze", "gradient_bilinears"],
    "model": ["build_hamiltonian", "principal_bands"],
    "berry": ["chern_plaquette"],
    "sapt": [
        "moyal_projection",
        "effective_hamiltonian",
        "exact_band_projection",
        "classical_flow",
        "egorov_error",
    ],
    "cli": ["main"],
}
# counters are summed over the processes of a rep, maxima combine by max
COUNTS = (
    "spin.tensor_basis.builds",
    "swq.dequantize.coeffs",
    "swq.nonfinite_outputs",
    "star.useful_coeffs",
    "star.computed_coeffs",
    "sphere.make_grid.builds",
    "cli.commands",
    "cli.nonzero_exits",
)
MAXIMA = ("swq.kernel_samples.mb",)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)
        self._seen = {}  # (name, args) -> results, to tell builds from cache hits

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return wrapper

    def built(self, name, key, result) -> None:
        """Count a build unless `result` is an object already returned for key."""
        seen = self._seen.setdefault((name, key), [])
        if not any(r is result for r in seen):
            seen.append(result)
            self.counts[name] += 1

    def summary(self) -> dict:
        names = [n for layer in SPANS.values() for n in layer]
        total = {n: 0.0 for n in names}
        child = [0.0] * len(self.spans)
        calls = dict.fromkeys(names, 0)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
            calls[name] += 1
        out = {"spans": len(self.spans)}
        for layer, fns in SPANS.items():
            for fn in fns:
                key = f"{layer}.{fn.removeprefix('Grid.')}"
                out[f"{key}.self_s"] = total[fn]
                out[f"{key}.calls"] = calls[fn]
        out.update(self.counts)
        out.update(self.maxima)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded sphere_sapt module."""
    import numpy as np

    from sphere_sapt import cli, sphere, swq  # noqa: F401  (loads every layer)

    def nonfinite(a) -> bool:
        return not bool(np.all(np.isfinite(a)))

    wrapped = {}  # name -> (original, wrapper)
    for layer, fns in SPANS.items():
        mod = sys.modules[f"sphere_sapt.{layer}"]
        for fn in fns:
            if not fn.startswith("Grid."):
                wrapped[fn] = (getattr(mod, fn), tracer.span(fn, getattr(mod, fn)))

    # counters ride on the span wrappers of the same functions
    def counted(fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result, *args, **kwargs)
            return result

        return wrapper

    def tensor_basis_hook(result, two_j):
        tracer.built("spin.tensor_basis.builds", two_j, result)

    def dequantize_hook(result, A, kernel, fast_dim=None):
        tracer.counts["swq.dequantize.coeffs"] += kernel.d**2 * (fast_dim or 1) ** 2
        tracer.counts["swq.nonfinite_outputs"] += nonfinite(result.coeffs)

    def quantize_hook(result, sym, kernel):
        tracer.counts["swq.nonfinite_outputs"] += nonfinite(result)

    def star_hook(result, f, g, *_, **__):
        tracer.counts["star.useful_coeffs"] += (f.L + g.L + 1) ** 2
        tracer.counts["star.computed_coeffs"] += (result.L + 1) ** 2

    def make_grid_hook(result, L_exact):
        tracer.built("sphere.make_grid.builds", L_exact, result)

    def main_hook(result, argv=None):
        tracer.counts["cli.commands"] += 1
        tracer.counts["cli.nonzero_exits"] += result != 0

    hooks = {
        "tensor_basis": tensor_basis_hook,
        "dequantize": dequantize_hook,
        "quantize": quantize_hook,
        "star_exact": star_hook,
        "berezin_exact": star_hook,
        "main": main_hook,
    }
    for fn, hook in hooks.items():
        orig, span = wrapped[fn]
        wrapped[fn] = (orig, counted(span, hook))
    wrapped["make_grid"] = (sphere.make_grid, counted(sphere.make_grid, make_grid_hook))

    by_id = {id(orig): (orig, wrapper) for orig, wrapper in wrapped.values()}
    for name, mod in list(sys.modules.items()):
        if name == "sphere_sapt" or name.startswith("sphere_sapt."):
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    grid = sphere.Grid
    grid.synthesize = tracer.span("Grid.synthesize", grid.synthesize)
    grid.analyze = tracer.span("Grid.analyze", grid.analyze)

    def samples_hook(result, kernel, g):
        mb = g.n_theta * g.n_phi * kernel.d**2 * 16 / 2**20
        tracer.maxima["swq.kernel_samples.mb"] = max(tracer.maxima["swq.kernel_samples.mb"], mb)

    swq.SWKernel.samples = counted(swq.SWKernel.samples, samples_hook)

def combine(summaries) -> dict:
    """Sum the summaries of several processes; maxima take the maximum."""
    out = {}
    for s in summaries:
        for k, v in s.items():
            out[k] = max(out.get(k, v), v) if k in MAXIMA else out.get(k, 0) + v
    return out
