"""Deformation quantization on the two-sphere and adiabatic perturbation
theory for a coupled two-spin model."""

import os

# runs before any submodule imports numpy, which reads it once as it loads
# OpenBLAS: idle workers sleep after 2^12 cycles, not spin ~0.1 s (2^28)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "12")

__version__ = "0.1.0"
