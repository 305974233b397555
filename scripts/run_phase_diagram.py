#!/usr/bin/env python3
"""Gap profile and Chern numbers across the coupling.

Sweeps lambda through the gap closing at 1/2 and records the band gap
together with the lattice Chern numbers and the exact band ranks on both
sides of the transition, one of them (0.45) close to it.
"""

import os
import sys

from sphere_sapt.cli import main

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/phase")


def run():
    rc = main(["gap", "--lambdas", "0.05,0.25,0.45,0.495,0.5,0.505,0.55,0.75,0.95",
               "--thetas", "181", "--out", OUT])
    for lam in ("0.2", "0.45", "0.8"):
        rc |= main(["chern", "--two-s", "1", "--lambda", lam, "--grid", "40",
                    "--out", os.path.join(OUT, f"lam{lam}")])
        rc |= main(["obstruction", "--lambda", lam, "--two-j", "8",
                    "--out", os.path.join(OUT, f"lam{lam}")])
    return rc


if __name__ == "__main__":
    sys.exit(run())
