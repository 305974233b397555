#!/usr/bin/env python3
"""Adiabatic-theory convergence: invariance, spectra, and propagation.

Produces the three headline slope measurements (projection commutator,
band-spectrum Hausdorff distance, Egorov error) into out/adiabatic/.  The
commutator and the spectra run on the M-sectors of the model and span three
decades of d (two_j 10 to 10^4); the Egorov error needs the full block Q[1],
O(d^3), and spans two_j 10 to 640.  About a second in all.
"""

import json
import os
import sys

from sphere_sapt.cli import main

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/adiabatic")


def run():
    decades = "10,30,100,300,1000,3000,10000"
    rc = main(["invariance-slopes", "--lambda", "0.2", "--band", "0.5",
               "--two-j", decades, "--out", OUT])
    rc |= main(["bands", "--lambda", "0.2", "--band", "0.5",
                "--two-j", decades, "--out", OUT])
    rc |= main(["egorov", "--lambda", "0.2", "--band", "0.5",
                "--observable", "n1", "--time", "1.0",
                "--two-j", "10,20,40,80,160,320,640", "--out", OUT])
    for name in ("invariance-slopes", "bands", "egorov"):
        with open(os.path.join(OUT, f"{name}.json")) as fh:
            rep = json.load(fh)
        fits = rep.get("fits") or {"error": rep.get("fit")}
        print(name, {k: round(v["slope"], 3) for k, v in fits.items() if v})
    return rc


if __name__ == "__main__":
    sys.exit(run())
