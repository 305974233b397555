#!/usr/bin/env python3
"""Star-product convergence sweep.

Runs the truncation-slope and calibration subcommands into out/star/ and
prints the fitted slopes.  About a second at the default sizes, start-up
included.
"""

import json
import os
import sys

from sphere_sapt.cli import main

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/star")


def run():
    rc = main(["star-slopes", "--two-j", "10,20,40,80", "--pairs", "10",
               "--band-limit", "4", "--seed", "17", "--out", OUT])
    rc |= main(["calibrate", "--two-j", "10,20,40,80", "--out", OUT])
    with open(os.path.join(OUT, "calibrate.json")) as fh:
        rep = json.load(fh)
    for product, r in rep["reports"].items():
        coeffs = {t["ansatz"]: round(t["coefficient"], 6) for t in r["terms"]}
        print(f"{product}: order-1 coefficients {coeffs}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
