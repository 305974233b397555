#!/usr/bin/env python3
"""Star-product convergence sweep.

Runs the truncation-slope and calibration subcommands into out/star/ over
two_j = 10, 20, ..., 5120 (d from 11 to 5121, 2.7 decades) and prints the
fitted slopes and order-1 coefficients.  About a second, start-up
included.
"""

import json
import os
import sys

from sphere_sapt.cli import main

OUT = os.environ.get("SPHERE_SAPT_OUT", "out/star")
TWO_J = ",".join(str(10 * 2**k) for k in range(10))  # 10, 20, ..., 5120


def run():
    rc = main(["star-slopes", "--two-j", TWO_J, "--pairs", "10",
               "--band-limit", "4", "--seed", "17", "--out", OUT])
    rc |= main(["calibrate", "--two-j", TWO_J, "--out", OUT])
    with open(os.path.join(OUT, "star-slopes.json")) as fh:
        slopes = {c["name"]: round(c["slope"], 4) for c in json.load(fh)["checks"] if "slope" in c}
    print(f"star-slopes: fitted slopes {slopes}")
    with open(os.path.join(OUT, "calibrate.json")) as fh:
        rep = json.load(fh)
    for product, r in rep["reports"].items():
        coeffs = {t["ansatz"]: round(t["coefficient"], 6) for t in r["terms"]}
        print(f"{product}: order-1 coefficients {coeffs}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
