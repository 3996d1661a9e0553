#!/usr/bin/env python3
"""Reproduce the information-gain vs disturbance trade-off study.

Writes the closed-form F/G curve, locates the optimum and the
equal-fidelity crossing, and (optionally) overlays the numeric curve for a
cat-state signal to show the non-Gaussian behavior.

Usage:
    python scripts/tradeoff_study.py --out runs/tradeoff [--with-cat]
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

import qndsim as q


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/tradeoff", metavar="DIR")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--x-min", type=float, default=0.1)
    parser.add_argument("--x-max", type=float, default=6.0)
    parser.add_argument("--with-cat", action="store_true",
                        help="also sweep a cat-state signal numerically (slower)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    xs = np.linspace(args.x_min, args.x_max, args.steps)
    rows = np.array([(x, *(lambda p: (p.F, p.G, p.f_plus_g))(q.trade_off(float(x))))
                     for x in xs])
    np.savetxt(out / "closed_curve.csv", rows, delimiter=",",
               header="x,F,G,F_plus_G", comments="")

    report = q.gaussian_trade_off_report(tol=1e-6)
    print(f"optimum:        x_m = {report.x_m:.6f}  "
          f"F = {report.F_at_xm:.4f}  G = {report.G_at_xm:.4f}")
    print(f"equal fidelity: x_e = {report.x_e:.6f}  F = G = {report.F_at_xe:.4f}")
    (out / "report.json").write_text(
        json.dumps({
            "x_m": report.x_m, "F_at_xm": report.F_at_xm, "G_at_xm": report.G_at_xm,
            "x_e": report.x_e, "F_at_xe": report.F_at_xe,
        }, indent=2) + "\n")

    if args.with_cat:
        phi = math.pi / 4
        cat_spec = q.CatSpec(2.0, 0.25)
        cat = q.build_cat(2.0, 0.25, q.auto_grid([cat_spec]))
        ratios = np.logspace(-1, 1, 15)
        pairs = q.numeric_trade_off_curve(cat, ratios, phi)
        cat_rows = np.array([(r, p.F, p.G, p.f_plus_g) for r, p in zip(ratios, pairs)])
        np.savetxt(out / "cat_curve.csv", cat_rows, delimiter=",",
                   header="x,F,G,F_plus_G", comments="")
        best_x, best = max(zip(ratios, pairs), key=lambda rp: rp[1].f_plus_g)
        print(f"cat signal:     best F+G = {best.f_plus_g:.4f} at x = {best_x:.3f}")

    print(f"wrote {out}/")


if __name__ == "__main__":
    main()
