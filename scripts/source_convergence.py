#!/usr/bin/env python3
"""Adaptive solve of the vector boundary-value problem with a manufactured
solution; checks the P1 energy-error rate dof^(-1/2)."""

import argparse
import math
import os

import numpy as np

from afemeig import AfemConfig, export_trace, fit_slope, run_afem_source


def exact(p):
    """u = sin(pi x) sin(pi y): the (3, m) rows of u, du/dx and du/dy."""
    sx, cx = np.sin(math.pi * p[:, 0]), np.cos(math.pi * p[:, 0])
    sy, cy = np.sin(math.pi * p[:, 1]), np.cos(math.pi * p[:, 1])
    return np.stack([sx * sy, math.pi * cx * sy, math.pi * sx * cy])


def source(p):
    return 2.0 * math.pi ** 2 * exact(p)[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-dof", type=float, default=2e4)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    cfg = AfemConfig(problem="square", degree=1, theta=0.5,
                     max_dof=int(args.max_dof))
    tr = run_afem_source(cfg, [source], exact=[exact])
    export_trace(tr, os.path.join(args.out, "source_manufactured.csv"))
    err = np.sqrt(tr.series("gap2"))
    slope = fit_slope(tr.series("n_dofs"), err, window=6)
    print(f"{len(tr)} iterations to {tr.n_dofs[-1]} dofs; "
          f"energy-error slope {slope:+.3f} (expected -1/2)")


if __name__ == "__main__":
    main()
