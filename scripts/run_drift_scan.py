#!/usr/bin/env python3
"""Drift-vs-eps scans for the gained runs: charge and energy for case 1a,
charge for case 2, written as CSV tables and SVG charts.

The full scan integrates to T = 5 on N = 512 at seven eps values per block
plus the eps = 0 floor run, all members of a block stepped together, and
takes about 10 s on one core; --quick shrinks it to a smoke-test size.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from ptnls.analysis import default_scan_config, drift_scan, emit_report
from ptnls.catalog import CaseId, Kind
from ptnls.solver import Grid

BLOCKS = [(CaseId.CASE1A, Kind.CHARGE), (CaseId.CASE1A, Kind.ENERGY),
          (CaseId.CASE2, Kind.CHARGE)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--quick", action="store_true",
                    help="short runs on a coarse grid (smoke test)")
    args = ap.parse_args(argv)

    eps_list = list(np.logspace(-3, -1, 4 if args.quick else 7))
    reports = []
    for case_id, kind in BLOCKS:
        cfg = default_scan_config(case_id)
        if args.quick:
            cfg = replace(cfg, T_final=0.5, dt=2e-3, grid=Grid(N=256))
        rep = drift_scan(case_id, kind, eps_list, cfg=cfg)
        reports.append(rep)
        slope = f"{rep.slope:.3f}" if rep.slope_valid else "not fitted"
        print(f"{case_id.value}/{kind.value}: slope {slope} over "
              f"{rep.fit_members} members, floor {rep.floor:.2e}")

    paths = emit_report(reports, "csv", args.out_dir)
    paths += emit_report(reports, "svg", args.out_dir)
    print("wrote: " + ", ".join(paths))
    return 0 if all(r.slope_valid for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
