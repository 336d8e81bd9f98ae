#!/usr/bin/env python3
"""Regenerate the data behind every figure preset.

Writes one directory per panel under --out:

    fig1/                auxiliary-vs-solved trajectories and ratio
    fig2/                terminal-error table across accuracy targets
    fig3a..fig6d/        mag/ and schro/: each a pde run's problem files,
                         solution and pde.json report
    complexity/          method comparison table for a reference preset
    blockenc/            verification report for the encoding suite

Everything is plot-ready CSV/JSON; no rendering happens here.
"""

import argparse
import sys
import time

from schromag.cli import main as cli
from schromag.presets import PDE_PRESET_NAMES

QUICK_SET = ("fig3a", "fig4a", "fig5a")


def run(args):
    rc = cli(args)
    if rc != 0:
        raise SystemExit(f"command {' '.join(args)} exited with {rc}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures_data")
    parser.add_argument("--quick", action="store_true",
                        help="only the small presets (smoke run)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    run(["compare", "--preset", "fig1", "--out", f"{args.out}/fig1"])
    run(["compare", "--preset", "fig2", "--out", f"{args.out}/fig2"])

    names = QUICK_SET if args.quick else PDE_PRESET_NAMES
    for name in names:
        for method in ("mag", "schro"):
            out = f"{args.out}/{name}/{method}"
            print(f"--- {name} / {method}")
            run(["pde", "--preset", name, "--method", method, "--out", out])

    run(["complexity", "--preset", "fig3a", "--out", f"{args.out}/complexity"])
    run(["blockenc-verify", "--out", f"{args.out}/blockenc"])
    print(f"done in {time.perf_counter() - t0:.0f}s -> {args.out}/")


if __name__ == "__main__":
    sys.exit(main())
