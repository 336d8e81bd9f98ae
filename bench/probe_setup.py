"""Set-up only: import the CLI and assemble the workload's problems, then exit.

    python3 bench/probe_setup.py --preset fig4a [--preset ...]
    python3 bench/probe_setup.py --matrix A.coo --rhs b.vec

The benchmark times this process from spawn to exit as `setup_s`.
"""

import argparse

import schromag.cli  # noqa: F401  (the import is part of set-up)
from schromag import io
from schromag.presets import pde_preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", action="append", default=[])
    parser.add_argument("--matrix")
    parser.add_argument("--rhs")
    args = parser.parse_args()
    for name in args.preset:
        pde_preset(name)
    if args.matrix:
        io.read_matrix_coo(args.matrix)
        io.read_vector(args.rhs)


if __name__ == "__main__":
    main()
