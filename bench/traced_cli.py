"""Run one `schromag` CLI call in this process with the layer wrappers on.

    python3 bench/traced_cli.py --invocation ID --spans OUT.json -- <cli args>

Spans stay in memory while the command runs and are written to
OUT.json at the end; the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers
from schromag import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--invocation", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    with layers.traced(args.invocation) as recorder:
        code = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
