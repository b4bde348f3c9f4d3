#!/usr/bin/env python3
"""Rebuild the dimension-by-dimension classification tables for the two
smallest open quasi-cross shapes, (3,1) and (3,2), with the packaged
certificate store as the registry of known tilings, and print the firing
statistics."""

import argparse
import sys

from quasicross.classify import classify_range, default_registry, report_text, summarize
from quasicross.cli import _positive_int


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=_positive_int, default=250)
    parser.add_argument("--table", action="store_true", help="print the full per-dimension table")
    args = parser.parse_args(argv)

    for k_plus, k_minus in ((3, 1), (3, 2)):
        registry = default_registry(k_plus, k_minus)
        try:
            if args.table:
                sys.stdout.write(report_text(classify_range(k_plus, k_minus, args.max_n, registry=registry)))
            summary = summarize(k_plus, k_minus, args.max_n, registry=registry)
        except ValueError as exc:  # a --max-n whose group orders pass 64 bits
            parser.error(f"--max-n: {exc}")
        sys.stdout.write(summary.to_text())
        sys.stdout.write("\n")


if __name__ == "__main__":
    main()
