#!/usr/bin/env python3
"""Compares two BENCH_hotpath.json files series by series.

Usage: bench/compare_bench.py OLD.json NEW.json

For every series under "benchmarks" that both files hold, prints the ratio
of the median items_per_second (NEW / OLD) and flags the series when either
file's median falls outside the other file's min-max range of that series
(bench/run_benchmarks.sh records each range over its repetitions). Series
present in only one file are listed, not flagged. Exits 1 if and only if
some series is flagged, else 0. Uses only the Python standard library.
"""
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f).get("benchmarks", {})


def rate(series):
    """(median, min, max) of items_per_second, or None without a rate."""
    median = series.get("items_per_second")
    if median is None:
        return None
    return (median, series.get("items_per_second_min", median),
            series.get("items_per_second_max", median))


def outside(value, low_high):
    low, high = low_high
    return value < low or value > high


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    shared = sorted(set(old) & set(new))
    flagged = []
    width = max((len(name) for name in shared), default=6)
    print(f"{'series':<{width}}  {'old':>12}  {'new':>12}  new/old")
    for name in shared:
        a, b = rate(old[name]), rate(new[name])
        if a is None or b is None:
            print(f"{name:<{width}}  {'(no items_per_second)':>28}")
            continue
        flag = outside(b[0], a[1:]) or outside(a[0], b[1:])
        if flag:
            flagged.append(name)
        print(f"{name:<{width}}  {a[0]:>12.4g}  {b[0]:>12.4g}  "
              f"{b[0] / a[0]:7.3f}{'  FLAG' if flag else ''}")
    for label, names in (("only in " + argv[1], sorted(set(old) - set(new))),
                         ("only in " + argv[2], sorted(set(new) - set(old)))):
        if names:
            print(f"{label}:")
            for name in names:
                print(f"  {name}")
    print(f"{len(flagged)} of {len(shared)} shared series flagged "
          "(a median outside the other file's min-max)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
