"""Fold pytest-benchmark runs of two checkouts into one BENCH_<n>.json record.

    python bench/compare.py BENCH_14.json --parent p1.json p2.json --change c1.json c2.json

Each run file comes from ``python -m pytest bench --benchmark-json=<file>``
run in its own checkout.  Per benchmark the record keeps each run's median
and interquartile range in seconds, and the ratio of the change's median of
medians to the parent's.  Running the checkouts in turn, several times
each, spreads the machine's speed drifts over both sides.
"""

import argparse
import json
import statistics

import numpy as np


def _runs(paths):
    runs = [json.load(open(path)) for path in paths]
    stats = {}
    for run in runs:
        for bench in run["benchmarks"]:
            stats.setdefault(bench["name"], []).append(
                {"median": bench["stats"]["median"], "iqr": bench["stats"]["iqr"],
                 "rounds": bench["stats"]["rounds"]})
    return runs[0]["machine_info"], stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    machine, parent = _runs(args.parent)
    _, change = _runs(args.change)
    benchmarks = {}
    for name in parent.keys() & change.keys():
        before = statistics.median(run["median"] for run in parent[name])
        after = statistics.median(run["median"] for run in change[name])
        benchmarks[name] = {"parent": parent[name], "change": change[name],
                            "ratio": after / before}
    record = {
        "machine": {"cpu": machine["cpu"].get("brand_raw"), "cores": machine["cpu"].get("count"),
                    "python": machine["python_version"], "numpy": np.__version__},
        "unit": "s",
        "benchmarks": dict(sorted(benchmarks.items())),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
