#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh bench JSON against the committed one.

Both files carry an ``instances`` list of per-instance metric objects; the
gate compares one or more named metrics on the instances the two files
share (CI measures only the quick anchor, e.g. rmat_s13, while the
committed file also records the full-size instances).

Absolute times are not comparable across machines, but within-run RATIOS
(``speedup_tuned_vs_baseline``, ``speedup_batch_vs_rebuild``) transfer:
two interleaved measurements on the same box divide out the machine. Gate
those with a tight tolerance. Absolute rates (``updates_per_sec``) only
get a loose floor that catches order-of-magnitude collapses.

Each ``--metric`` is ``NAME`` or ``NAME:TOLERANCE`` (allowed relative
loss, default --tolerance). A dotted ``NAME`` reaches into a nested
object of the instance, e.g. ``incremental.moves``. With no --metric the
historical default ``speedup_tuned_vs_baseline`` is checked — the
BENCH_plm.json contract.
Exit 0 when every shared instance's fresh value is within tolerance of
the committed one, 1 otherwise.  Usage:

    micro_plm_kernels --quick            # writes ./BENCH_plm.json
    python3 tools/check_perf_regression.py \
        --committed BENCH_plm.json --fresh build/bench/BENCH_plm.json

    micro_stream --quick                 # writes ./BENCH_stream.json
    python3 tools/check_perf_regression.py \
        --committed BENCH_stream.json --fresh build/bench/BENCH_stream.json \
        --metric speedup_batch_vs_rebuild:0.5 --metric updates_per_sec:0.9 \
        --metric incremental.moves:0.9
"""

import argparse
import json
import sys


def load_instances(path):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {inst["name"]: inst for inst in data.get("instances", [])}


def lookup(inst, metric):
    """The numeric value of a (dotted) metric name, or None if absent."""
    value = inst
    for part in metric.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def numeric_paths(obj, prefix=""):
    for key, value in obj.items():
        if isinstance(value, (int, float)):
            yield prefix + key
        elif isinstance(value, dict):
            yield from numeric_paths(value, f"{prefix}{key}.")


def metric_keys(instances):
    """Every numeric field any instance carries, nested fields as dotted
    names (the gateable metrics)."""
    keys = set()
    for inst in instances.values():
        keys |= set(numeric_paths(inst))
    return sorted(keys)


def parse_metric_spec(spec, default_tolerance):
    if ":" in spec:
        name, tolerance = spec.rsplit(":", 1)
        return name, float(tolerance)
    return spec, default_tolerance


def check_metric(committed_path, fresh_path, metric, tolerance, verbose):
    committed_inst = load_instances(committed_path)
    fresh_inst = load_instances(fresh_path)
    committed = {n: v for n, i in committed_inst.items()
                 if (v := lookup(i, metric)) is not None}
    fresh = {n: v for n, i in fresh_inst.items()
             if (v := lookup(i, metric)) is not None}

    # A metric name no file carries is a misconfigured gate (typoed
    # --metric or a renamed bench field), not a pass: fail loudly and say
    # what IS gateable so the caller can fix the spec.
    for path, have, insts in ((committed_path, committed, committed_inst),
                              (fresh_path, fresh, fresh_inst)):
        if insts and not have:
            print(
                f"check_perf_regression: metric '{metric}' does not exist "
                f"in any instance of {path}; available metrics: "
                f"{', '.join(metric_keys(insts)) or '(none)'}",
                file=sys.stderr,
            )
            return True

    shared = sorted(set(committed) & set(fresh))
    if not shared:
        print(
            f"check_perf_regression: metric '{metric}' has no shared "
            f"instances between {committed_path} ({sorted(committed)}) "
            f"and {fresh_path} ({sorted(fresh)})",
            file=sys.stderr,
        )
        return True

    failed = False
    # An instance both files measure, where the committed record has the
    # metric but the fresh run stopped emitting it, must not silently
    # shrink the comparison set.
    for name in sorted(set(committed) & set(fresh_inst) - set(fresh)):
        print(
            f"{name}.{metric}: committed {committed[name]:.3g}, but the "
            "fresh run no longer emits this metric -> REGRESSED",
            file=sys.stderr,
        )
        failed = True
    for name in shared:
        floor = committed[name] * (1.0 - tolerance)
        regressed = fresh[name] < floor
        # Failures always print; passing rows only at -v, so a triage run
        # across BENCH_plm/stream/wal surfaces every regression at once
        # without burying them in green lines.
        if regressed or verbose:
            status = "REGRESSED" if regressed else "ok"
            print(
                f"{name}.{metric}: committed {committed[name]:.3g}, "
                f"fresh {fresh[name]:.3g}, floor {floor:.3g} -> {status}"
            )
        failed |= regressed
    return failed


def main():
    parser = argparse.ArgumentParser(
        description="Fail if a bench metric regressed relative to the "
        "committed BENCH_*.json."
    )
    parser.add_argument("--committed", required=True,
                        help="BENCH_*.json committed in the repository")
    parser.add_argument("--fresh", required=True,
                        help="BENCH_*.json from a fresh (quick) run")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="default allowed relative loss (default 0.15)")
    parser.add_argument("--metric", action="append", default=[],
                        metavar="NAME[:TOLERANCE]",
                        help="per-instance metric to gate on; repeatable. "
                        "Default: speedup_tuned_vs_baseline")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print measured/committed values for "
                        "passing metrics (default: failures only)")
    args = parser.parse_args()

    specs = args.metric or ["speedup_tuned_vs_baseline"]
    regressed = []
    for spec in specs:
        name, tolerance = parse_metric_spec(spec, args.tolerance)
        if check_metric(args.committed, args.fresh, name, tolerance,
                        args.verbose):
            regressed.append(name)
    if regressed:
        print(
            f"check_perf_regression: {len(regressed)} of {len(specs)} "
            f"metric(s) regressed: {', '.join(regressed)}"
        )
    else:
        print(
            f"check_perf_regression: all {len(specs)} metric(s) within "
            "tolerance"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
