#!/usr/bin/env python3
"""Accumulate bench headline numbers and gate on regressions.

Reads the ``BENCH_*.json`` documents a bench run wrote (``--bench-dir``),
extracts one headline number per bench, appends a
``hematch.bench_history.v1`` record to ``bench/history.jsonl``, and fails
(exit 1) when any headline regresses more than ``--tolerance`` (default
30%, scaled per metric — see ``HEADLINES``) against the committed
baselines in ``bench/baselines/``.

Headlines:
  freq.speedup        vectorized / legacy frequency engine  (higher better)
  search.speedup      Pattern-Tight / Baseline-Tight search (higher better)
  serve.p99_ms        p99 latency under overload            (lower better;
                      scripts/check.sh passes the median-p99
                      run of three)
  noise.clean_pair_f  pair-F on the clean (rate=0) workload (higher better)

The failing run is still appended to the history — a trajectory that
omits its bad days is not a trajectory.

Usage:
  bench_history.py --bench-dir DIR [--history FILE] [--baseline-dir DIR]
                   [--tolerance F] [--label S] [--dry-run]
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# metric name -> (file, extractor, direction, tolerance scale).
# The scale multiplies --tolerance per metric: tail latency under
# deliberate overload swings ~2x run-to-run on a shared machine, so its
# gate is loosened to catch order-of-magnitude regressions only.
HEADLINES = {
    "freq.speedup": ("BENCH_freq.json", lambda d: d["speedup"], "higher", 1.0),
    "search.speedup": (
        "BENCH_search.json", lambda d: d["speedup"], "higher", 1.0),
    "serve.p99_ms": ("BENCH_serve.json", lambda d: d["p99_ms"], "lower", 2.0),
    "noise.clean_pair_f": (
        "BENCH_noise.json",
        lambda d: min(p["pair_f"] for p in d["points"] if p["rate"] == 0),
        "higher",
        1.0,
    ),
}


def extract(bench_dir):
    """Headline metrics from the BENCH_*.json files present in bench_dir.

    Missing files are skipped (a partial bench run gates on what it
    ran); a file that exists but lacks its headline key is an error.
    """
    metrics = {}
    for name, (filename, extractor, _, _) in HEADLINES.items():
        path = os.path.join(bench_dir, filename)
        if not os.path.exists(path):
            continue
        with open(path) as f:
            doc = json.load(f)
        metrics[name] = extractor(doc)
    return metrics


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def check_regressions(metrics, baseline, tolerance):
    """Returns a list of failure strings; prints one line per metric."""
    failures = []
    for name, value in sorted(metrics.items()):
        direction, scale = HEADLINES[name][2], HEADLINES[name][3]
        allowed = tolerance * scale
        base = baseline.get(name)
        if base is None:
            print(f"  {name:<20} {value:>12.4f}  (no baseline)")
            continue
        if base == 0:
            delta = 0.0
        elif direction == "higher":
            delta = (value - base) / base
        else:  # lower better: sign flipped so positive = improvement
            delta = (base - value) / base
        regressed = delta < -allowed
        status = "REGRESSED" if regressed else "ok"
        print(f"  {name:<20} {value:>12.4f}  baseline {base:>12.4f}  "
              f"{delta:+7.1%}  {status}")
        if regressed:
            worse = "below" if direction == "higher" else "above"
            failures.append(
                f"{name}: {value:.4f} is more than {allowed:.0%} {worse} "
                f"baseline {base:.4f}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the run's BENCH_*.json")
    parser.add_argument("--baseline-dir",
                        default=os.path.join(REPO_ROOT, "bench", "baselines"))
    parser.add_argument("--history",
                        default=os.path.join(REPO_ROOT, "bench",
                                             "history.jsonl"))
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "HEMATCH_BENCH_TOLERANCE", "0.30")),
                        help="allowed fractional regression (default 0.30, "
                             "env HEMATCH_BENCH_TOLERANCE)")
    parser.add_argument("--label", default="",
                        help="free-form tag recorded with the entry")
    parser.add_argument("--dry-run", action="store_true",
                        help="gate but do not append to the history")
    args = parser.parse_args()

    metrics = extract(args.bench_dir)
    if not metrics:
        print(f"no BENCH_*.json headlines under {args.bench_dir}",
              file=sys.stderr)
        return 2
    baseline = extract(args.baseline_dir)

    record = {
        "schema": "hematch.bench_history.v1",
        "ts": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "git": git_revision(),
        "label": args.label,
        "metrics": metrics,
    }

    print(f"bench history gate (tolerance {args.tolerance:.0%}):")
    failures = check_regressions(metrics, baseline, args.tolerance)

    if not args.dry_run:
        os.makedirs(os.path.dirname(args.history), exist_ok=True)
        with open(args.history, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended to {os.path.relpath(args.history, REPO_ROOT)}")

    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
