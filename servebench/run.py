"""PTRider serving benchmark: one command per workload, checked outputs.

Usage (from the repository root)::

    python3 servebench/run.py --workload rush-served --seed 1 --seconds 60 --trace 0

A run builds the workload's inputs from ``--seed``, then repeats episodes
for about ``--seconds`` seconds.  An episode builds a fresh service (timed as
set-up), replays the seed's request stream through it (the serving loop),
checks every output, and -- on the durable workload -- closes the service
and recovers it from its journal.  Every episode of a run replays the same
inputs, so the episodes must agree on their outcome digest.  Throughput
and latency percentiles pool the untraced episodes; set-up time is the
median of at least five set-ups.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run alternates untraced and
traced episodes and reports the per-layer metrics instead (see
``servebench/tracing.py``); the spans of the first traced episode are written
to ``servebench/out/``.  A failed check prints ``"correct": false`` and
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: end-to-end metric -> unit
END_TO_END = {
    "serve_rps": "1/s",
    "answer_p50_ms": "ms",
    "answer_p95_ms": "ms",
    "served_share": "share",
    "answered_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program() -> None:
    """Put the checkout's ``src`` on the path; fail when it is missing."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"servebench: no program source under {source}")
    sys.path.insert(0, str(source))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=None,
                        help="request count override (the fast test)")
    args = parser.parse_args(argv)

    _load_program()
    sys.dont_write_bytecode = True
    from checks import CheckFailed
    from episodes import end_to_end, percentile, run_episodes, serve_rate
    from tracing import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    if args.scale is not None:
        spec = spec.scaled(args.scale)

    try:
        run = run_episodes(spec, args.seed, args.seconds, bool(args.trace), OUT)
        plain, traced = run.plain, run.traced
        digests = {episode.digest for episode in plain} | {e.digest for e, _ in traced}
        if len(digests) != 1:
            raise CheckFailed(f"episodes of one seed disagree: digests {sorted(digests)}")
    except CheckFailed as failure:
        print(f"servebench: check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": spec.requests, "failed": 0, "metrics": {}}))
        return 1

    episodes = plain + [episode for episode, _ in traced]
    first = plain[0]
    print(
        f"servebench {spec.name} seed={args.seed}: {len(plain)} untraced + "
        f"{len(traced)} traced episodes of {first.requests} requests; "
        f"answered={first.answered} committed={first.committed} failed={first.failed} "
        f"lapsed branches={first.lapsed_branches} digest={first.digest}"
    )
    rates = " ".join(f"{e.answered / e.loop_seconds:.4g}" for e in plain)
    answers = [answer for e in plain for answer in e.served.answer_seconds]
    print(f"servebench serve_rps per untraced episode: {rates}; answer samples pooled: "
          f"{len(answers)}, p99 {percentile(answers, 99) * 1e3:.4f} ms")
    if spec.durable:
        recovers = [episode.recover_seconds for episode in episodes]
        print(f"servebench recover_s median={statistics.median(recovers):.6f} over {len(recovers)} recoveries")

    if args.trace:
        metrics = layer_metrics(
            plain, traced, serve_rate(plain), serve_rate([e for e, _ in traced]),
            OUT / f"trace-{spec.name}-seed{args.seed}.json",
        )
    else:
        values = end_to_end(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, metric in metrics.items():
            print(f"  {name:16s} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": True,
        "attempted": sum(episode.requests for episode in episodes),
        "failed": sum(episode.failed for episode in episodes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
