"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid_tight --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats rounds of a few set-up-only builds and one pass
(build every scenario, run it, check it) while the next round is expected
to end within ``--seconds`` of the start (at least one round), and reports
the end-to-end metrics: host times as medians over the (identical) passes
and set-ups, scaled to the nominal host speed by a reference loop timed
through them (``hostspeed``), and the paper's ``sim_*`` metrics from the
first pass.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics; the two passes must give the
same digest.  Every line but the last is for people; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (WORKLOADS, PassResult, end_to_end,  # noqa: E402
                       layer_metrics, run_pass, setup_only)
from layertrace import Tracer  # noqa: E402
import hostspeed  # noqa: E402

DEFAULT_SEED = 1
#: Set-up-only repetitions before each pass of an untraced run.  Spread
#: over the run, they sample the host as the passes do; the first ones also
#: warm the caches the passes use.
SETUP_REPEATS = 8
SPANS_DIR = ROOT / ".perfbench"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="start another round of set-up-only builds and an "
                        "untraced pass only if it is expected to end within "
                        "this many seconds of the start (at least one "
                        "round); a traced run always makes one pass of "
                        "each kind")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    workload = WORKLOADS[args.workload]
    scenarios = workload.scenarios(args.seed)
    passes: List[PassResult] = []
    if args.trace:
        passes.append(run_pass(workload, scenarios))
        tracer = Tracer()
        tracer.calibrate()
        with tracer.installed():
            passes.append(run_pass(workload, scenarios, tracer))
        metrics = layer_metrics(tracer, passes[1], passes[0])
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{args.workload}.npz"
        tracer.write(spans_file)
        print(f"spans:    {tracer.span_count} in {spans_file.name} "
              f"(run id {tracer.run_id})")
        print(f"wrapper:  {tracer.inner_cost * 1e9:.0f} ns inside, "
              f"{tracer.outer_cost * 1e9:.0f} ns outside each span; "
              f"{tracer.overhead_removed_s:.3f} s taken out of self times")
    else:
        deadline = time.perf_counter() + args.seconds
        setups: List[float] = []
        references: List[float] = []
        last = 0.0
        while not passes or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            for _ in range(SETUP_REPEATS):
                references.append(hostspeed.sample())
                setups.append(setup_only(workload, scenarios))
            passes.append(run_pass(workload, scenarios, probe=True))
            last = time.perf_counter() - start
        metrics = end_to_end(passes, setups, references, _peak_rss_mib())

    problems: List[str] = []
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on the digest: {sorted(digests)}")
    attempted = sum(p.nodes_checked for p in passes)
    failed = sum(p.nodes_failed for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} node images missing or wrong")
    for p in passes:
        problems.extend(p.gate_failures)

    print(f"workload: {args.workload} seed {args.seed} "
          f"({len(scenarios)} scenario(s), {len(passes)} pass(es), "
          f"trace {args.trace})")
    print(f"digest:   {passes[0].digest}")
    print("passes:   wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    if not args.trace:
        print("scaled:   run_s  " + " ".join(f"{p.run_s:.3f}" for p in passes))
        samples = setups + [p.setup_s for p in passes]
        loops = [t for p in passes for t in p.references]
        print(f"host:     reference loop median "
              f"{statistics.median(loops) * 1e3:.3f} ms over {len(loops)} "
              f"in passes, {statistics.median(references) * 1e3:.3f} ms over "
              f"{len(references)} between set-ups (nominal "
              f"{hostspeed.REFERENCE_S * 1e3:.3f} ms); unscaled medians: "
              f"pass {statistics.median(p.wall_s for p in passes):.3f} s, "
              f"set-up {statistics.median(samples):.6f} s over {len(samples)}")
    report: Dict[str, Tuple[float, str]] = dict(metrics)
    report["nodes_failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in report.items():
        print(f"  {name:36s} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
