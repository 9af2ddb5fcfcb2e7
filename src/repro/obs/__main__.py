"""Observability CLI: summarise/diff run manifests, inspect traces, perf-smoke.

::

    python -m repro.obs report run.manifest.json
    python -m repro.obs report --diff before.json after.json
    python -m repro.obs trace run.trace.jsonl
    python -m repro.obs perf-smoke --out BENCH_sim_core.json \\
        --manifest perf.manifest.json --trace perf.trace.jsonl \\
        --chrome-trace perf.chrome.json --repeats 3 --warmup 1 \\
        --history results/perf/history.jsonl
    python -m repro.obs check-invariants run.trace.jsonl
    python -m repro.obs analyze run.trace.jsonl --out analysis.json --json
    python -m repro.obs critical-path run.trace.jsonl --min-attribution 0.95
    python -m repro.obs critical-path deluge.jsonl lr.jsonl --out causal.json
    python -m repro.obs why run.trace.jsonl --node 7
    python -m repro.obs bench-compare BENCH_current.json BENCH_sim_core.json
    python -m repro.obs bench-history results/perf/history.jsonl --prune 50
    python -m repro.obs watch results/telemetry/

The ``critical-path``/``why`` commands need the causal stream, which both
``--causal-trace`` and ``--flight-record`` runs carry (see
:mod:`repro.obs.causal`); ``analyze`` needs ``--flight-record`` for the hop
wavefront and the auth-drop/duplicate columns of its link matrix.

Exit codes: 0 success, 1 a gate failed (regression, violated invariant,
empty history), 2 unusable input (missing file, malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.manifest import RunManifest
from repro.obs.report import (
    bench_compare,
    diff_report,
    manifest_summary,
    run_perf_smoke,
    trace_summary,
)

__all__ = ["main"]

_DEFAULT_BASELINE = "BENCH_sim_core.json"


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_bench(path: str, role: str) -> Dict[str, Any]:
    """Read one bench/baseline JSON; raises SystemExit-friendly ValueErrors."""
    target = Path(path)
    if not target.exists():
        raise FileNotFoundError(f"{role} file not found: {path}")
    try:
        data = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {role} JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"malformed {role} JSON in {path}: expected an object")
    return data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarise, diff, and generate observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="summarise one manifest or diff two")
    report.add_argument("manifest", nargs="*",
                        help="manifest JSON file(s); one to summarise")
    report.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="diff two manifest files")
    report.add_argument("--top", type=int, default=25,
                        help="counters to show in the summary table")

    trace = sub.add_parser("trace", help="summarise a JSONL trace file")
    trace.add_argument("trace_file")

    smoke = sub.add_parser("perf-smoke",
                           help="run a small profiled dissemination (CI)")
    smoke.add_argument("--out", default="BENCH_sim_core.json",
                       help="benchmark JSON output path")
    smoke.add_argument("--manifest", default=None,
                       help="also write a run manifest here")
    smoke.add_argument("--trace", default=None,
                       help="also write the JSONL trace here")
    smoke.add_argument("--chrome-trace", default=None,
                       help="also write a Chrome/Perfetto trace here")
    smoke.add_argument("--seed", type=int, default=1)
    smoke.add_argument("--receivers", type=int, default=8)
    smoke.add_argument("--image-kib", type=int, default=4)
    smoke.add_argument("--repeats", type=int, default=1,
                       help="repeat the run and report median events/s")
    smoke.add_argument("--warmup", type=int, default=1,
                       help="discarded warmup repeats before measurement "
                            "(default 1; keeps lazy-init cost out of stats)")
    smoke.add_argument("--topology", default=None,
                       help="run the multi-hop grid workload instead of the "
                            "one-hop star (e.g. grid:15x15:3)")
    smoke.add_argument("--history", default=None,
                       help="append the bench record to this history JSONL "
                            "(see bench-history)")

    check = sub.add_parser("check-invariants",
                           help="replay a JSONL trace against the protocol "
                                "invariant library (exit 1 on violations)")
    check.add_argument("trace_file")

    analyze = sub.add_parser("analyze",
                             help="reduce a flight record into wavefront/"
                                  "stall/link-matrix reports")
    analyze.add_argument("trace_file")
    analyze.add_argument("--out", default=None,
                         help="also write the analysis JSON here")
    analyze.add_argument("--stall-factor", type=float, default=5.0,
                         help="flag page gaps above this multiple of the "
                              "median gap")
    analyze.add_argument("--json", action="store_true",
                         help="print the analysis as JSON on stdout instead "
                              "of the rendered tables")

    cpath = sub.add_parser(
        "critical-path",
        help="attribute completion latency to wait categories from a "
             "causal or flight trace (exit 1 below --min-attribution)")
    cpath.add_argument("trace_file", nargs="+",
                       help="causal-traced or flight-recorded JSONL file(s); "
                            "several renders a protocol comparison table")
    cpath.add_argument("--out", default=None,
                       help="also write the attribution JSON here (a list "
                            "when several traces are given)")
    cpath.add_argument("--json", action="store_true",
                       help="print the attribution as JSON on stdout")
    cpath.add_argument("--min-attribution", type=float, default=None,
                       help="fail (exit 1) when any completed node's "
                            "attributed fraction is below this")

    why = sub.add_parser(
        "why",
        help="per-node 'why was completion at t?' critical-path report "
             "from a causal or flight trace")
    why.add_argument("trace_file")
    why.add_argument("--node", type=int, required=True,
                     help="the receiver to explain")
    why.add_argument("--top", type=int, default=12,
                     help="longest critical-path waits to list")

    compare = sub.add_parser("bench-compare",
                             help="gate a perf-smoke JSON against a baseline "
                                  "(exit 1 on >tolerance regression)")
    compare.add_argument("current", help="freshly generated BENCH json")
    compare.add_argument("baseline", help="committed baseline BENCH json")
    compare.add_argument("--tolerance", type=float, default=0.25,
                         help="allowed fractional slowdown (default 0.25)")

    history = sub.add_parser(
        "bench-history",
        help="events/s trajectory per config from the append-only history "
             "store (exit 1 when empty)")
    history.add_argument("history", nargs="?",
                         default="results/perf/history.jsonl",
                         help="history JSONL (default results/perf/"
                              "history.jsonl)")
    history.add_argument("--baseline", default=None,
                         help="committed baseline BENCH json for regression "
                              f"flags (default {_DEFAULT_BASELINE} when "
                              "present)")
    history.add_argument("--config-filter", default=None,
                         help="only show configs whose key contains this "
                              "substring")
    history.add_argument("--prune", type=int, default=None, metavar="N",
                         help="first compact the store to the last N runs "
                              "per config (atomic rewrite)")

    watch = sub.add_parser("watch",
                           help="live view of a running campaign "
                                "(reads <dir>/status.json)")
    watch.add_argument("telemetry_dir",
                       help="the campaign's --telemetry-dir")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="poll period in seconds")
    watch.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit")
    watch.add_argument("--max-polls", type=int, default=None,
                       help="stop after this many polls even if unfinished")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            if args.diff:
                a = RunManifest.load(args.diff[0])
                b = RunManifest.load(args.diff[1])
                print(diff_report(a, b, a_name=args.diff[0],
                                  b_name=args.diff[1]))
                return 0
            if len(args.manifest) != 1:
                raise SystemExit("report takes one manifest file, or --diff A B")
            print(manifest_summary(RunManifest.load(args.manifest[0]),
                                   top=args.top))
        except FileNotFoundError as exc:
            return _error(f"manifest file not found: {exc.filename or exc}")
        except (ValueError, KeyError) as exc:
            return _error(f"malformed manifest: {exc}")
        return 0
    if args.command == "trace":
        try:
            print(trace_summary(args.trace_file))
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        return 0
    if args.command == "check-invariants":
        from repro.obs.invariants import check_jsonl

        try:
            report = check_jsonl(args.trace_file)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        print(report.summary())
        return 0 if report.ok else 1
    if args.command == "analyze":
        from repro.obs.analyze import analyze_jsonl, render_analysis

        try:
            analysis = analyze_jsonl(args.trace_file, out=args.out,
                                     stall_factor=args.stall_factor)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        if args.json:
            print(json.dumps(analysis, indent=2, sort_keys=True))
        else:
            print(render_analysis(analysis))
        if args.out:
            print(f"wrote {args.out}")
        return 0
    if args.command == "critical-path":
        from repro.obs.causal import (
            analyze_causal_jsonl,
            comparison_report,
            render_attribution,
        )

        analyses = []
        try:
            for trace_file in args.trace_file:
                analyses.append(analyze_causal_jsonl(trace_file))
        except FileNotFoundError as exc:
            return _error(f"trace file not found: {exc.filename or exc}")
        except ValueError as exc:
            return _error(str(exc))
        if args.out:
            from repro.persist import atomic_write_json

            atomic_write_json(
                args.out, analyses[0] if len(analyses) == 1 else analyses,
                sort_keys=True,
            )
        if args.json:
            print(json.dumps(
                analyses[0] if len(analyses) == 1 else analyses,
                indent=2, sort_keys=True,
            ))
        else:
            for analysis in analyses:
                print(render_attribution(analysis))
                print()
            if len(analyses) > 1:
                print(comparison_report(analyses))
        if args.out:
            print(f"wrote {args.out}")
        failed = False
        for analysis in analyses:
            if not analysis["completed"]:
                print(f"gate: no completed receivers in "
                      f"{analysis['trace_file']}", file=sys.stderr)
                failed = True
            elif (args.min_attribution is not None
                  and analysis["min_attribution"] < args.min_attribution):
                print(f"gate: min attribution "
                      f"{analysis['min_attribution']:.1%} < "
                      f"{args.min_attribution:.1%} in "
                      f"{analysis['trace_file']}", file=sys.stderr)
                failed = True
        return 1 if failed else 0
    if args.command == "why":
        from repro.obs.causal import build_dag, critical_path, render_why
        from repro.obs.events import load_jsonl

        try:
            _header, events = load_jsonl(args.trace_file)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        dag = build_dag(events)
        if not dag.tx:
            return _error(f"{args.trace_file} holds no causal events — "
                          "re-run the simulation with --causal-trace "
                          "or --flight-record")
        known = set(dag.meta) | set(dag.complete)
        if args.node not in known:
            return _error(f"node {args.node} does not appear in the trace")
        path = critical_path(dag, args.node)
        if path is None:
            print(f"node {args.node} never completed in this trace")
            return 1
        print(render_why(dag, path, top=args.top))
        return 0
    if args.command == "bench-compare":
        try:
            current = _load_bench(args.current, "current bench")
            baseline = _load_bench(args.baseline, "baseline bench")
        except FileNotFoundError as exc:
            return _error(str(exc))
        except ValueError as exc:
            return _error(str(exc))
        ok, text = bench_compare(current, baseline, tolerance=args.tolerance)
        print(text)
        return 0 if ok else 1
    if args.command == "bench-history":
        from repro.obs.perf import (
            bench_history_report,
            load_history,
            prune_history,
        )

        if args.prune is not None:
            try:
                before, after = prune_history(args.history, args.prune)
            except ValueError as exc:
                return _error(str(exc))
            print(f"pruned {args.history}: {before} -> {after} record(s) "
                  f"(last {args.prune} per config)")
        history = load_history(args.history)
        if not history:
            print(f"no recorded runs in {args.history}")
            return 1
        baseline: Optional[Dict[str, Any]] = None
        baseline_path = args.baseline
        if baseline_path is None and Path(_DEFAULT_BASELINE).exists():
            baseline_path = _DEFAULT_BASELINE
        if baseline_path is not None:
            try:
                baseline = _load_bench(baseline_path, "baseline bench")
            except FileNotFoundError as exc:
                return _error(str(exc))
            except ValueError as exc:
                return _error(str(exc))
        print(bench_history_report(history, baseline=baseline,
                                   config_filter=args.config_filter))
        return 0
    if args.command == "watch":
        from repro.obs.telemetry import watch

        return watch(args.telemetry_dir, interval_s=args.interval,
                     once=args.once, max_polls=args.max_polls)
    if args.command == "perf-smoke":
        bench, profile_text = run_perf_smoke(
            args.out, manifest_out=args.manifest, trace_out=args.trace,
            chrome_out=args.chrome_trace, seed=args.seed,
            receivers=args.receivers, image_kib=args.image_kib,
            repeats=args.repeats, warmup=args.warmup,
            topology=args.topology, history_out=args.history,
        )
        print(profile_text)
        print(f"wrote {args.out}: {bench['events']} events, "
              f"{bench['events_per_s']:,.0f} events/s, "
              f"completed={bench['completed']}")
        if args.manifest:
            print(f"wrote manifest {args.manifest}")
        if args.trace:
            print(f"wrote trace {args.trace} ({bench['trace_events']} events)")
        if args.chrome_trace:
            print(f"wrote chrome trace {args.chrome_trace}")
        if args.history:
            if bench.get("history_degraded"):
                print("warning: history append degraded "
                      f"({bench['history_degraded']}); bench artifact still "
                      "written, exit code unchanged")
            else:
                print(f"appended history record to {args.history}")
        return 0
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... analyze trace | head`
        import os

        # Not durability I/O: re-point the dying stdout at /dev/null so the
        # interpreter's shutdown flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # replint: disable=REP019 -- stdout redirect, not a persisted artifact
        sys.exit(0)
