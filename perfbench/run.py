"""heafusion benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; the program is imported from the
checkout's src/ and nowhere else, and the run fails without a result when
that source is missing. The workload's inputs are generated from the seed
into .perfbench_work/ and removed afterwards. The timed unit of work is
repeated for about --seconds; timings are medians over the
repetitions.

With --trace 0 the last stdout line holds the end-to-end metrics, measured
untraced. With --trace 1 repetitions alternate untraced and traced, and the
last line holds per-layer metrics per traced repetition, plus the tracing
overhead (median traced minus median untraced repetition); the spans are
written to .perfbench_out/. The line before the last is a report with the
result digest, the repetition times, error types and problems found.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "auc": "ratio", "macro_f1": "ratio"}

# Layers reported by self time (span minus wrapped child spans); the cli
# commands and the per-element protocol are outermost and report total time.
SELF_TIMED = (
    "alloys.parse_dataset", "llm_evidence.parse_responses", "llm_evidence.build_store",
    "md_evidence.extract_counts", "md_evidence.counts_to_store", "md_evidence.content_hash",
    "md_evidence.mask_view", "md_evidence.write_store", "md_evidence.read_store",
    "fusion.estimate_reliability", "fusion.fuse", "inference.predict_batch",
    "evaluation.grid_search_alpha",
)
CALLS = (
    "md_evidence.extract_counts", "md_evidence.content_hash", "md_evidence.mask_view",
    "fusion.estimate_reliability", "inference.predict_batch",
)
TOTAL_TIMED = ("md_evidence.extract_all", "fusion.estimate_reliability")
COUNTS = (
    "alloys.parse_dataset.rows", "llm_evidence.responses", "md_evidence.pairs", "md_evidence.keys",
    "md_evidence.write_store.bytes", "md_evidence.read_store.bytes", "fusion.fuse.keys_in",
    "fusion.fuse.keys_out", "inference.host_pairs", "inference.analogies", "evaluation.grid.host_pairs",
)
CLI_COMMANDS = ("tune-alpha", "extract", "ingest", "fuse", "predict", "cluster")


def import_program() -> None:
    """Put the checkout's src/ first on the path and import the program
    from there; exit without a result when it is not there."""
    package = SRC / "heafusion"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import heafusion

    if Path(heafusion.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: heafusion imported from {heafusion.__file__}, not {package}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "bench", "half", "full"), default="bench",
                        help="input sizes; the named workloads are defined at 'bench'")
    parser.add_argument("--probe", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def time_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Median seconds from process start to inputs loaded, over fresh
    processes that import the program and load the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--scale", args.scale, "--probe", str(workdir)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def layer_metrics(rep_tracer, n_traced: int, load_tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer values per traced repetition; input loading before the
    repetitions counts once."""
    per: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    for tracer, share in ((rep_tracer, n_traced), (load_tracer, 1)):
        for name, row in tracer.totals().items():
            for stat, value in row.items():
                per[name][stat] += value / share
        for name, value in tracer.counts.items():
            counts[name] += value / share

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIMED:
        out[f"{layer}.s"] = (per[layer]["self_s"], "s")
    for layer in CALLS:
        out[f"{layer}.calls"] = (per[layer]["calls"], "count")
    for layer in TOTAL_TIMED:
        out[f"{layer}.total_s"] = (per[layer]["total_s"], "s")
    for name in COUNTS:
        out[name] = (counts[name], "bytes" if name.endswith(".bytes") else "count")
    out["md_evidence.pairs_per_s"] = (ratio(counts["md_evidence.pairs"], per["md_evidence.extract_counts"]["self_s"]), "1/s")
    out["inference.host_pairs_per_s"] = (
        ratio(counts["inference.host_pairs"], per["inference.predict_batch"]["self_s"]), "1/s")
    out["inference.vacuous_frac"] = (ratio(counts["inference.vacuous"], counts["inference.predictions"]), "ratio")
    out["evaluation.run_extrapolation_experiment.s"] = (
        ratio(per["evaluation.run_extrapolation_experiment"]["total_s"], counts["evaluation.elements"]), "s")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (per[f"cli.{command}"]["total_s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run(args: argparse.Namespace, workload, workdir: Path) -> tuple[dict, dict]:
    import heafusion
    import spans
    from workloads import Ops

    workload.generate(workdir, args.seed)
    setup_s = time_setup(args, workdir)

    load_tracer, rep_tracer = spans.Tracer(), spans.Tracer()
    if args.trace:
        load_tracer.install()
    try:
        workload.load()
    finally:
        load_tracer.uninstall()

    ops = Ops()
    times: dict[bool, list[float]] = {False: [], True: []}
    results = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        if traced:
            rep_tracer.install()
            ops.span = rep_tracer.span
        began = time.perf_counter()
        try:
            result = workload.rep(ops, len(results))
        finally:
            times[traced].append(time.perf_counter() - began)
            rep_tracer.uninstall()
            ops.span = None
        workload.finish(result)
        results.append(result)
        # stop where the next repetition would end more than half of it past --seconds
        typical = statistics.median(times[False] + times[True])
        if len(results) >= 1 + args.trace and time.perf_counter() - start + typical / 2 > args.seconds:
            break

    problems = []
    digests = sorted({r.digest for r in results})
    if len(digests) > 1:
        problems.append(f"result digest differs across repetitions: {digests}")
    if ops.failed:
        problems.append(f"{ops.failed} of {ops.attempted} operations failed: {dict(ops.errors)}")
    problems.extend(workload.check(results[0]))
    auc = macro_f1 = 0.0
    if not ops.failed:
        try:
            auc, macro_f1 = workload.quality(results[0])
        except (ValueError, heafusion.HeafusionError) as exc:
            problems.append(f"quality readout failed: {type(exc).__name__}: {exc}")

    overhead_s = statistics.median(times[True]) - statistics.median(times[False]) if args.trace else 0.0
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "sizes": workload.sizes(), "digest": digests[0], "repetitions": len(results),
        "untraced_s": times[False], "traced_s": times[True], "setup_s": setup_s,
        "errors": dict(ops.errors), "problems": problems,
    }
    if args.trace:
        metrics = layer_metrics(rep_tracer, len(times[True]), load_tracer, overhead_s)
        report["absent"] = sorted(set(load_tracer.absent) | set(rep_tracer.absent))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "report": report,
            "load_spans": load_tracer.spans,
            "repetition_spans": rep_tracer.spans,
        }) + "\n", encoding="utf-8")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": (statistics.median(times[False]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "auc": (auc, "ratio"),
            "macro_f1": (macro_f1, "ratio"),
        }
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.scale)
    if args.probe is not None:
        workload.workdir = args.probe
        workload.load()
        return 0

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        report, result = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
