"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from heafusion import md_evidence  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def traced_rep(workload: workloads.Workload, tmp_path: Path) -> spans.Tracer:
    workload.generate(tmp_path, seed=5)
    workload.load()
    tracer = spans.Tracer()
    ops = workloads.Ops(span=tracer.span)
    tracer.install()
    try:
        result = workload.rep(ops, 0)
    finally:
        tracer.uninstall()
    workload.finish(result)
    assert ops.failed == 0 and not workload.check(result)
    return tracer


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    tracer = spans.Tracer()
    layer_units = {name: unit for name, (_, unit) in run.layer_metrics(tracer, 1, tracer, 0.0).items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["problems"]
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == "1":
        assert report["absent"] == []


def test_traced_runs_cover_every_wrapped_layer(tmp_path):
    seen: set[str] = set()
    for name, cls in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        tracer = traced_rep(cls("tiny"), tmp_path / name)
        seen |= {span[0] for span in tracer.spans}
        assert all(end >= start for _, start, end, _ in tracer.spans)
    wrapped = {span_name for _, _, span_name, _ in spans.TARGETS}
    assert wrapped - seen == set()
    assert {f"cli.{c}" for c in run.CLI_COMMANDS} <= seen


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(md_evidence.SimilarityStore, "mask_view")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["heafusion.md_evidence.SimilarityStore.mask_view"]


def test_cli_outputs_do_not_depend_on_jobs(tmp_path):
    # bench sizes: the scan and prediction pools only start from 512
    # training alloys and 256 candidates
    digests = []
    for jobs in (1, 2):
        workload = workloads.CliPipeline("bench", jobs=jobs)
        (tmp_path / str(jobs)).mkdir()
        workload.generate(tmp_path / str(jobs), seed=2)
        ops = workloads.Ops()
        result = workload.rep(ops, 0)
        workload.finish(result)
        assert ops.failed == 0 and not workload.check(result)
        digests.append(result.extra["files"])
    assert digests[0] == digests[1]


def test_recount_matches_brute_force():
    (rows,) = synth.sample_alloys("E1", [60], seed=4)
    index = {e: i for i, e in enumerate(synth.UNIVERSES["E1"])}
    expected: Counter = Counter()
    for (a, la), (b, lb) in combinations(rows, 2):
        left, right = set(a) - set(b), set(b) - set(a)
        if set(a) & set(b) and left and right and max(len(left), len(right)) <= 2:
            lo, hi = sorted(sum(1 << index[e] for e in side) for side in (left, right))
            expected[lo, hi, la == lb] += 1
    got: Counter = Counter()
    recount = workloads.recount_informative_pairs(rows, 2, index)
    for lo, hi, agree, disagree in zip(*(array.tolist() for array in recount)):
        got[lo, hi, True] += agree
        got[lo, hi, False] += disagree
    assert +got == expected


def test_scan_check_catches_misplaced_counts(tmp_path):
    workload = workloads.ScanLarge("tiny")
    workload.generate(tmp_path, seed=3)
    workload.load()
    counts = md_evidence.extract_counts(workload.train)
    result = workloads.RepResult("", extra={"counts": dict(counts)})
    workload.finish(result)
    assert workload.check(result) == []
    # move one key's counts to another key: the totals stay the same
    first = next(iter(counts))
    other = next(key for key, value in counts.items() if value != counts[first])
    counts[first], counts[other] = counts[other], counts[first]
    result = workloads.RepResult("", extra={"counts": counts})
    workload.finish(result)
    assert workload.check(result)


def test_inputs_follow_the_seed():
    assert synth.sample_alloys("E2", [30, 10], 1) == synth.sample_alloys("E2", [30, 10], 1)
    assert synth.sample_alloys("E2", [30, 10], 1) != synth.sample_alloys("E2", [30, 10], 2)
    assert synth.expert_responses("E1", 1) == synth.expert_responses("E1", 1)
    train, test = synth.sample_alloys("E1", [100, 50], 1)
    assert not {e for e, _ in train} & {e for e, _ in test}
    assert len(synth.expert_responses("E1", 1)) == 325 * len(synth.DOMAIN_ERRORS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan-large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
