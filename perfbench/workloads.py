"""The benchmark's three workloads.

Each workload writes its seeded inputs (`generate`), loads them through the
program's public parsers (`load`, the part timed as set-up), and runs one
repetition of its timed unit of work (`rep`). Every call into the program
goes through a module attribute looked up at call time, so the tracer's
wrappers see it. Each repetition returns a digest of its results, which
must repeat exactly. After the timed repetitions, `check` verifies the
outputs against independent computations and `quality` scores held-out
alloys against their planted labels.

Why these three, and which layers each stresses or bypasses, is recorded in
WORKLOADS.md next to this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import heafusion
from heafusion import alloys, cli, evaluation, inference, llm_evidence, md_evidence

import synth

UNIVERSE = "E1"
ALPHA = 0.1
ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(1, 11))
TUNE_FOLDS = 5
GAMMA_FOLDS = 10
MAX_JOBS = 4

# scale -> (training alloys, held-out alloys) per workload. "bench" is what
# the named workloads run; "tiny" serves the self-tests; "half" and "full"
# are opt-in runs at 7,475 and about 14,950 alloys of the E1 enumeration.
_FULL = synth.enumeration_size(UNIVERSE)
SIZES: dict[str, dict[str, tuple[int, int]]] = {
    "extrapolate-fused": {"tiny": (200, 0), "bench": (300, 0), "half": (_FULL // 2, 0), "full": (_FULL, 0)},
    "cli-pipeline": {"tiny": (80, 40), "bench": (520, 520), "half": (_FULL // 2, 1000), "full": (_FULL - 1000, 1000)},
    "scan-large": {"tiny": (120, 40), "bench": (2000, 1000), "half": (_FULL // 2, 500), "full": (_FULL - 500, 500)},
}


@dataclass
class Ops:
    """Operations attempted and failed; a library error or a non-zero CLI
    exit is a failure, counted by error type."""

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    span: Callable[[str], Any] | None = None  # set by the tracer during traced repetitions

    def call(self, fn: Callable, *args, **kwargs) -> Any:
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except heafusion.HeafusionError as exc:
            self.failed += 1
            self.errors[type(exc).__name__] += 1
            return None

    def cli(self, argv: list[str]) -> bool:
        self.attempted += 1
        stderr = io.StringIO()
        span = self.span(f"cli.{argv[0]}") if self.span else contextlib.nullcontext()
        with span, contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code == 0:
            return True
        self.failed += 1
        try:
            kind = json.loads(stderr.getvalue().strip().splitlines()[-1])["error"]
        except (ValueError, KeyError, IndexError, TypeError):
            kind = f"exit{code}"
        self.errors[kind] += 1
        return False


@dataclass
class RepResult:
    digest: str
    extra: dict = field(default_factory=dict)


def _sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def auc_mann_whitney(labels: list[bool], scores: list[float]) -> float:
    """Probability a positive outscores a negative, ties counted half."""
    y = np.asarray(labels, dtype=bool)
    s = np.asarray(scores, dtype=float)
    pos, neg = s[y], s[~y]
    if not len(pos) or not len(neg):
        raise ValueError("AUC needs both classes")
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def macro_f1_at_half(labels: list[bool], scores: list[float]) -> float:
    """Mean per-class F1 with positive iff score > 0.5; a class absent from
    labels and predictions scores 1."""
    y = np.asarray(labels, dtype=bool)
    p = np.asarray(scores, dtype=float) > 0.5
    f1s = []
    for cls in (True, False):
        tp = np.sum((y == cls) & (p == cls))
        fp = np.sum((y != cls) & (p == cls))
        fn = np.sum((y == cls) & (p != cls))
        denom = 2 * tp + fp + fn
        f1s.append(1.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(f1s))


class Workload:
    name: str

    def __init__(self, scale: str = "bench", jobs: int | None = None) -> None:
        self.n_train, self.n_test = SIZES[self.name][scale]
        # pool-using CLI commands run with one worker per available core, at most MAX_JOBS
        self.jobs = jobs if jobs is not None else min(len(os.sched_getaffinity(0)), MAX_JOBS)

    def generate(self, workdir: Path, seed: int) -> None:
        """Write the seeded inputs; keep the rows for the output checks."""
        self.seed = seed
        self.workdir = workdir
        train, test = synth.sample_alloys(UNIVERSE, [self.n_train, self.n_test], seed, noisy=(True, False))
        self.train_rows, self.test_rows = train, test
        synth.write_dataset(train, workdir / "train.csv")
        synth.write_dataset(test, workdir / "test.csv")
        synth.write_responses(synth.expert_responses(UNIVERSE, seed), workdir / "responses.csv")

    def sizes(self) -> dict:
        return {"universe": UNIVERSE, "train": self.n_train, "test": self.n_test}

    def load(self) -> None:
        """Inputs through the public parsers: the part of set-up after import."""
        self.train = alloys.parse_dataset(self.workdir / "train.csv", universe=UNIVERSE)

    def rep(self, ops: Ops, index: int) -> RepResult:
        raise NotImplementedError

    def finish(self, result: RepResult) -> None:
        """Work on a repetition's result that stays outside the timed region."""

    def quality(self, result: RepResult) -> tuple[float, float]:
        """AUC and macro-F1 of the held-out alloys the run scored."""
        raise NotImplementedError

    def check(self, result: RepResult) -> list[str]:
        """Problems found in the outputs of one repetition."""
        return []


class ExtrapolateFused(Workload):
    name = "extrapolate-fused"

    def generate(self, workdir: Path, seed: int) -> None:
        """One dataset per held-out element: the noisy training labels, with
        the alloys holding that element relabelled by the planted groups."""
        super().generate(workdir, seed)
        for element in synth.held_out_elements(UNIVERSE):
            synth.write_dataset(synth.planted_for(self.train_rows, element, UNIVERSE),
                                workdir / f"train-{element}.csv")

    def load(self) -> None:
        self.datasets = {
            element: alloys.parse_dataset(self.workdir / f"train-{element}.csv", universe=UNIVERSE)
            for element in synth.held_out_elements(UNIVERSE)
        }
        responses = llm_evidence.parse_responses(self.workdir / "responses.csv")
        stores = llm_evidence.build_store(responses, llm_evidence.default_beta(len(synth.DOMAIN_ERRORS)))
        self.sources = evaluation.SourcesConfig(
            use_md=True, md_alpha=ALPHA, gamma_folds=GAMMA_FOLDS,
            llm_stores={f"llm:{domain}": store for domain, store in sorted(stores.items())},
        )

    def sizes(self) -> dict:
        return {**super().sizes(), "held_out": list(synth.held_out_elements(UNIVERSE)),
                "sources": 1 + len(synth.DOMAIN_ERRORS), "gamma_folds": GAMMA_FOLDS}

    def rep(self, ops: Ops, index: int) -> RepResult:
        reports = []
        for element in synth.held_out_elements(UNIVERSE):
            out = ops.call(evaluation.run_extrapolation_experiment,
                           self.datasets[element], self.sources, [element], seed=self.seed, jobs=1)
            reports.extend(out or [])
        digest = _sha([
            [r.key, r.n_test, r.auc, r.macro_f1, r.accuracy, r.gammas, r.config["store_hashes"]]
            for r in reports
        ])
        return RepResult(digest, extra={"reports": reports})

    def quality(self, result: RepResult) -> tuple[float, float]:
        reports = result.extra["reports"]
        return float(np.mean([r.auc for r in reports])), float(np.mean([r.macro_f1 for r in reports]))

    def check(self, result: RepResult) -> list[str]:
        problems = []
        for report in result.extra["reports"]:
            element = report.key.split("=", 1)[1]
            expected = sum(1 for elements, _ in self.train_rows if element in elements)
            if report.n_test != expected:
                problems.append(f"{report.key}: {report.n_test} test alloys, expected {expected}")
            if not 0.0 <= report.auc <= 1.0 or not all(0.0 <= g <= 1.0 for g in report.gammas.values()):
                problems.append(f"{report.key}: AUC or gamma outside [0, 1]")
        return problems


class CliPipeline(Workload):
    name = "cli-pipeline"

    OUTPUTS = ("alpha.json", "md_store.csv", "fused_store.csv", "fused_store.gammas.json",
               "predictions.csv", "dendrogram.json", "dendrogram.newick")

    def load(self) -> None:
        """The CLI parses its inputs inside each command: set-up is start-up
        and import only."""

    def sizes(self) -> dict:
        return {**super().sizes(), "jobs": self.jobs, "grid": list(ALPHA_GRID), "folds": TUNE_FOLDS}

    def rep(self, ops: Ops, index: int) -> RepResult:
        w = self.workdir
        out = w / f"rep{index}"
        common = ["--universe", UNIVERSE, "--out-dir", str(out)]
        stores = [f"md={out / 'md_store.csv'}"] + [
            f"llm:{d}={out / f'llm_{d}.csv'}" for d in sorted(synth.DOMAIN_ERRORS)
        ]
        # the grid search's alpha is checked and digested, not fed forward, so
        # the stores do not depend on which grid point wins
        commands = [
            ["tune-alpha", "--dataset", str(w / "train.csv"), "--grid", ",".join(map(str, ALPHA_GRID)),
             "--folds", str(TUNE_FOLDS), "--repeats", "1", "--seed", str(self.seed), "--jobs", "1", *common],
            ["extract", "--dataset", str(w / "train.csv"), "--alpha", str(ALPHA),
             "--jobs", str(self.jobs), *common],
            ["ingest", "--responses", str(w / "responses.csv"), "--jobs", "1", "--out-dir", str(out)],
            ["fuse", *[arg for s in stores for arg in ("--store", s)], "--dataset", str(w / "train.csv"),
             "--seed", str(self.seed), "--jobs", "1", *common],
            ["predict", "--store", str(out / "fused_store.csv"), "--training", str(w / "train.csv"),
             "--candidates", str(w / "test.csv"), "--jobs", str(self.jobs), *common],
            ["cluster", "--store", str(out / "fused_store.csv"), "--jobs", "1", *common],
        ]
        for argv in commands:
            ops.cli(argv)
        return RepResult("", extra={"out": out})

    def finish(self, result: RepResult) -> None:
        """Digest, scores and the output directory's removal, outside the
        timed region."""
        out = result.extra["out"]
        files = {}
        for name in self.OUTPUTS + tuple(f"llm_{d}.csv" for d in sorted(synth.DOMAIN_ERRORS)):
            path = out / name
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
        result.digest = _sha(files)
        result.extra["files"] = files
        predictions = out / "predictions.csv"
        if predictions.is_file():
            with predictions.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            result.extra["predicted"] = [row["composition"] for row in rows]
            result.extra["scores"] = [float(row["score"]) for row in rows]
        if (out / "alpha.json").is_file():
            result.extra["alpha"] = json.loads((out / "alpha.json").read_text(encoding="utf-8"))["alpha"]
        shutil.rmtree(out, ignore_errors=True)

    def quality(self, result: RepResult) -> tuple[float, float]:
        labels, scores = [label for _, label in self.test_rows], result.extra["scores"]
        return auc_mann_whitney(labels, scores), macro_f1_at_half(labels, scores)

    def check(self, result: RepResult) -> list[str]:
        missing = [name for name, digest in result.extra["files"].items() if digest is None]
        if missing:
            return [f"missing outputs {missing}"]
        expected = ["-".join(sorted(elements)) for elements, _ in self.test_rows]
        if result.extra["predicted"] != expected:
            return ["predictions.csv does not list the candidates in order"]
        if not all(0.0 <= s <= 1.0 for s in result.extra["scores"]):
            return ["score outside [0, 1]"]
        if result.extra["alpha"] not in ALPHA_GRID:
            return [f"chosen alpha {result.extra['alpha']!r} is not on the grid"]
        return []


class ScanLarge(Workload):
    name = "scan-large"

    def rep(self, ops: Ops, index: int) -> RepResult:
        counts = ops.call(md_evidence.extract_counts, self.train)
        return RepResult("", extra={"counts": counts})

    def finish(self, result: RepResult) -> None:
        """The digest is a hash of every key's counts, in a canonical form
        that the numpy recount reproduces."""
        counts = result.extra.pop("counts")
        if counts is None:
            return
        keys = np.array(list(counts), dtype=np.uint64).reshape(-1, 2)
        values = np.array(list(counts.values()), dtype=np.int64).reshape(-1, 2)
        del counts
        result.digest = counts_digest(np.min(keys, axis=1), np.max(keys, axis=1), values[:, 0], values[:, 1])
        result.extra.update(keys=len(keys), agree=int(values[:, 0].sum()), disagree=int(values[:, 1].sum()))

    def quality(self, result: RepResult) -> tuple[float, float]:
        """The timed scan scores no alloy: score the held-out alloys by
        single-element substitutions from the same training set."""
        store = md_evidence.extract_all(self.train, md_evidence.ExtractionConfig(ALPHA, max_subst_size=1))
        candidates = [heafusion.Alloy(elements) for elements, _ in self.test_rows]
        predictions = inference.predict_batch(candidates, self.train, store, max_subst_size=1)
        labels, scores = [label for _, label in self.test_rows], [p.score for p in predictions]
        return auc_mann_whitney(labels, scores), macro_f1_at_half(labels, scores)

    def check(self, result: RepResult) -> list[str]:
        if "agree" not in result.extra:
            return ["scan returned no counts"]
        lo, hi, agree, disagree = recount_informative_pairs(self.train_rows, synth.ALLOY_SIZE - 1,
                                                            self.train.element_index())
        if result.digest == counts_digest(lo, hi, agree, disagree):
            return []
        return [f"scan counts differ from the numpy recount: scan has {result.extra['keys']} keys, "
                f"{result.extra['agree']} agreeing and {result.extra['disagree']} disagreeing pairs; "
                f"recount {len(lo)}, {int(agree.sum())}, {int(disagree.sum())}"]


def counts_digest(lo: np.ndarray, hi: np.ndarray, agree: np.ndarray, disagree: np.ndarray) -> str:
    """Hash of (agree, disagree) per unordered mask pair, independent of the
    order the pairs come in."""
    keys = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)
    order = np.argsort(keys, kind="stable")
    sha = hashlib.sha256()
    for array, dtype in ((keys, np.uint64), (agree, np.int64), (disagree, np.int64)):
        sha.update(np.ascontiguousarray(array[order], dtype=dtype).tobytes())
    return sha.hexdigest()


def recount_informative_pairs(
    rows: list[tuple[tuple[str, ...], bool]], max_size: int, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs that share an element, are not nested and differ by at most
    max_size elements on each side, counted per unordered pair of
    difference masks (lo < hi, bits by `index`, the scan's element -> bit
    map) by agreeing and disagreeing labels; an independent numpy recount
    of the scan."""
    masks = np.array([sum(1 << index[e] for e in elements) for elements, _ in rows], dtype=np.uint64)
    labels = np.array([label for _, label in rows], dtype=bool)
    lefts, rights, sames = [], [], []
    for i in range(len(masks) - 1):
        mi, mj = masks[i], masks[i + 1:]
        left, right = mi & ~mj, mj & ~mi
        ok = ((mi & mj) != 0) & (left != 0) & (right != 0)
        ok &= (np.bitwise_count(left) <= max_size) & (np.bitwise_count(right) <= max_size)
        lefts.append(left[ok])
        rights.append(right[ok])
        sames.append(labels[i + 1:][ok] == labels[i])
    left, right, same = (np.concatenate(a) if a else np.zeros(0, dtype=t)
                         for a, t in ((lefts, np.uint64), (rights, np.uint64), (sames, bool)))
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    keys, inverse = np.unique((lo << np.uint64(32)) | hi, return_inverse=True)
    agree = np.bincount(inverse, weights=same, minlength=len(keys)).astype(np.int64)
    disagree = np.bincount(inverse, weights=~same, minlength=len(keys)).astype(np.int64)
    return keys >> np.uint64(32), keys & np.uint64(0xFFFFFFFF), agree, disagree


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ExtrapolateFused, CliPipeline, ScanLarge)
}
