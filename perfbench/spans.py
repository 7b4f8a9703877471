"""Outside-in tracing of the program's public functions.

A Tracer replaces public functions where their callers look them up (a
module attribute, or a method on a class) by a wrapper that records one
span per call: name, start, end and parent span. Per-element functions
(combine, mass_from_counts, similarity_from_counts) are never wrapped:
their millions of calls would swamp the timing. Spans stay in memory until
the run ends. A layer's self time is its span minus its direct child spans.

A wrapped name that no longer exists is reported absent instead of
failing, so later refactors that delete a function do not break the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

CountHook = Callable[[dict[str, float], dict[str, Any], Any], None]


def _count_scan(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    n = len(args["dataset"])
    c["md_evidence.pairs"] += n * (n - 1) // 2
    c["md_evidence.keys"] += len(result)


def _count_fuse(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["fusion.fuse.keys_in"] += sum(len(store) for _, store in args["stores"])
    c["fusion.fuse.keys_out"] += len(result)


def _count_predict(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["inference.host_pairs"] += len(args["candidates"]) * len(args["training"])
    c["inference.analogies"] += sum(p.n_analogies for p in result)
    c["inference.vacuous"] += sum(1 for p in result if p.score == 0.5)
    c["inference.predictions"] += len(result)


def _count_grid(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    """grid x repeats x sum over folds of test x train, the host pairs the
    grid search folds; its kernels are private, so this is computed."""
    n = len(args["dataset"])
    k = args.get("folds", 10)
    fold_sizes = [n // k + (1 if f < n % k else 0) for f in range(k)]
    grid = args.get("grid")
    n_grid = 50 if grid is None else len(grid)
    c["evaluation.grid.host_pairs"] += n_grid * args.get("repeats", 3) * sum(t * (n - t) for t in fold_sizes)


def _count_elements(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["evaluation.elements"] += len(args["elements"])


def _count_rows(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["alloys.parse_dataset.rows"] += len(result)


def _count_responses(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["llm_evidence.responses"] += len(result)


def _count_written(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["md_evidence.write_store.bytes"] += os.path.getsize(args["path"])


def _count_read(c: dict[str, float], args: dict[str, Any], result: Any) -> None:
    c["md_evidence.read_store.bytes"] += os.path.getsize(args["path"])


# (module, attribute, span name, counter). A class attribute is written
# "Class.method". The same function reached through several modules gets one
# wrapper, so its span name is the module that defines it.
TARGETS: tuple[tuple[str, str, str, CountHook | None], ...] = (
    ("heafusion.alloys", "parse_dataset", "alloys.parse_dataset", _count_rows),
    ("heafusion.cli", "parse_dataset", "alloys.parse_dataset", None),
    ("heafusion.llm_evidence", "parse_responses", "llm_evidence.parse_responses", _count_responses),
    ("heafusion.cli", "parse_responses", "llm_evidence.parse_responses", None),
    ("heafusion.llm_evidence", "build_store", "llm_evidence.build_store", None),
    ("heafusion.cli", "build_store", "llm_evidence.build_store", None),
    ("heafusion.md_evidence", "extract_counts", "md_evidence.extract_counts", _count_scan),
    ("heafusion.md_evidence", "counts_to_store", "md_evidence.counts_to_store", None),
    ("heafusion.md_evidence", "extract_all", "md_evidence.extract_all", None),
    ("heafusion.evaluation", "extract_all", "md_evidence.extract_all", None),
    ("heafusion.cli", "extract_all", "md_evidence.extract_all", None),
    ("heafusion.md_evidence", "SimilarityStore.mask_view", "md_evidence.mask_view", None),
    ("heafusion.md_evidence", "SimilarityStore.content_hash", "md_evidence.content_hash", None),
    ("heafusion.md_evidence", "write_store", "md_evidence.write_store", _count_written),
    ("heafusion.cli", "write_store", "md_evidence.write_store", None),
    ("heafusion.md_evidence", "read_store", "md_evidence.read_store", _count_read),
    ("heafusion.cli", "read_store", "md_evidence.read_store", None),
    ("heafusion.fusion", "estimate_reliability", "fusion.estimate_reliability", None),
    ("heafusion.cli", "estimate_reliability", "fusion.estimate_reliability", None),
    ("heafusion.fusion", "fuse", "fusion.fuse", _count_fuse),
    ("heafusion.cli", "fuse", "fusion.fuse", None),
    ("heafusion.inference", "predict_batch", "inference.predict_batch", _count_predict),
    ("heafusion.fusion", "predict_batch", "inference.predict_batch", None),
    ("heafusion.cli", "predict_batch", "inference.predict_batch", None),
    ("heafusion.evaluation", "grid_search_alpha", "evaluation.grid_search_alpha", _count_grid),
    ("heafusion.cli", "grid_search_alpha", "evaluation.grid_search_alpha", None),
    ("heafusion.evaluation", "run_extrapolation_experiment",
     "evaluation.run_extrapolation_experiment", _count_elements),
    ("heafusion.cli", "run_extrapolation_experiment", "evaluation.run_extrapolation_experiment", None),
)


class Tracer:
    """Records spans for calls into wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around benchmark-side code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _wrap(self, original: Callable, name: str, counter: CountHook | None) -> Callable:
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists in the imported program."""
        wrappers: dict[int, Callable] = {}
        self.absent = []
        for module_name, attr, name, counter in TARGETS:
            try:
                owner: object | None = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *class_path, leaf = attr.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(original, name, counter)
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches = []

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out
