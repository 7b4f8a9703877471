"""Analogy-based phase prediction for candidate alloys.

A candidate is compared against every labeled alloy it shares elements
with. Each such host defines a substitution: replace the host elements
missing from the candidate with the candidate elements missing from the
host. The store's belief s that those two combinations are substitutable
is simple support for the host's class (host positive) or the other class
(host negative), with weight of evidence -ln(1 - s). Dempster's rule adds
weights, so the analogy pool is one sum of weights per class, read out
once by `belief.from_weights` and scored by the pignistic probability of
the positive class.

The weights come from `SimilarityStore.mask_view` as -ln(m_second +
m_both), which stays finite for similarities that round to 1.
TotalConflict means infinite weight on both classes: a candidate with
hosts of both classes whose stored masses have m_second + m_both exactly
0. The md source at small alpha cannot produce such masses (at alpha =
0.1 a pair would need over 7,000 more agreeing than disagreeing pieces);
large alpha can, until stores hold weights instead of masses.

`analogy_weights` is one array kernel. Candidates and hosts are rows of
32-bit mask words; a block of whole candidates is compared with every host
at once, the replaced and replacement masks are packed into store keys and
looked up with `np.searchsorted` in the `mask_view` key table, and each
candidate's class weights are summed with `np.bincount` over its analogies
in host order. bincount adds in input order, so every weight sum is the
one a sequential loop over the hosts gives, to the bit.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alloys import Alloy, Dataset
from .belief import BinaryMass, from_weights, pignistic
from .errors import CandidateInTraining
from .md_evidence import KeyTable, SimilarityStore, element_words, key_width, pack_keys

__all__ = [
    "Prediction",
    "analogy_weights",
    "predict",
    "predict_batch",
    "classify",
]


@dataclass(frozen=True)
class Prediction:
    """Combined class mass for a candidate with its pignistic score."""

    candidate: Alloy
    mass: BinaryMass
    score: float
    n_analogies: int

    def __post_init__(self) -> None:
        if abs(self.score - pignistic(self.mass)) > 1e-12:
            raise ValueError("score must equal the pignistic probability of the mass")
        if self.n_analogies < 0:
            raise ValueError("n_analogies must be non-negative")


def _default_max_size(training: Dataset, candidates: Sequence[Alloy]) -> int:
    sizes = [len(la.alloy.elements) for la in training.alloys]
    sizes.extend(len(c.elements) for c in candidates)
    return max(sizes, default=2) - 1


_BLOCK_PAIRS = 1 << 15  # candidate-host pairs compared per block of candidates


def analogy_weights(
    cand_words: np.ndarray,
    host_words: np.ndarray,
    host_labels: Sequence[bool],
    table: KeyTable,
    max_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per candidate: summed positive weight, summed negative weight and
    number of analogies.

    Candidates and hosts are (n, W) arrays of 32-bit mask words
    (`md_evidence.element_words`). A candidate's analogies are the hosts that
    share an element with it, are not nested with it, and differ on each
    side by at most max_size elements; each adds its pair's weight from
    `table` (a `SimilarityStore.mask_view`; absent pairs weigh 0) to its
    host's class. With a (keys, k) weight table the sums are (candidates,
    k) arrays, one column per weight column.
    """
    labels = np.asarray(host_labels, dtype=bool)
    n_cand = len(cand_words)
    weights = table.weights if table.weights.ndim == 2 else table.weights[:, None]
    w_pos = np.zeros((n_cand, weights.shape[1]))
    w_neg = np.zeros((n_cand, weights.shape[1]))
    n = np.zeros(n_cand, dtype=np.int64)
    block = max(1, _BLOCK_PAIRS // max(1, len(host_words)))
    for start in range(0, n_cand, block):
        cand = cand_words[start:start + block, None]  # (b, 1, W) against all hosts (h, W)
        shared = cand & host_words
        replaced = shared ^ host_words  # in the host only
        replacement = shared ^ cand  # in the candidate only
        n_replaced = np.bitwise_count(replaced).sum(axis=2)
        n_replacement = np.bitwise_count(replacement).sum(axis=2)
        rows, cols = np.nonzero(
            shared.any(axis=2) & (n_replaced > 0) & (n_replacement > 0)
            & (n_replaced <= max_size) & (n_replacement <= max_size)
        )  # row-major: each candidate's hosts in host order
        pos, found = table.find(pack_keys(replaced[rows, cols], replacement[rows, cols]))
        found_weights = np.zeros((len(pos), weights.shape[1]))
        found_weights[found] = weights[pos[found]]
        size = len(cand)
        n[start:start + size] = np.bincount(rows, minlength=size)
        for out, side in ((w_pos, labels[cols]), (w_neg, ~labels[cols])):
            for j in range(weights.shape[1]):
                out[start:start + size, j] = np.bincount(rows[side], weights=found_weights[side, j], minlength=size)
    shape = (n_cand,) + table.weights.shape[1:]
    return w_pos.reshape(shape), w_neg.reshape(shape), n


def predict_batch(
    candidates: Sequence[Alloy],
    training: Dataset,
    store: SimilarityStore,
    max_subst_size: int | None = None,
    jobs: int = 1,
) -> list[Prediction]:
    """Predict many candidates against one training set and store.

    Pure in its inputs; candidates are processed independently, so the
    batch may be chunked across worker processes.
    """
    if max_subst_size is None:
        max_subst_size = _default_max_size(training, candidates)
    training_sets = {la.alloy.elements for la in training.alloys}
    index = training.element_index()
    extra = sorted({e for c in candidates for e in c.elements} - set(training.universe))
    for offset, e in enumerate(extra):
        index[e] = len(training.universe) + offset
    width = key_width(len(index))
    host_words = element_words((la.alloy.elements for la in training.alloys), index, width)
    host_labels = [la.label for la in training.alloys]
    table = store.mask_view(index)
    for c in candidates:
        if c.elements in training_sets:
            raise CandidateInTraining(f"candidate {c} is in the training set")
    cand_words = element_words((c.elements for c in candidates), index, width)

    jobs = max(1, jobs)
    if jobs == 1 or len(candidates) < 256:  # pool overhead beats small batches
        w_pos, w_neg, n = analogy_weights(cand_words, host_words, host_labels, table, max_subst_size)
    else:
        lanes = [cand_words[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    analogy_weights,
                    lanes,
                    [host_words] * jobs,
                    [host_labels] * jobs,
                    [table] * jobs,
                    [max_subst_size] * jobs,
                )
            )
        w_pos, w_neg = np.empty(len(candidates)), np.empty(len(candidates))
        n = np.empty(len(candidates), dtype=np.int64)
        for lane, (lane_pos, lane_neg, lane_n) in enumerate(parts):
            w_pos[lane::jobs], w_neg[lane::jobs], n[lane::jobs] = lane_pos, lane_neg, lane_n
    m_first, m_second, m_both = (m.tolist() for m in from_weights(w_pos, w_neg))
    out = []
    for candidate, a, b, u, k in zip(candidates, m_first, m_second, m_both, n.tolist()):
        mass = BinaryMass(a, b, u)
        out.append(Prediction(candidate, mass, pignistic(mass), k))
    return out


def predict(
    candidate: Alloy,
    training: Dataset,
    store: SimilarityStore,
    max_subst_size: int | None = None,
) -> Prediction:
    """Single-candidate convenience wrapper around `predict_batch`."""
    return predict_batch([candidate], training, store, max_subst_size)[0]


def classify(p: Prediction, threshold: float = 0.5) -> bool:
    """Positive iff the score strictly exceeds the threshold (ties are
    negative, so the positive class needs positive evidence)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold!r}")
    return p.score > threshold
