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
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .alloys import Alloy, Dataset, alloy_masks
from .belief import BinaryMass, from_weights, pignistic
from .errors import CandidateInTraining
from .md_evidence import SimilarityStore

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


def _fold_masked(
    cand_mask: int,
    train_masks: Sequence[int],
    train_labels: Sequence[bool],
    weights: dict[tuple[int, int], float],
    max_size: int,
) -> tuple[float, float, int]:
    """Summed analogy weights (positive, negative) and the number of
    analogies for one candidate bitmask."""
    w_pos = w_neg = 0.0
    n = 0
    for host_mask, label in zip(train_masks, train_labels):
        inter = host_mask & cand_mask
        if not inter:
            continue
        replaced = host_mask & ~cand_mask
        replacement = cand_mask & ~host_mask
        if not replaced or not replacement:
            continue
        if replaced.bit_count() > max_size or replacement.bit_count() > max_size:
            continue
        n += 1
        key = (replaced, replacement) if replaced < replacement else (replacement, replaced)
        if label:
            w_pos += weights.get(key, 0.0)
        else:
            w_neg += weights.get(key, 0.0)
    return w_pos, w_neg, n


def analogy_weights(
    cand_masks: Sequence[int],
    train_masks: Sequence[int],
    train_labels: Sequence[bool],
    weights: dict[tuple[int, int], float],
    max_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per candidate bitmask: summed positive weight, summed negative
    weight and number of analogies.

    A candidate's analogies are the training hosts that share an element
    with it, are not nested with it, and differ on each side by at most
    max_size elements; each adds its pair's weight from `weights` (a
    `SimilarityStore.mask_view`, absent pairs weigh 0) to its host's class.
    """
    table = np.array(
        [_fold_masked(c, train_masks, train_labels, weights, max_size) for c in cand_masks],
        dtype=float,
    ).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2].astype(np.int64)


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
    train_masks = alloy_masks((la.alloy for la in training.alloys), index)
    train_labels = [la.label for la in training.alloys]
    weights = store.mask_view(index)
    cand_masks = []
    for c in candidates:
        if c.elements in training_sets:
            raise CandidateInTraining(f"candidate {c} is in the training set")
        cand_masks.append(sum(1 << index[e] for e in c.elements))

    jobs = max(1, jobs)
    if jobs == 1 or len(candidates) < 256:  # pool overhead beats small batches
        w_pos, w_neg, n = analogy_weights(cand_masks, train_masks, train_labels, weights, max_subst_size)
    else:
        chunks = [cand_masks[i::jobs] for i in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(
                pool.map(
                    analogy_weights,
                    chunks,
                    [train_masks] * jobs,
                    [train_labels] * jobs,
                    [weights] * jobs,
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
