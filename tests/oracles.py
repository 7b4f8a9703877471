"""Independent brute-force oracles used to freeze expected test values,
and reference implementations of per-item steps the package computes in
bulk.

The oracles deliberately avoid the package's computational paths: exact
rational arithmetic over explicit power-set expansions, quadratic pair
counting, and from-scratch linkage recomputation. The reference
implementations spell out one pair, one analogy or one store merge at a
time. The package holds evidence as weights and reads it out as mass
triples; here a mass is a validated `BinaryMass`, and the float Dempster
reference (`combine`, `discount` and their helpers) folds masses pairwise
with the textbook rule, where the package adds weights of evidence.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from heafusion import Alloy, Dataset, SimilarityStore
from heafusion.alloys import element_words, key_width, kfold_indices, parse_symbols
from heafusion.belief import discount_weights, from_weights
from heafusion.errors import (
    AlphaOutOfRange,
    CandidateInTraining,
    DegenerateDataset,
    GammaOutOfRange,
    ParseError,
    TotalConflict,
)
from heafusion.inference import Predictions, classify, predict_batch
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    PairCounts,
    analogy_weight,
    evidence_weight,
    extract_all,
    pack_keys,
)

CONFLICT_LIMIT = 1.0 - 1e-12
SUM_TOL = 1e-9


@dataclass(frozen=True)
class BinaryMass:
    """Mass assignment (m_first, m_second, m_both) with components summing to 1."""

    m_first: float
    m_second: float
    m_both: float

    def __post_init__(self) -> None:
        for name, value in (
            ("m_first", self.m_first),
            ("m_second", self.m_second),
            ("m_both", self.m_both),
        ):
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        total = self.m_first + self.m_second + self.m_both
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"mass components must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m_first, self.m_second, self.m_both)


def mass_pignistic(m: BinaryMass) -> float:
    """Point probability of the first outcome: split ignorance mass evenly."""
    return m.m_first + m.m_both / 2.0


def predicted_mass(predictions: Predictions, i: int = 0) -> BinaryMass:
    """The combined class mass of candidate i of `predict_batch`'s columns."""
    return BinaryMass(*from_weights(float(predictions.w_pos[i]), float(predictions.w_neg[i])))


def predicted_rows(predictions: Predictions) -> list[tuple[tuple[float, float, float], float, int]]:
    """(mass, score, analogies) per candidate of `predict_batch`'s columns,
    in the form of `predict_reference`."""
    masses = zip(*(m.tolist() for m in from_weights(predictions.w_pos, predictions.w_neg)))
    return list(zip(masses, predictions.score.tolist(), predictions.n_analogies.tolist()))


def vacuous() -> BinaryMass:
    """Total-uncertainty mass: all weight on the full frame."""
    return BinaryMass(0.0, 0.0, 1.0)


def conflict(x: BinaryMass, y: BinaryMass) -> float:
    """Mass assigned to contradictory singleton pairs during combination."""
    return x.m_first * y.m_second + x.m_second * y.m_first


def combine_masses(x, y):
    """Normalized Dempster combination of (first, second, both) triples of
    floats or of equal-length arrays.

    Raises TotalConflict when the inputs are (numerically) fully
    contradictory, which cannot happen while either keeps m_both > 0.
    """
    x_first, x_second, x_both = x
    y_first, y_second, y_both = y
    k = x_first * y_second + x_second * y_first
    if np.any(k >= CONFLICT_LIMIT):
        worst = k if np.ndim(k) == 0 else k[np.flatnonzero(k >= CONFLICT_LIMIT)[0]]
        raise TotalConflict(f"conflict {float(worst)!r} leaves no mass to renormalize")
    # cross terms grouped so argument order cannot change the rounding;
    # normalizing by the computed sum (exactly 1 - k in real arithmetic)
    # keeps results on the simplex even under repeated combination
    first = x_first * y_first + (x_first * y_both + x_both * y_first)
    second = x_second * y_second + (x_second * y_both + x_both * y_second)
    both = x_both * y_both
    total = first + second + both
    return first / total, second / total, both / total


def combine(x: BinaryMass, y: BinaryMass) -> BinaryMass:
    """Normalized Dempster combination of two mass functions (see
    `combine_masses`)."""
    return BinaryMass(*combine_masses(x.as_tuple(), y.as_tuple()))


def combine_all(ms: Iterable[BinaryMass]) -> BinaryMass:
    """Left fold of `combine` starting from the vacuous mass."""
    return reduce(combine, ms, vacuous())


def discount_masses(m, gamma: float):
    """`discount` of a (first, second, both) triple of floats or arrays."""
    if not 0.0 <= gamma <= 1.0:
        raise GammaOutOfRange(f"gamma must lie in [0, 1], got {gamma!r}")
    m_first, m_second, m_both = m
    return gamma * m_first, gamma * m_second, 1.0 - gamma + gamma * m_both


def discount(m: BinaryMass, gamma: float) -> BinaryMass:
    """Scale committed mass by reliability gamma, moving the rest to the frame."""
    return BinaryMass(*discount_masses(m.as_tuple(), gamma))


def to_weights_reference(m_first, m_second, m_both):
    """`belief.to_weights` on arrays with its fallback for an overflowing
    m / m_both computed for every entry: w = ln(1 + m / m_both), or
    ln m - ln m_both where that overflows, and 0 where m is 0."""
    first, second, both = (np.asarray(m, dtype=float) for m in (m_first, m_second, m_both))
    weights = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in (first, second):
            w = np.log1p(m / both)
            w = np.where(np.isinf(w) & (both > 0.0), np.log(m) - np.log(both), w)
            weights.append(np.where(m == 0.0, 0.0, w))
    return tuple(weights)


def support_weight(m_rest):
    """Weight of evidence -ln(1 - s) of the support s = m_first of a mass,
    given m_rest = m_second + m_both: clipped at 0 for masses whose
    components sum slightly above 1, and infinite where m_rest is 0."""
    with np.errstate(divide="ignore"):
        w = np.maximum(-np.log(m_rest), 0.0)
    return float(w) if np.ndim(w) == 0 else w


def alloy_masks(alloys: Iterable[Alloy], index: Mapping[str, int]) -> list[int]:
    """Bitmask per alloy under the given element->bit index, as a Python int."""
    masks = []
    for alloy in alloys:
        m = 0
        for e in alloy.elements:
            m |= 1 << index[e]
        masks.append(m)
    return masks


def mask_words(masks: Sequence[int], width: int | None = None) -> np.ndarray:
    """(n, W) uint64 array of each integer mask's 32-bit words, least
    significant first, as `alloys.element_words` lays masks out; W
    defaults to the words the highest set bit needs."""
    if width is None:
        width = key_width(max(masks, default=0).bit_length())
    raw = b"".join(m.to_bytes(4 * width, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u4").astype(np.uint64).reshape(len(masks), width)


FIRST = frozenset({"first"})
SECOND = frozenset({"second"})
BOTH = frozenset({"first", "second"})


def combine_exact_pair(
    ma: dict[frozenset, Fraction], mb: dict[frozenset, Fraction]
) -> dict[frozenset, Fraction]:
    """Textbook binary-frame Dempster rule: subset-intersection double sum
    normalized by one minus the conflict."""
    raw: dict[frozenset, Fraction] = {FIRST: Fraction(0), SECOND: Fraction(0), BOTH: Fraction(0)}
    conflict = Fraction(0)
    for wa, va in ma.items():
        for wb, vb in mb.items():
            inter = wa & wb
            if inter:
                raw[inter] += va * vb
            else:
                conflict += va * vb
    denom = 1 - conflict
    return {w: v / denom for w, v in raw.items()}


def mass_dict(a, b, u) -> dict[frozenset, Fraction]:
    return {FIRST: Fraction(a), SECOND: Fraction(b), BOTH: Fraction(u)}


def combine_exact(masses: Iterable[tuple]) -> tuple[Fraction, Fraction, Fraction]:
    """Pairwise exact fold of (first, second, both) triples."""
    acc = mass_dict(0, 0, 1)
    for a, b, u in masses:
        acc = combine_exact_pair(acc, mass_dict(a, b, u))
    return acc[FIRST], acc[SECOND], acc[BOTH]


def expand_dempster(masses: Sequence[tuple]) -> tuple[Fraction, Fraction, Fraction]:
    """Single-normalization expansion over all focal-set assignments.

    Enumerates every way of picking one focal set per piece of evidence,
    intersects, and normalizes once at the end; agrees with the pairwise
    fold because Dempster's rule is associative.
    """
    focals = [
        [
            (w, Fraction(v))
            for w, v in ((FIRST, a), (SECOND, b), (BOTH, u))
            if Fraction(v) != 0
        ]
        for a, b, u in masses
    ]
    raw = {FIRST: Fraction(0), SECOND: Fraction(0), BOTH: Fraction(0)}
    conflict = Fraction(0)
    for assignment in product(*focals):
        weight = Fraction(1)
        inter = BOTH
        for focal, value in assignment:
            weight *= value
            inter = inter & focal
        if inter:
            raw[inter] += weight
        else:
            conflict += weight
    denom = 1 - conflict
    return raw[FIRST] / denom, raw[SECOND] / denom, raw[BOTH] / denom


def mann_whitney_auc(labels: Sequence[bool], scores: Sequence[float]) -> float:
    """AUC as the probability a positive outranks a negative, ties half."""
    pos = [s for y, s in zip(labels, scores) if y]
    neg = [s for y, s in zip(labels, scores) if not y]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def macro_f1_oracle(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """Macro F1 from explicit precision/recall per class, with the declared
    conventions for classes absent from labels and/or predictions."""
    f1s = []
    for cls in (True, False):
        in_labels = any(y == cls for y in labels)
        in_preds = any(p == cls for p in predictions)
        if not in_labels and not in_preds:
            f1s.append(1.0)
            continue
        if not in_labels and in_preds:
            f1s.append(0.0)
            continue
        tp = sum(1 for y, p in zip(labels, predictions) if y == cls and p == cls)
        predicted = sum(1 for p in predictions if p == cls)
        actual = sum(1 for y in labels if y == cls)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual
        f1s.append(0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall))
    return sum(f1s) / 2.0


def accuracy_loop(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """`inference.accuracy` as one Python loop over the rows."""
    return sum(1 for y, p in zip(labels, predictions) if y == p) / len(labels)


def macro_f1_loop(labels: Sequence[bool], predictions: Sequence[bool]) -> float:
    """`inference.macro_f1` as Python loops over the rows: per class,
    F1 = 2 tp / (2 tp + fp + fn), or 1 where that denominator is 0."""
    f1s = []
    for cls in (True, False):
        tp = sum(1 for y, p in zip(labels, predictions) if y == cls and p == cls)
        fp = sum(1 for y, p in zip(labels, predictions) if y != cls and p == cls)
        fn = sum(1 for y, p in zip(labels, predictions) if y == cls and p != cls)
        denom = 2 * tp + fp + fn
        f1s.append(1.0 if denom == 0 else 2 * tp / denom)
    return sum(f1s) / len(f1s)


def pair_evidence_oracle(
    labeled: Sequence[tuple[frozenset, bool]], max_size: int
) -> dict[tuple[tuple, tuple], list[bool]]:
    """Evidence lists (True = labels agree) per unordered combination pair,
    from a plain double loop over element sets."""
    out: dict[tuple[tuple, tuple], list[bool]] = {}
    n = len(labeled)
    for i in range(n):
        si, yi = labeled[i]
        for j in range(i + 1, n):
            sj, yj = labeled[j]
            if not si & sj:
                continue
            ct = si - sj
            cv = sj - si
            if not ct or not cv:
                continue
            if max(len(ct), len(cv)) > max_size:
                continue
            sides = sorted([tuple(sorted(ct)), tuple(sorted(cv))])
            out.setdefault((sides[0], sides[1]), []).append(yi == yj)
    return out


def scan_partition(
    masks: Sequence[int],
    labels: Sequence[bool],
    max_size: int,
    n_partitions: int = 1,
    partition: int = 0,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Reference pair scan over integer bitmasks: (agree, disagree) counts
    per (smaller, larger) difference-mask pair, for outer indices
    i = partition (mod n_partitions). Partial scans merge by addition."""
    counts: dict[tuple[int, int], list[int]] = {}
    n = len(masks)
    for i in range(partition, n, n_partitions):
        mi = masks[i]
        for j in range(i + 1, n):
            mj = masks[j]
            if not mi & mj:
                continue
            ct = mi & ~mj
            cv = mj & ~mi
            if not ct or not cv:
                continue
            if ct.bit_count() > max_size or cv.bit_count() > max_size:
                continue
            key = (ct, cv) if ct < cv else (cv, ct)
            slot = counts.setdefault(key, [0, 0])
            slot[0 if labels[j] == labels[i] else 1] += 1
    return {key: (agree, disagree) for key, (agree, disagree) in counts.items()}


def complete_linkage_oracle(
    distances: Sequence[Sequence[float]],
) -> list[tuple[int, int, float, int]]:
    """Agglomeration recomputing every cluster distance from the original
    leaf matrix (max over cross pairs); ties pick the smallest id pair."""
    n = len(distances)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        ids = sorted(members)
        best = None
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                d = max(distances[x][y] for x in members[a] for y in members[b])
                cand = (d, a, b)
                if best is None or cand < best:
                    best = cand
        d, a, b = best
        merges.append((a, b, d, next_id))
        members[next_id] = members.pop(a) + members.pop(b)
        next_id += 1
    return merges


def evidence_from_pair(
    a: tuple[Alloy, bool], b: tuple[Alloy, bool], alpha: float
) -> tuple[CombinationPair, BinaryMass] | None:
    """Single-pair evidence of two (alloy, label) rows, or None when the
    pair carries no information.

    None cases: the alloys share no element (no context), are the same set,
    or one contains the other (an empty substitution side).
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    (alloy_a, label_a), (alloy_b, label_b) = a, b
    sa, sb = alloy_a.element_set, alloy_b.element_set
    if not sa & sb:
        return None
    ct = sa - sb
    cv = sb - sa
    if not ct or not cv:
        return None
    pair = CombinationPair(ct, cv)
    if label_a == label_b:
        return pair, BinaryMass(alpha, 0.0, 1.0 - alpha)
    return pair, BinaryMass(0.0, alpha, 1.0 - alpha)


def masses_of(store: SimilarityStore) -> dict[CombinationPair, BinaryMass]:
    """Every entry of a store read out as a mass."""
    masses = zip(*(m.tolist() for m in from_weights(store.w_first, store.w_second)))
    return {pair: BinaryMass(*mass) for (pair, _), mass in zip(store.items(), masses)}


def mass_of(store: SimilarityStore, pair: CombinationPair) -> BinaryMass:
    """One pair's evidence read out as a mass, vacuous where the store
    does not hold the pair."""
    return masses_of(store).get(pair, vacuous())


def mass_from_counts(n_agree: int, n_disagree: int, alpha: float) -> BinaryMass:
    """Dempster fold of n_agree agreeing and n_disagree disagreeing pieces.

    Equals combining n_agree copies of (alpha, 0, 1-alpha) with n_disagree
    copies of (0, alpha, 1-alpha) in any order: the weights of evidence add
    up to n * -ln(1 - alpha) per side.
    """
    weight = evidence_weight(alpha)
    return BinaryMass(*from_weights(n_agree * weight, n_disagree * weight))


def _pignistic_dissimilarity(masses: Mapping[CombinationPair, BinaryMass], pair: CombinationPair) -> float:
    mass = masses.get(pair)
    return 0.5 if mass is None else mass.m_second + mass.m_both / 2.0


def element_distance_reference(store: SimilarityStore, universe: Sequence[str]) -> np.ndarray:
    """`analysis.element_distance_matrix` one pair at a time: the
    dissimilarity mass plus half the ignorance mass of each
    single-element pair, 0.5 where absent, 0 on the diagonal."""
    masses = masses_of(store)
    n = len(universe)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = _pignistic_dissimilarity(masses, CombinationPair((universe[i],), (universe[j],)))
    return out


def hybrid_distance_reference(alloys: Sequence[Alloy], store: SimilarityStore) -> np.ndarray:
    """`analysis.hybrid_distance_matrix` one pair at a time: the
    pignistic dissimilarity of the substitution sides (0.5 where a side is
    empty or the store lacks the pair) times the Jaccard distance."""
    masses = masses_of(store)
    sets = [a.element_set for a in alloys]
    n = len(alloys)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ct, cv = sets[i] - sets[j], sets[j] - sets[i]
            factor = _pignistic_dissimilarity(masses, CombinationPair(ct, cv)) if ct and cv else 0.5
            union = len(sets[i] | sets[j])
            jaccard = len(sets[i] & sets[j]) / union if union else 1.0
            out[i, j] = out[j, i] = factor * (1.0 - jaccard)
    return out


def combine_stores(stores: Iterable[SimilarityStore]) -> dict[CombinationPair, BinaryMass]:
    """Dempster-combine the stores' masses entry-wise over the union of
    their keys with the float reference `combine`.

    Absent entries are vacuous and contribute nothing, so stores built from
    disjoint slices of the pair space merge into the whole-dataset store.
    """
    entries: dict[CombinationPair, BinaryMass] = {}
    for store in stores:
        for pair, mass in masses_of(store).items():
            held = entries.get(pair)
            entries[pair] = mass if held is None else combine(held, mass)
    return entries


@dataclass(frozen=True)
class Analogy:
    """Host alloy and its label, plus the substitution (replaced <-
    replacement) that turns it into the candidate."""

    host: Alloy
    host_label: bool
    replaced: tuple[str, ...]
    replacement: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.replaced or not self.replacement:
            raise ValueError("substitution sides must be non-empty")
        if set(self.replaced) & set(self.replacement):
            raise ValueError("substitution sides must be disjoint")
        if not set(self.replaced) <= self.host.element_set:
            raise ValueError("replaced combination must be part of the host")


def enumerate_analogies(
    candidate: Alloy, training: Dataset, max_subst_size: int | None = None
) -> list[Analogy]:
    """All substitutions from training hosts onto the candidate, in training
    order. Hosts disjoint from the candidate or nested with it (one set
    containing the other) cannot express a substitution and yield nothing.
    max_subst_size defaults to the largest alloy size minus one."""
    if max_subst_size is None:
        sizes = [len(a.elements) for a in training.alloys] + [len(candidate.elements)]
        max_subst_size = max(sizes) - 1
    cand = candidate.element_set
    out: list[Analogy] = []
    for alloy, label in zip(training.alloys, training.labels.tolist()):
        host = alloy.element_set
        if host == cand:
            raise CandidateInTraining(f"candidate {candidate} is in the training set")
        if not host & cand:
            continue
        replaced = host - cand
        replacement = cand - host
        if not replaced or not replacement:
            continue
        if max(len(replaced), len(replacement)) > max_subst_size:
            continue
        out.append(Analogy(alloy, label, tuple(sorted(replaced)), tuple(sorted(replacement))))
    return out


def evidence_from_analogy(analogy: Analogy, store: SimilarityStore) -> BinaryMass:
    """Class evidence from one substitution: similarity s backs the host's
    class, the rest stays on the frame. Absent pairs are vacuous."""
    s = mass_of(store, CombinationPair(analogy.replaced, analogy.replacement)).m_first
    if analogy.host_label:
        return BinaryMass(s, 0.0, 1.0 - s)
    return BinaryMass(0.0, s, 1.0 - s)


def pairs_of(store: SimilarityStore) -> set[CombinationPair]:
    """The combination pairs a store holds."""
    return {pair for pair, _ in store.items()}


def count_table(counts: Mapping[tuple[int, int], tuple[int, int]]) -> PairCounts:
    """A dict of (agree, disagree) counts per (smaller, larger) mask pair,
    such as `scan_partition` returns, as the scan's sorted count table."""
    lo = [a for a, _ in counts]
    hi = [b for _, b in counts]
    width = key_width(max(hi, default=0).bit_length())
    keys = pack_keys(mask_words(lo, width), mask_words(hi, width))
    order = np.lexsort(keys.T[::-1])
    values = np.array(list(counts.values()), dtype=np.int64).reshape(-1, 2)
    return PairCounts(keys[order], values[order, 0], values[order, 1])


def fresh_counts_dict(counts: PairCounts) -> dict[tuple[int, int], tuple[int, int]]:
    """The `extract_counts` dict of a count table built with fresh objects:
    two new side-mask ints and one new (agree, disagree) tuple per key,
    added a block of 65,536 keys at a time."""
    block = 1 << 16
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for start in range(0, len(counts.keys), block):
        keys = counts.keys[start:start + block]
        sides = []
        for half in (keys >> np.uint64(32), keys & np.uint64(0xFFFFFFFF)):
            ints = half[:, -1].tolist()  # the highest word first
            for w in range(half.shape[1] - 2, -1, -1):
                ints = [high << 32 | low for high, low in zip(ints, half[:, w].tolist())]
            sides.append(ints)
        values = zip(counts.agree[start:start + block].tolist(), counts.disagree[start:start + block].tolist())
        out.update(zip(zip(*sides), values))
    return out


def fuse_reference(
    stores: Sequence[tuple[str, SimilarityStore]], gammas: Mapping[str, float]
) -> dict[CombinationPair, tuple[float, float]]:
    """Per-pair fusion: over the union of the stores' pairs, the sum in
    source order of the present sources' weights, each source's columns
    discounted by its gamma with `belief.discount_weights`."""
    fused: dict[CombinationPair, tuple[float, float]] = {}
    for sid, store in stores:
        d_first, d_second = discount_weights(store.w_first, store.w_second, gammas[sid])
        for (pair, _), w_first, w_second in zip(store.items(), d_first.tolist(), d_second.tolist()):
            held = fused.get(pair, (0.0, 0.0))
            fused[pair] = (held[0] + w_first, held[1] + w_second)
    if any(math.isinf(w_first) and math.isinf(w_second) for w_first, w_second in fused.values()):
        raise TotalConflict("infinite weight of evidence on both outcomes")
    return fused


def fuse_masses_reference(
    stores: Sequence[tuple[str, SimilarityStore]], gammas: Mapping[str, float]
) -> dict[CombinationPair, BinaryMass]:
    """Per-pair fusion with the float Dempster reference: over the union
    of the stores' pairs, the left fold from vacuous of `combine` over the
    present sources' masses, in source order, each discounted by its
    gamma."""
    entries = [(sid, masses_of(store)) for sid, store in stores]
    keys: dict[CombinationPair, None] = {}
    for _, held in entries:
        keys.update(dict.fromkeys(held))
    return {
        pair: combine_all(discount(held[pair], gammas[sid]) for sid, held in entries if pair in held)
        for pair in keys
    }


def weight_view(store: SimilarityStore, index: Mapping[str, int]) -> dict[tuple[int, int], float]:
    """Analogy weight `md_evidence.analogy_weight` per (smaller, larger)
    bitmask pair under `index`; entries naming other elements are
    skipped."""
    keys: list[tuple[int, int]] = []
    weights: list[tuple[float, float]] = []
    for pair, held in store.items():
        try:
            a = sum(1 << index[e] for e in pair.first)
            b = sum(1 << index[e] for e in pair.second)
        except KeyError:
            continue
        keys.append((a, b) if a < b else (b, a))
        weights.append(held)
    columns = np.array(weights, dtype=float).reshape(-1, 2)
    return dict(zip(keys, analogy_weight(columns[:, 0], columns[:, 1]).tolist()))


def fold_masked(
    cand_mask: int,
    train_masks: Sequence[int],
    train_labels: Sequence[bool],
    weights: Mapping[tuple[int, int], float],
    max_size: int,
) -> tuple[float, float, int]:
    """Summed analogy weights (positive, negative) and the number of
    analogies of one candidate bitmask, one host at a time."""
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


def predict_reference(
    candidates: Sequence[Alloy], training: Dataset, store: SimilarityStore, max_size: int | None = None
) -> list[tuple[tuple[float, float, float], float, int]]:
    """(mass, score, analogies) per candidate from `fold_masked` over a
    `weight_view`, read out with `from_weights` as `predict_batch` does."""
    if max_size is None:
        sizes = [len(a.elements) for a in training.alloys] + [len(c.elements) for c in candidates]
        max_size = max(sizes, default=2) - 1
    index = training.element_index()
    extra = sorted({e for c in candidates for e in c.elements} - set(training.universe))
    for offset, e in enumerate(extra):
        index[e] = len(training.universe) + offset
    train_masks = alloy_masks(training.alloys, index)
    labels = training.labels.tolist()
    weights = weight_view(store, index)
    table = np.array(
        [fold_masked(c, train_masks, labels, weights, max_size) for c in alloy_masks(candidates, index)],
        dtype=float,
    ).reshape(-1, 3)
    masses = zip(*(m.tolist() for m in from_weights(table[:, 0], table[:, 1])))
    out = []
    for mass, n in zip(masses, table[:, 2].astype(int).tolist()):
        out.append((mass, mass_pignistic(BinaryMass(*mass)), n))
    return out


def kfold_splits(dataset: Dataset, k: int, seed: int) -> list[tuple[Dataset, Dataset]]:
    """The (train, test) datasets of `kfold_indices`' folds, each built
    from its rows."""
    return [
        (rows_dataset(dataset, tr, f"[fold{f}-train]"), rows_dataset(dataset, te, f"[fold{f}-test]"))
        for f, (tr, te) in enumerate(kfold_indices(dataset.labels, k, seed))
    ]


def rows_dataset(dataset: Dataset, indices: Sequence[int], suffix: str = "") -> Dataset:
    """A new dataset of the rows at `indices` over the same universe, built
    from its alloys and labels as a file's rows are: the reference of
    `Dataset.take`."""
    return Dataset(dataset.name + suffix, tuple(dataset.alloys[i] for i in indices),
                   [bool(dataset.labels[i]) for i in indices], dataset.universe)


def estimate_reliability_reference(
    stores: Sequence[SimilarityStore],
    dataset: Dataset,
    folds: int = 10,
    seed: int = 42,
    max_subst_size: int | None = None,
) -> list[float]:
    """Per store, one `predict_batch` call per fold of `kfold_splits`,
    classified and scored by `macro_f1_loop`; the mean over folds, clipped
    to [0, 1]."""
    gammas = []
    for store in stores:
        n_pos = dataset.n_positive
        if n_pos == 0 or n_pos == len(dataset):
            raise DegenerateDataset(f"{dataset.name} has a single class; reliability undefined")
        total = 0.0
        splits = kfold_splits(dataset, folds, seed)
        for training, test in splits:
            predictions = predict_batch(test.alloys, training, store, max_subst_size)
            total += macro_f1_loop(test.labels.tolist(), classify(predictions.score))
        gammas.append(min(1.0, max(0.0, total / len(splits))))
    return gammas



def alpha_scores_reference(
    dataset: Dataset,
    alphas: Sequence[float],
    folds: int,
    repeats: int,
    seed: int,
    max_subst_size: int | None = None,
) -> list[float]:
    """Per alpha, the mean over `repeats` rounds of `kfold_splits` of the
    test rows' macro-F1 (`macro_f1_loop`) when each fold's training rows
    are extracted at that alpha (`extract_all`) and the test rows
    predicted from them (`predict_batch`), both at the dataset's
    substitution limit; fold scores are added in repeat and fold order."""
    if max_subst_size is None:
        max_subst_size = max(len(a.elements) for a in dataset.alloys) - 1
    means = []
    for alpha in alphas:
        total = 0.0
        for rep in range(repeats):
            for training, test in kfold_splits(dataset, folds, seed + rep):
                store = extract_all(training, ExtractionConfig(alpha, max_subst_size))
                predictions = predict_batch(test.alloys, training, store, max_subst_size)
                total += macro_f1_loop(test.labels.tolist(), classify(predictions.score))
        means.append(total / (repeats * folds))
    return means

def read_gammas(path: str | Path) -> dict[str, float]:
    """Load a sidecar written by `fusion.write_gammas`: a JSON object
    mapping source ids to finite numbers in [0, 1]; anything else raises
    ParseError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"gamma file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"gamma file {path} must hold a JSON object, got {type(data).__name__}")
    for sid, gamma in data.items():
        if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
            raise ParseError(f"gamma for {sid!r} must be a number, got {gamma!r}")
        if not (math.isfinite(gamma) and 0.0 <= gamma <= 1.0):
            raise ParseError(f"gamma for {sid!r} must lie in [0, 1], got {gamma!r}")
    return {sid: float(g) for sid, g in sorted(data.items())}


STORE_HEADER = ["combo_a", "combo_b", "w_similar", "w_dissimilar"]


def write_store_reference(store: SimilarityStore, path: str | Path) -> None:
    """`md_evidence.write_store` one row at a time through `csv.writer`:
    rows sorted by combination pair, weights as 17-digit floats."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STORE_HEADER)
        for pair, (w1, w2) in sorted(store.items()):
            writer.writerow(["-".join(pair.first), "-".join(pair.second), f"{w1:.17g}", f"{w2:.17g}"])


def write_matrix_csv_reference(matrix: np.ndarray, labels: Sequence[str], path: str | Path) -> None:
    """`analysis.write_matrix_csv` one row at a time through `csv.writer`."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(labels))
        for label, row in zip(labels, np.asarray(matrix)):
            writer.writerow([label] + [f"{v:.17g}" for v in row])


def read_rows_reference(path: str | Path, columns: Sequence[str]) -> Iterable[tuple[int, list[str]]]:
    """(row number, cells of `columns`) of each non-blank row, checked one
    row at a time with the messages of `alloys.read_blocks`; a column the
    header names twice is not checked here, and its first copy is read."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path} is empty", 1)
        header = [h.strip().lower() for h in header]
        missing = [name for name in columns if name not in header]
        if missing:
            raise ParseError(f"header must declare columns {list(columns)}, missing {missing}", 1)
        width = len(header)
        take = [header.index(name) for name in columns]
        needed = max(take) + 1
        for lineno, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) < needed:
                raise ParseError(f"expected at least {needed} columns, got {len(row)}", lineno)
            if len(row) > width:
                raise ParseError(f"expected at most {width} columns, as in the header, got {len(row)}", lineno)
            yield lineno, [row[i] for i in take]


def read_store_reference(path: str | Path) -> SimilarityStore:
    """`md_evidence.read_store` one row at a time: each row's sides and
    weights are parsed and checked as the row is read."""
    side_ids: dict[str, int] = {}
    sides: list[list[str]] = []
    rows: list[tuple[int, int, int]] = []
    weights: list[tuple[float, float]] = []
    for lineno, (combo_a, combo_b, w_similar, w_dissimilar) in read_rows_reference(path, STORE_HEADER):
        for side in (combo_a, combo_b):
            if side not in side_ids:
                side_ids[side] = len(sides)
                sides.append(parse_symbols(side, lineno))
        try:
            weights.append((float(w_similar), float(w_dissimilar)))
        except ValueError:
            raise ParseError(f"weights must be numbers, got {w_similar!r} and {w_dissimilar!r}", lineno) from None
        rows.append((lineno, side_ids[combo_a], side_ids[combo_b]))
    linenos, first, second = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    w = np.array(weights, dtype=float).reshape(-1, 2) + 0.0  # -0.0 reads as 0.0
    elements = tuple(sorted({e for side in sides for e in side}))
    words = element_words(sides, {e: i for i, e in enumerate(elements)}, key_width(len(elements)))
    bad = ~(w >= 0.0).all(axis=1) | np.isinf(w).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParseError(f"weights must be non-negative and not both infinite, got {w[i, 0]} and {w[i, 1]}",
                         int(linenos[i]))
    overlap = (words[first] & words[second]).any(axis=1)
    if overlap.any():
        i = int(np.argmax(overlap))
        raise ParseError(f"combination sides must be disjoint, got {sides[first[i]]} and {sides[second[i]]}",
                         int(linenos[i]))
    keys = pack_keys(words[first], words[second])
    order = np.lexsort(keys.T[::-1])  # stable: equal keys keep their file order
    keys = keys[order]
    repeat = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
    if len(repeat):
        earlier, later = order[repeat], order[repeat + 1]
        j = int(np.argmin(later))
        pair = CombinationPair(sides[first[later[j]]], sides[second[later[j]]])
        raise ParseError(f"pair {pair} repeats row {linenos[earlier[j]]}", int(linenos[later[j]]))
    return SimilarityStore(elements, keys, w[order, 0], w[order, 1])
