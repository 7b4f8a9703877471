"""Independent brute-force oracles used to freeze expected test values,
and reference implementations of per-item steps the package computes in
bulk.

The oracles deliberately avoid the package's computational paths: exact
rational arithmetic over explicit power-set expansions, quadratic pair
counting, and from-scratch linkage recomputation. The reference
implementations spell out one pair, one analogy or one store merge at a
time with the package's value types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from heafusion import Alloy, BinaryMass, Dataset, LabeledAlloy, SimilarityStore
from heafusion.alloys import alloy_masks
from heafusion.belief import combine, combine_all, discount, from_weights, pignistic, support_weight
from heafusion.errors import AlphaOutOfRange, CandidateInTraining
from heafusion.md_evidence import CombinationPair, PairCounts, key_width, mask_words, pack_keys

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
    a: LabeledAlloy, b: LabeledAlloy, alpha: float
) -> tuple[CombinationPair, BinaryMass] | None:
    """Single-pair evidence, or None when the pair carries no information.

    None cases: the alloys share no element (no context), are the same set,
    or one contains the other (an empty substitution side).
    """
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    sa, sb = a.alloy.element_set, b.alloy.element_set
    if not sa & sb:
        return None
    ct = sa - sb
    cv = sb - sa
    if not ct or not cv:
        return None
    pair = CombinationPair(ct, cv)
    if a.label == b.label:
        return pair, BinaryMass(alpha, 0.0, 1.0 - alpha)
    return pair, BinaryMass(0.0, alpha, 1.0 - alpha)


def combine_stores(stores: Iterable[SimilarityStore]) -> SimilarityStore:
    """Dempster-combine stores entry-wise over the union of their keys.

    Absent entries are vacuous and contribute nothing, so stores built from
    disjoint slices of the pair space merge into the whole-dataset store.
    """
    entries: dict[CombinationPair, BinaryMass] = {}
    for store in stores:
        for pair, mass in store.items():
            held = entries.get(pair)
            entries[pair] = mass if held is None else combine(held, mass)
    return SimilarityStore.from_entries(entries)


@dataclass(frozen=True)
class Analogy:
    """Host alloy plus the substitution (replaced <- replacement) that
    turns it into the candidate."""

    host: LabeledAlloy
    replaced: tuple[str, ...]
    replacement: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.replaced or not self.replacement:
            raise ValueError("substitution sides must be non-empty")
        if set(self.replaced) & set(self.replacement):
            raise ValueError("substitution sides must be disjoint")
        if not set(self.replaced) <= self.host.alloy.element_set:
            raise ValueError("replaced combination must be part of the host")


def enumerate_analogies(
    candidate: Alloy, training: Dataset, max_subst_size: int | None = None
) -> list[Analogy]:
    """All substitutions from training hosts onto the candidate, in training
    order. Hosts disjoint from the candidate or nested with it (one set
    containing the other) cannot express a substitution and yield nothing.
    max_subst_size defaults to the largest alloy size minus one."""
    if max_subst_size is None:
        sizes = [len(la.alloy.elements) for la in training.alloys] + [len(candidate.elements)]
        max_subst_size = max(sizes) - 1
    cand = candidate.element_set
    out: list[Analogy] = []
    for la in training.alloys:
        host = la.alloy.element_set
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
        out.append(Analogy(la, tuple(sorted(replaced)), tuple(sorted(replacement))))
    return out


def evidence_from_analogy(analogy: Analogy, store: SimilarityStore) -> BinaryMass:
    """Class evidence from one substitution: similarity s backs the host's
    class, the rest stays on the frame. Absent pairs are vacuous."""
    s = store.similarity(CombinationPair(analogy.replaced, analogy.replacement))
    if analogy.host.label:
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


def fuse_reference(
    stores: Sequence[tuple[str, SimilarityStore]], gammas: Mapping[str, float]
) -> dict[CombinationPair, BinaryMass]:
    """Per-pair fusion: over the union of the stores' pairs, the left fold
    from vacuous of `combine` over the present sources, in source order,
    each discounted by its gamma."""
    entries = [(sid, dict(store.items())) for sid, store in stores]
    keys: dict[CombinationPair, None] = {}
    for _, held in entries:
        keys.update(dict.fromkeys(held))
    return {
        pair: combine_all(discount(held[pair], gammas[sid]) for sid, held in entries if pair in held)
        for pair in keys
    }


def weight_view(store: SimilarityStore, index: Mapping[str, int]) -> dict[tuple[int, int], float]:
    """Analogy weight -ln(m_second + m_both) per (smaller, larger) bitmask
    pair under `index`; entries naming other elements are skipped."""
    keys: list[tuple[int, int]] = []
    rest: list[float] = []
    for pair, mass in store.items():
        try:
            a = sum(1 << index[e] for e in pair.first)
            b = sum(1 << index[e] for e in pair.second)
        except KeyError:
            continue
        keys.append((a, b) if a < b else (b, a))
        rest.append(mass.m_second + mass.m_both)
    return dict(zip(keys, support_weight(np.array(rest, dtype=float)).tolist()))


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
        sizes = [len(la.alloy.elements) for la in training.alloys] + [len(c.elements) for c in candidates]
        max_size = max(sizes, default=2) - 1
    index = training.element_index()
    extra = sorted({e for c in candidates for e in c.elements} - set(training.universe))
    for offset, e in enumerate(extra):
        index[e] = len(training.universe) + offset
    train_masks = alloy_masks((la.alloy for la in training.alloys), index)
    labels = training.labels()
    weights = weight_view(store, index)
    table = np.array(
        [fold_masked(c, train_masks, labels, weights, max_size) for c in alloy_masks(candidates, index)],
        dtype=float,
    ).reshape(-1, 3)
    masses = zip(*(m.tolist() for m in from_weights(table[:, 0], table[:, 1])))
    out = []
    for mass, n in zip(masses, table[:, 2].astype(int).tolist()):
        out.append((mass, pignistic(BinaryMass(*mass)), n))
    return out
