"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's computational paths:
exact rational arithmetic over explicit power-set expansions, quadratic
pair counting, and from-scratch linkage recomputation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

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
