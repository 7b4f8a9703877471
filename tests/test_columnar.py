"""The columnar store and the array kernels against the per-entry
reference implementations in `oracles`, with exact float equality."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from heafusion import Alloy, Dataset, LabeledAlloy, SimilarityStore
from heafusion.alloys import ELEMENT_SYMBOLS
from heafusion.belief import to_weights
from heafusion.errors import DegenerateDataset, TotalConflict
from heafusion.fusion import SourceReliability, estimate_reliability, fuse
from heafusion.inference import predict_batch
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    evidence_weight,
    extract_all,
    read_store,
    write_store,
)

from conftest import random_dataset
from oracles import (
    alloy_masks,
    estimate_reliability_reference,
    fuse_masses_reference,
    fuse_reference,
    masses_of,
    predict_reference,
    scan_partition,
)

TABLE_SIZES = (3, 5, 9, 16, 26, 31, 32, 33, 47, 63, 64, 65, 80, 103)


def _subset(rng, symbols, low, high):
    return tuple(sorted(rng.sample(symbols, rng.randint(low, min(high, len(symbols))))))


def _random_weights(rng):
    a, b = rng.random(), rng.random()
    u = rng.random() + 1e-3  # keeps every mass off the certain corners
    total = a + b + u
    return to_weights(a / total, b / total, 1.0 - a / total - b / total)


def _expert_store(rng, symbols, shared_pairs):
    """Random single- and multi-element pairs over the symbols, plus some
    pairs the md store holds too."""
    entries = {}
    for pair in shared_pairs:
        if rng.random() < 0.5:
            entries[pair] = _random_weights(rng)
    for _ in range(rng.randint(0, 12)):
        sides = rng.sample(symbols, 2)
        first = [sides[0]] + ([rng.choice(symbols)] if rng.random() < 0.3 else [])
        second = [sides[1]]
        if set(first) & set(second) or len(set(first)) != len(first):
            continue
        entries[CombinationPair(first, second)] = _random_weights(rng)
    return SimilarityStore.from_entries(entries)


def _reference_extract(dataset, alpha, max_size):
    masks = alloy_masks((la.alloy for la in dataset.alloys), dataset.element_index())
    if max_size is None:
        max_size = max((len(la.alloy.elements) for la in dataset.alloys), default=2) - 1
    names = dataset.universe
    weight = evidence_weight(alpha)

    def side(mask):
        return [names[i] for i in range(mask.bit_length()) if mask >> i & 1]

    return {
        CombinationPair(side(lo), side(hi)): (agree * weight, disagree * weight)
        for (lo, hi), (agree, disagree) in scan_partition(masks, dataset.labels(), max_size).items()
    }


def _reference_csv(entries):
    lines = ["combo_a,combo_b,w_similar,w_dissimilar"]
    for pair in sorted(entries):
        w_first, w_second = entries[pair]
        lines.append(f"{'-'.join(pair.first)},{'-'.join(pair.second)},{w_first:.17g},{w_second:.17g}")
    return "\r\n".join(lines) + "\r\n"


def _case(rng, case):
    n_universe = TABLE_SIZES[case % len(TABLE_SIZES)]
    universe = tuple(rng.sample(ELEMENT_SYMBOLS, n_universe))  # random bit order
    outside = [e for e in ELEMENT_SYMBOLS if e not in universe]
    extra = rng.sample(outside, min(len(outside), rng.randint(1, 3)))
    rows = set()
    for _ in range(rng.randint(2, 24)):
        rows.add(_subset(rng, universe, 2, 5))
    single_class = rng.choice([True, False]) if case % 6 == 0 else None
    alloys = tuple(
        LabeledAlloy(Alloy(r), rng.random() < 0.5 if single_class is None else single_class) for r in sorted(rows)
    )
    dataset = Dataset("case", alloys, universe)
    candidates = []
    for _ in range(rng.randint(1, 8)):
        symbols = list(universe) + (extra if rng.random() < 0.3 else [])
        elements = _subset(rng, symbols, 2, 5)
        if elements not in rows and all(c.elements != elements for c in candidates):
            candidates.append(Alloy(elements))
    return dataset, extra, candidates


def test_kernels_match_reference_implementations(tmp_path):
    rng = random.Random(4242)
    path = tmp_path / "store.csv"
    seen = {"wide": 0, "extra_candidates": 0, "outside_store": 0, "partial_keys": 0, "gammas": set()}
    for case in range(1000):
        dataset, extra, candidates = _case(rng, case)
        alpha = rng.uniform(0.01, 0.9)
        max_size = rng.choice([None, 1, 2, 3])
        md = extract_all(dataset, ExtractionConfig(alpha, max_size))
        md_entries = dict(md.items())
        assert md_entries == _reference_extract(dataset, alpha, max_size), case

        write_store(md, path)
        assert path.read_bytes() == _reference_csv(md_entries).encode(), case
        again = read_store(path)
        assert dict(again.items()) == md_entries and again.content_hash() == md.content_hash(), case

        shared = rng.sample(sorted(md_entries), min(len(md_entries), 6))
        symbols = list(dataset.universe) + extra
        experts = [_expert_store(rng, symbols, shared) for _ in range(rng.randint(1, 2))]
        stores = [("md", md)] + [(f"llm:{i}", s) for i, s in enumerate(experts)]
        gammas = {sid: rng.choice([0.0, 1.0, rng.random()]) for sid, _ in stores}
        fused = fuse(stores, [SourceReliability(sid, g) for sid, g in gammas.items()])
        assert dict(fused.items()) == fuse_reference(stores, gammas), case
        reference = fuse_masses_reference(stores, gammas)
        for pair, mass in masses_of(fused).items():
            assert mass.as_tuple() == pytest.approx(reference[pair].as_tuple(), abs=1e-12), case

        for store in (md, experts[0], fused):
            if not candidates:
                break
            got = predict_batch(candidates, dataset, store, max_subst_size=max_size)
            expected = predict_reference(candidates, dataset, store, max_size)
            assert [(p.mass.as_tuple(), p.score, p.n_analogies) for p in got] == expected, case

        seen["wide"] += len(dataset.universe) > 64
        seen["extra_candidates"] += any(set(c.elements) - set(dataset.universe) for c in candidates)
        seen["outside_store"] += any(set(s.elements) - set(dataset.universe) for s in experts)
        keys = [{p for p, _ in s.items()} for _, s in stores]
        seen["partial_keys"] += any(len(set.union(*keys)) > len(k) for k in keys if k)
        seen["gammas"].update(gammas.values())
    assert seen["wide"] and seen["extra_candidates"] and seen["outside_store"] and seen["partial_keys"]
    assert {0.0, 1.0} <= seen["gammas"] and len(seen["gammas"]) > 2


def test_reliability_matches_reference():
    # every store of a call is scored in one pass; the reference scores
    # them one at a time, one predict_batch per fold
    rng = random.Random(777)
    seen = {"n_stores": set(), "max_size": set(), "all_folds": 0, "empty": 0, "disjoint": 0, "outside": 0,
            "outcomes": set()}
    for case in range(300):
        dataset, extra, _ = _case(rng, case)
        max_size = rng.choice([None, 1, 2, 3])
        folds = rng.randint(2, max(2, len(dataset)))
        symbols = list(dataset.universe) + extra
        half = len(symbols) // 2
        used = sorted({e for la in dataset.alloys for e in la.alloy.elements})
        certain = SimilarityStore.from_entries(
            {CombinationPair((a,), (b,)): (math.inf, 0.0) for a, b in combinations(used, 2)}
        )
        md = extract_all(dataset, ExtractionConfig(rng.uniform(0.01, 0.9), max_size))
        md_pairs = sorted(pair for pair, _ in md.items())

        def expert(names):
            # random weights on some of the md pairs over these elements, so they meet analogies
            return _expert_store(rng, names, [p for p in md_pairs if set(p.first + p.second) <= set(names)])

        pool = [
            md,
            SimilarityStore(),
            expert(symbols),
            expert(symbols[:half]),
            expert(symbols[half:]),  # holds the elements outside the universe
            certain,
        ]
        stores = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        outcomes = []
        for estimate in (estimate_reliability, estimate_reliability_reference):
            try:
                outcomes.append(estimate(stores, dataset, folds=folds, seed=case, max_subst_size=max_size))
            except (DegenerateDataset, TotalConflict) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], case
        seen["n_stores"].add(len(stores))
        seen["max_size"].add(max_size)
        seen["all_folds"] += folds == len(dataset)
        seen["empty"] += any(len(store) == 0 for store in stores)
        seen["disjoint"] += pool[3] in stores and pool[4] in stores and min(len(pool[3]), len(pool[4])) > 0
        seen["outside"] += any(set(store.elements) - set(dataset.universe) for store in stores)
        seen["outcomes"].add(outcomes[0] if isinstance(outcomes[0], type) else list)
    assert seen["n_stores"] == set(range(7)) and seen["max_size"] == {None, 1, 2, 3}
    assert seen["all_folds"] and seen["empty"] and seen["disjoint"] and seen["outside"]
    assert seen["outcomes"] == {list, DegenerateDataset, TotalConflict}


def test_total_conflict_matches_reference():
    pair = CombinationPair(("Fe",), ("Co",))
    other = CombinationPair(("Ni",), ("Co",))
    a = SimilarityStore.from_entries({pair: to_weights(1.0, 0.0, 0.0), other: to_weights(0.5, 0.0, 0.5)})
    b = SimilarityStore.from_entries({pair: to_weights(0.0, 1.0, 0.0)})
    stores = [("a", a), ("b", b)]
    gammas = {"a": 1.0, "b": 1.0}
    for reference in (fuse_reference, fuse_masses_reference):
        with pytest.raises(TotalConflict):
            reference(stores, gammas)
    with pytest.raises(TotalConflict, match=r"pair \(Co, Fe\)"):
        fuse(stores, [SourceReliability(sid, g) for sid, g in gammas.items()])
    # any discount leaves the certain masses a readout
    fuse(stores, [SourceReliability("a", 1.0), SourceReliability("b", 0.999)])


class TestContentHash:
    def test_independent_of_bit_and_insertion_order(self):
        ds = random_dataset(40, universe_size=12, seed=9)
        store = extract_all(ds, ExtractionConfig(alpha=0.2))
        reordered = Dataset(ds.name, ds.alloys, tuple(reversed(ds.universe)) + ("Lr",))
        other_bits = extract_all(reordered, ExtractionConfig(alpha=0.2))
        assert not np.array_equal(other_bits.keys, store.keys)
        entries = list(store.items())
        random.Random(1).shuffle(entries)
        inserted = SimilarityStore.from_entries(dict(entries))
        digest = store.content_hash()
        assert other_bits.content_hash() == digest
        assert inserted.content_hash() == digest
        assert store.reindexed(("Lr",) + ds.universe).content_hash() == digest

    def test_one_ulp_changes_it(self):
        ds = random_dataset(40, universe_size=12, seed=9)
        entries = dict(extract_all(ds, ExtractionConfig(alpha=0.2)).items())
        pair = sorted(entries)[len(entries) // 2]
        w_first, w_second = entries[pair]
        changed = dict(entries)
        changed[pair] = (float(np.nextafter(w_first, np.inf)), w_second)
        assert SimilarityStore.from_entries(changed).content_hash() != SimilarityStore.from_entries(entries).content_hash()

    def test_empty_stores_agree(self):
        ds = random_dataset(1, universe_size=5, seed=1)
        assert extract_all(ds, ExtractionConfig()).content_hash() == SimilarityStore().content_hash()
