"""The columnar store and the array kernels against the per-entry
reference implementations in `oracles`, with exact float equality."""

import random

import numpy as np
import pytest

from heafusion import Alloy, BinaryMass, Dataset, LabeledAlloy, SimilarityStore
from heafusion.alloys import ELEMENT_SYMBOLS, alloy_masks
from heafusion.errors import TotalConflict
from heafusion.fusion import SourceReliability, fuse
from heafusion.inference import predict_batch
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    extract_all,
    mass_from_counts,
    read_store,
    write_store,
)

from conftest import random_dataset
from oracles import fuse_reference, predict_reference, scan_partition

TABLE_SIZES = (3, 5, 9, 16, 26, 31, 32, 33, 47, 63, 64, 65, 80, 103)


def _subset(rng, symbols, low, high):
    return tuple(sorted(rng.sample(symbols, rng.randint(low, min(high, len(symbols))))))


def _random_mass(rng):
    a, b = rng.random(), rng.random()
    u = rng.random() + 1e-3  # keeps every mass off the certain corners
    total = a + b + u
    return BinaryMass(a / total, b / total, 1.0 - a / total - b / total)


def _expert_store(rng, symbols, shared_pairs):
    """Random single- and multi-element pairs over the symbols, plus some
    pairs the md store holds too."""
    entries = {}
    for pair in shared_pairs:
        if rng.random() < 0.5:
            entries[pair] = _random_mass(rng)
    for _ in range(rng.randint(0, 12)):
        sides = rng.sample(symbols, 2)
        first = [sides[0]] + ([rng.choice(symbols)] if rng.random() < 0.3 else [])
        second = [sides[1]]
        if set(first) & set(second) or len(set(first)) != len(first):
            continue
        entries[CombinationPair(first, second)] = _random_mass(rng)
    return SimilarityStore.from_entries(entries)


def _reference_extract(dataset, alpha, max_size):
    masks = alloy_masks((la.alloy for la in dataset.alloys), dataset.element_index())
    if max_size is None:
        max_size = max((len(la.alloy.elements) for la in dataset.alloys), default=2) - 1
    names = dataset.universe

    def side(mask):
        return [names[i] for i in range(mask.bit_length()) if mask >> i & 1]

    return {
        CombinationPair(side(lo), side(hi)): mass_from_counts(agree, disagree, alpha)
        for (lo, hi), (agree, disagree) in scan_partition(masks, dataset.labels(), max_size).items()
    }


def _reference_csv(entries):
    lines = ["combo_a,combo_b,m_similar,m_dissimilar,m_uncertain"]
    for pair in sorted(entries):
        m = entries[pair]
        lines.append(
            f"{'-'.join(pair.first)},{'-'.join(pair.second)},{m.m_first:.17g},{m.m_second:.17g},{m.m_both:.17g}"
        )
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


def test_total_conflict_matches_reference():
    pair = CombinationPair(("Fe",), ("Co",))
    other = CombinationPair(("Ni",), ("Co",))
    a = SimilarityStore.from_entries({pair: BinaryMass(1.0, 0.0, 0.0), other: BinaryMass(0.5, 0.0, 0.5)})
    b = SimilarityStore.from_entries({pair: BinaryMass(0.0, 1.0, 0.0)})
    stores = [("a", a), ("b", b)]
    gammas = {"a": 1.0, "b": 1.0}
    with pytest.raises(TotalConflict) as expected:
        fuse_reference(stores, gammas)
    with pytest.raises(TotalConflict) as got:
        fuse(stores, [SourceReliability(sid, g) for sid, g in gammas.items()])
    assert str(got.value) == str(expected.value)


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
        m = entries[pair]
        changed = dict(entries)
        changed[pair] = BinaryMass(float(np.nextafter(m.m_first, 1.0)), m.m_second, m.m_both)
        assert SimilarityStore.from_entries(changed).content_hash() != SimilarityStore.from_entries(entries).content_hash()

    def test_empty_stores_agree(self):
        ds = random_dataset(1, universe_size=5, seed=1)
        assert extract_all(ds, ExtractionConfig()).content_hash() == SimilarityStore().content_hash()
