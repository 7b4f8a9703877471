"""The columnar store and the array kernels against the per-entry
reference implementations in `oracles`, with exact float equality."""

import math
import random
from itertools import combinations

import numpy as np
import pytest

from heafusion import Alloy, Dataset, SimilarityStore, md_evidence
from heafusion.alloys import ELEMENT_SYMBOLS, UNIVERSES, element_words, fold_ids, key_width
from heafusion.belief import to_weights
from heafusion.errors import DegenerateDataset, TotalConflict
from heafusion.fusion import _cross_fold_weights, estimate_reliability, fuse
from heafusion.inference import analogy_weights, predict_batch
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    KeyTable,
    evidence_weight,
    extract_all,
    pack_keys,
    pair_counts,
    read_store,
    write_store,
)

from conftest import random_dataset
from oracles import (
    alloy_masks,
    content_hash_reference,
    estimate_reliability_reference,
    fuse_masses_reference,
    fuse_reference,
    masses_of,
    predict_reference,
    predicted_rows,
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
    masks = alloy_masks(dataset.alloys, dataset.element_index())
    if max_size is None:
        max_size = max((len(a.elements) for a in dataset.alloys), default=2) - 1
    names = dataset.bit_names
    weight = evidence_weight(alpha)

    def side(mask):
        return [names[i] for i in range(mask.bit_length()) if mask >> i & 1]

    return {
        CombinationPair(side(lo), side(hi)): (agree * weight, disagree * weight)
        for (lo, hi), (agree, disagree) in scan_partition(masks, dataset.labels.tolist(), max_size).items()
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
    rows = sorted(rows)
    labels = [rng.random() < 0.5 if single_class is None else single_class for _ in rows]
    dataset = Dataset("case", tuple(map(Alloy, rows)), labels, universe)
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
    seen = {"wide": 0, "extra_candidates": 0, "widened": 0, "outside_store": 0, "partial_keys": 0, "gammas": set()}
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
        fused = fuse(stores, gammas)
        assert dict(fused.items()) == fuse_reference(stores, gammas), case
        reference = fuse_masses_reference(stores, gammas)
        for pair, mass in masses_of(fused).items():
            assert mass.as_tuple() == pytest.approx(reference[pair].as_tuple(), abs=1e-12), case

        for store in (md, experts[0], fused):
            if not candidates:
                break
            got = predict_batch(candidates, dataset, store, max_subst_size=max_size)
            expected = predict_reference(candidates, dataset, store, max_size)
            assert predicted_rows(got) == expected, case

        seen["wide"] += len(dataset.universe) > 64
        seen["extra_candidates"] += any(set(c.elements) - set(dataset.universe) for c in candidates)
        # the candidates' extra elements add a mask word to the hosts' `Dataset.words`
        seen["widened"] += key_width(len(set(dataset.universe).union(*(c.elements for c in candidates)))) > \
            key_width(len(dataset.universe))
        seen["outside_store"] += any(set(s.elements) - set(dataset.universe) for s in experts)
        keys = [{p for p, _ in s.items()} for _, s in stores]
        seen["partial_keys"] += any(len(set.union(*keys)) > len(k) for k in keys if k)
        seen["gammas"].update(gammas.values())
    assert seen["wide"] and seen["extra_candidates"] and seen["widened"] and seen["outside_store"]
    assert seen["partial_keys"]
    assert {0.0, 1.0} <= seen["gammas"] and len(seen["gammas"]) > 2


def _largest_side(store, universe):
    """Most elements on one side of a key of the store over the universe."""
    return max((max(len(p.first), len(p.second)) for p, _ in store.reindexed(universe).items()), default=0)


def test_reliability_matches_reference():
    # all folds of all stores of a call are scored in one kernel pass per
    # side size; the reference scores the stores one at a time, one
    # predict_batch per fold
    rng = random.Random(777)
    seen = {"n_stores": set(), "max_size": set(), "all_folds": 0, "empty": 0, "disjoint": 0, "outside": 0,
            "outcomes": set(), "mixed_sizes": 0, "over_limit": 0, "none_inside": 0}
    for case in range(300):
        dataset, extra, _ = _case(rng, case)
        max_size = rng.choice([None, 1, 2, 3])
        folds = rng.randint(2, max(2, len(dataset)))
        symbols = list(dataset.universe) + extra
        half = len(symbols) // 2
        used = sorted({e for a in dataset.alloys for e in a.elements})
        certain = SimilarityStore.from_entries(
            {CombinationPair((a,), (b,)): (math.inf, 0.0) for a, b in combinations(used, 2)}
        )
        alpha = rng.uniform(0.01, 0.9)
        md = extract_all(dataset, ExtractionConfig(alpha, max_size))
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
            SimilarityStore.from_entries(  # every key names an element outside the universe
                {CombinationPair((x,), (e,)): _random_weights(rng) for x in extra[:1] for e in used[:3]}
            ),
            extract_all(dataset, ExtractionConfig(alpha)),  # keys of analogies beyond a set substitution limit
        ]
        stores = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        limit = max(len(a.elements) for a in dataset.alloys) - 1 if max_size is None else max_size
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
        sides = [_largest_side(store, dataset.universe) for store in stores]
        seen["mixed_sizes"] += len({min(side, limit) for side in sides} - {0}) > 1
        seen["over_limit"] += any(side > limit for side in sides)
        seen["none_inside"] += any(len(store) and not side for store, side in zip(stores, sides))
    assert seen["n_stores"] == set(range(7)) and seen["max_size"] == {None, 1, 2, 3}
    assert seen["all_folds"] and seen["empty"] and seen["disjoint"] and seen["outside"]
    assert seen["mixed_sizes"] and seen["over_limit"] and seen["none_inside"]
    assert seen["outcomes"] == {list, DegenerateDataset, TotalConflict}


def _layout_results(stores, training, candidates, path):
    """Everything a store's bit layout could leak into: the store hashes,
    the reliabilities, the fused store, predictions from every store and
    the store files."""
    ids = [f"s{i}" for i in range(len(stores))]
    gammas = estimate_reliability(stores, training, folds=5, seed=3)
    fused = fuse(list(zip(ids, stores)), dict(zip(ids, gammas)))
    predictions, files = [], []
    for store in (*stores, fused):
        got = predict_batch(candidates, training, store)
        predictions.append(predicted_rows(got))
        write_store(store, path)
        files.append(path.read_bytes())
    return [store.content_hash() for store in (*stores, fused)], gammas, predictions, files


@pytest.mark.parametrize("table", ["E1", "elements"])
def test_results_do_not_depend_on_bit_order(table, tmp_path):
    # each store keyed in the library's bit order (sorted symbols) and in
    # the universe's own order gives bit-identical results; the universes
    # are unsorted, and the element table's needs four key words
    rng = random.Random(2024)
    universe = UNIVERSES["E1"] if table == "E1" else ELEMENT_SYMBOLS
    symbols = list(universe) if table == "E1" else rng.sample(universe, 40)  # spread over every word
    rows = sorted({_subset(rng, symbols, 3, 4) for _ in range(220)})
    labels = [rng.random() < 0.5 for _ in rows]
    training = Dataset(table, tuple(map(Alloy, rows[:180])), labels[:180], universe)
    candidates = [Alloy(r) for r in rows[180:]]
    if table == "E1":  # a candidate naming an element outside the universe
        candidates.append(Alloy(rows[0][:2] + ("H",)))
    md = extract_all(training, ExtractionConfig(0.2))
    shared = rng.sample(sorted(pair for pair, _ in md.items()), 12)
    stores = [md] + [_expert_store(rng, symbols, shared) for _ in range(2)]
    in_universe_order = [store.reindexed(universe) for store in stores]
    assert md.elements == training.bit_names != universe
    assert not np.array_equal(in_universe_order[0].keys, md.keys)
    assert key_width(len(universe)) == (1 if table == "E1" else 4)
    assert (_layout_results(stores, training, candidates, tmp_path / "store.csv")
            == _layout_results(in_universe_order, training, candidates, tmp_path / "store.csv"))


def _small_blocks(patch, rng, n_rows):
    """Patch the pair generator's block constant so that every block holds
    one to three first rows."""
    patch.setattr(md_evidence, "_BLOCK_PAIRS", rng.randint(1, 3) * max(1, n_rows))


def test_triangle_pass_matches_per_fold_calls():
    # the γ estimate's one upper-triangle pass against one rectangle
    # kernel call per fold and group, byte for byte, both in blocks of a
    # few rows; groups of one and of three weight columns at mixed side
    # sizes, and leave-one-out folds (folds = n), over one- and multi-word
    # keys
    rng = random.Random(31)
    seen = {"leave_one_out": 0, "columns": set(), "mixed_sizes": 0, "partial_tables": 0, "empty_tables": 0,
            "universes": set()}
    for case in range(150):
        dataset, _, _ = _case(rng, case)
        if case % 5 >= 3:  # the E1 universe itself, or a dense dataset over a few of its symbols
            symbols = list(UNIVERSES["E1"]) if case % 5 == 4 else rng.sample(UNIVERSES["E1"], 8)
            rows = sorted({_subset(rng, symbols, 2, 5) for _ in range(rng.randint(2, 80))})
            dataset = Dataset("E1", tuple(map(Alloy, rows)), [rng.random() < 0.5 for _ in rows], UNIVERSES["E1"])
        if len(dataset) < 2:
            continue
        max_size = rng.choice([None, 1, 2, 3])
        limit = max(len(a.elements) for a in dataset.alloys) - 1 if max_size is None else max_size
        index = dataset.element_index()
        words = element_words((a.elements for a in dataset.alloys), index, key_width(len(index)))
        labels = dataset.labels
        md = extract_all(dataset, ExtractionConfig(rng.uniform(0.01, 0.9), max_size)).mask_view(index)
        groups, n_columns = [], 0
        for size in sorted(rng.sample(range(1, limit + 1), rng.randint(1, min(3, limit)))):
            k = rng.choice([1, 3])
            held = np.flatnonzero([rng.random() < 0.8 for _ in range(len(md.keys))])  # a table may lack keys
            if (case + size) % 7 == 0:  # or hold none
                held = held[:0]
            weights = np.random.default_rng(case).random((len(held), k))  # the order of a sum shows in its bits
            groups.append((size, list(range(n_columns, n_columns + k)), KeyTable(md.keys[held], weights)))
            n_columns += k
            seen["columns"].add(k)
            seen["partial_tables"] += len(held) < len(md.keys)
            seen["empty_tables"] += not len(held)
        folds = len(dataset) if case % 3 == 0 else rng.randint(2, len(dataset))
        fold_of = fold_ids(labels, folds, case)
        splits = [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(folds)]
        with pytest.MonkeyPatch.context() as patch:
            _small_blocks(patch, rng, len(dataset))
            w_pos, w_neg = _cross_fold_weights(words, labels, fold_of, groups, n_columns)
            _small_blocks(patch, rng, len(dataset))  # the rectangle's blocks of candidates, too
            for train, test in splits:
                for size, members, table in groups:
                    # the group's (keys, k) weights as a palette with one row per key
                    rows = KeyTable(table.keys, np.arange(len(table.keys)))
                    got = analogy_weights(
                        words[test], words[train], labels[train], rows, size, table.weights
                    )
                    for one_pass, per_fold in zip((w_pos, w_neg), got):
                        assert one_pass[np.ix_(test, members)].tobytes() == per_fold.tobytes(), case
        seen["leave_one_out"] += folds == len(dataset)
        seen["mixed_sizes"] += len(groups) > 1
        seen["universes"].add("E1" if dataset.universe == UNIVERSES["E1"] else len(dataset.universe))
    assert seen["leave_one_out"] and seen["mixed_sizes"] and seen["partial_tables"] and seen["empty_tables"]
    assert {"E1", len(ELEMENT_SYMBOLS)} <= seen["universes"]  # one key word and four
    assert seen["columns"] == {1, 3}


def test_pair_counts_do_not_depend_on_block_size():
    rng = random.Random(32)
    for case in range(60):
        dataset, _, _ = _case(rng, case)
        index = dataset.element_index()
        words = element_words((a.elements for a in dataset.alloys), index, key_width(len(index)))
        limit = rng.randint(1, 4)
        expected = pair_counts(words, dataset.labels, limit)
        with pytest.MonkeyPatch.context() as patch:
            _small_blocks(patch, rng, len(dataset))
            got = pair_counts(words, dataset.labels, limit)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), case


def test_running_table_merge_matches_one_merge():
    # with a merge batch of one to four pairs, pending pairs merge into a
    # non-empty count table again and again; the counts are those of one
    # merge byte for byte, for one-word keys and for keys over 32 symbols
    rng = random.Random(33)
    merge = md_evidence._merge
    into_table = {1: 0, 2: 0, 4: 0}  # key width -> merges of a batch into a non-empty table

    def counted(table, batch):
        if len(table[0]) and len(batch[0]):
            into_table[key_width(len(universe))] += 1
        return merge(table, batch)

    for case in range(60):
        universe = tuple(rng.sample(ELEMENT_SYMBOLS, rng.choice([9, 26, 47, 103])))
        rows = sorted({_subset(rng, universe, 2, 5) for _ in range(rng.randint(2, 60))})
        labels = [rng.random() < 0.5 for _ in rows]
        index = {e: i for i, e in enumerate(sorted(universe))}
        words = element_words(rows, index, key_width(len(index)))
        limit = rng.randint(1, 4)
        expected = pair_counts(words, labels, limit)
        with pytest.MonkeyPatch.context() as patch:
            _small_blocks(patch, rng, len(rows))
            patch.setattr(md_evidence, "_MERGE_ROWS", rng.randint(1, 4))
            patch.setattr(md_evidence, "_merge", counted)
            got = pair_counts(words, labels, limit)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), case
    assert min(into_table.values()) >= 10, into_table


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_key_table_find_matches_a_dict(width):
    # rows drawn from a few word values share prefixes; queries are
    # present and absent keys, at the table's width, wider (a non-zero
    # extra word is absent) and narrower (missing words read as 0)
    rng = np.random.default_rng(width)
    words = np.r_[np.uint64(0), np.uint64(2**64 - 1), rng.integers(1, 2**64 - 1, size=3, dtype=np.uint64)]
    seen = {"empty table": 0, "empty queries": 0, "found": 0, "absent": 0, "wider": 0}
    for case in range(60):
        n_rows, n_queries = (0 if case % 10 == 0 else int(rng.integers(1, 40)),
                             0 if case % 10 == 1 else int(rng.integers(1, 50)))
        rows = sorted({tuple(row) for row in rng.choice(words, size=(n_rows, width)).tolist()})
        keys = np.array(rows, dtype=np.uint64).reshape(-1, width)
        table = KeyTable(keys, np.arange(len(keys), dtype=float))
        position = {row: i for i, row in enumerate(rows)}
        q_width = int(rng.integers(1, width + 2))
        queries = rng.choice(words, size=(n_queries, q_width))
        queries[:, width:] *= rng.random((len(queries), 1)) < 0.3  # most wider queries end in zeros
        if len(keys) and q_width >= width:  # some queries are the table's own rows
            queries[::3, :width] = keys[rng.integers(0, len(keys), size=len(queries[::3]))]
        got, found = table.find(queries)
        assert got.shape == found.shape == (len(queries),)
        for row, p, f in zip(queries.tolist(), got.tolist(), found.tolist()):
            key = tuple(row[:width]) + (0,) * (width - len(row)) if not any(row[width:]) else None
            assert f == (key in position)
            if f:
                assert p == position[key]
            elif len(keys):
                assert 0 <= p < len(keys)
            seen["found" if f else "absent"] += 1
            seen["wider"] += f and q_width > width
        seen["empty table"] += not len(keys)
        seen["empty queries"] += not len(queries)
    assert min(seen.values()) > 0, seen



def _random_pair(rng, symbols):
    chosen = rng.sample(symbols, rng.randint(2, min(6, len(symbols))))
    cut = rng.randint(1, len(chosen) - 1)
    return CombinationPair(chosen[:cut], chosen[cut:])


def _key_row(pair, bit, width):
    """The store key row of a pair as Python ints, from its element names."""
    low, high = sorted(sum(1 << bit[e] for e in side) for side in (pair.first, pair.second))
    mask = (1 << 32) - 1
    return tuple((low >> 32 * w & mask) << 32 | high >> 32 * w & mask for w in range(width))


@pytest.mark.parametrize("n_symbols", [20, 60, 103])
def test_union_rows_match_a_dict(n_symbols):
    # stores over different element tuples share some pairs; some stores
    # are empty, some name their bits in another order, and some calls
    # take no store
    rng = random.Random(n_symbols)
    seen = {"no stores": 0, "empty store": 0, "shared key": 0, "other bit order": 0}
    widths = set()
    for case in range(40):
        symbols = rng.sample(ELEMENT_SYMBOLS, n_symbols)
        shared = [_random_pair(rng, symbols) for _ in range(8)]
        stores = []
        for _ in range(0 if case % 10 == 0 else rng.randint(1, 4)):
            pairs = [] if rng.random() < 0.15 else rng.sample(shared, rng.randint(0, len(shared)))
            pairs += [_random_pair(rng, symbols) for _ in range(rng.randint(0, 20) if pairs else 0)]
            held = {pair: _random_weights(rng) for pair in pairs}
            store = SimilarityStore.from_entries(held)
            if rng.random() < 0.3:  # a shuffled tuple, with elements no key uses
                store = store.reindexed(rng.sample(symbols, n_symbols))
                seen["other bit order"] += 1
            assert {pair for pair, _ in store.items()} == set(held)
            stores.append(store)
            seen["empty store"] += not held
        elements, keys, positions = md_evidence.union_rows(stores)
        assert elements == tuple(sorted({e for store in stores for e in store.elements}))
        bit = {e: i for i, e in enumerate(elements)}
        width = key_width(len(elements))
        rows = [[_key_row(pair, bit, width) for pair, _ in store.items()] for store in stores]
        distinct = sorted({row for store_rows in rows for row in store_rows})
        assert keys.dtype == np.uint64 and keys.shape == (len(distinct), width)
        assert list(map(tuple, keys.tolist())) == distinct
        at = {row: i for i, row in enumerate(distinct)}
        assert len(positions) == len(stores)
        for got, store_rows in zip(positions, rows):
            assert got.dtype == np.intp and got.tolist() == [at[row] for row in store_rows]
        seen["no stores"] += not stores
        seen["shared key"] += len(distinct) < sum(map(len, rows))
        widths.add(width)
    assert min(seen.values()) > 0 and key_width(n_symbols) in widths, (seen, widths)


def _store_over(entries, elements):
    """The store of the entries over the given elements, keyed in their
    bit order, built straight from the element names."""
    bit = {e: i for i, e in enumerate(elements)}
    width = key_width(len(elements))
    pairs = list(entries)
    keys = pack_keys(*(element_words([getattr(p, side) for p in pairs], bit, width) for side in ("first", "second")))
    order = np.lexsort(keys.T[::-1])
    weights = np.array([entries[p] for p in pairs], dtype=float).reshape(-1, 2)
    return SimilarityStore(tuple(elements), keys[order], weights[order, 0].copy(), weights[order, 1].copy())


def _counting(calls, name):
    original = getattr(md_evidence, name)
    return lambda *args: calls.append(name) or original(*args)


def _rekey(source, targets):
    """`source.reindexed(targets)` and whether it re-packed and sorted rows."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("pack_keys", "_row_order"):
            patch.setattr(md_evidence, name, _counting(calls, name))
        got = source.reindexed(targets)
    return got, "pack_keys" in calls, "_row_order" in calls


def _assert_direct_build(got, entries, targets):
    kept = {p: w for p, w in entries.items() if set(p.first + p.second) <= set(targets)}
    expected = _store_over(kept, targets)
    assert got.elements == expected.elements
    for column in ("keys", "w_first", "w_second"):
        assert getattr(got, column).tobytes() == getattr(expected, column).tobytes(), column
    assert got.content_hash() == SimilarityStore.from_entries(kept).content_hash()
    return kept


@pytest.mark.parametrize("kind", ["drop-used", "drop-unused", "shift-up", "shift-down", "no-kept-bit", "mixed",
                                  "reversed", "reversed-drop-used", "multi-word", "multi-word-in-place",
                                  "multi-word-shuffled"])
def test_rekey_matches_a_direct_build(kind):
    # a map strictly increasing on the kept bits keeps each row's smaller
    # side high, so it re-packs no row, and if it also leaves every bit in
    # its word, the rows stay sorted; any other map re-packs and sorts.
    # Every map must give the store built directly over the target elements
    rng = random.Random(kind)
    symbols = sorted(rng.sample(ELEMENT_SYMBOLS, 60 if kind.startswith("multi-word") else 20))
    used = symbols[:-4]  # the last four symbols are in the tuple, in no key
    entries = {}
    while len(entries) < 80:
        a, b = _subset(rng, used, 1, 3), _subset(rng, used, 1, 3)
        if not set(a) & set(b):
            entries[CombinationPair(a, b)] = _random_weights(rng)
    source = _store_over(entries, symbols)
    outside = sorted(set(ELEMENT_SYMBOLS) - set(symbols))
    targets = {
        "drop-used": [e for e in symbols if e != used[3]],
        "drop-unused": symbols[:-2],
        "shift-up": sorted(symbols + outside[:5]),
        "shift-down": symbols[6:],
        "no-kept-bit": outside[:8],
        "mixed": sorted(rng.sample(symbols, 12) + outside[:4]),
        "reversed": symbols[::-1],
        "reversed-drop-used": [e for e in symbols[::-1] if e != used[3]],
        "multi-word": [e for e in symbols if e != used[5]],  # bit 32 moves into word 0
        "multi-word-in-place": [e for e in symbols if e not in (used[-10], used[-3], symbols[-1])],  # top word only
        "multi-word-shuffled": rng.sample(symbols + outside[:10], len(symbols) + 10),
    }[kind]
    got, repacked, sorted_rows = _rekey(source, targets)
    repacks = kind in ("reversed", "reversed-drop-used", "multi-word-shuffled")
    assert (repacked, sorted_rows) == (repacks, repacks or kind == "multi-word")
    kept = _assert_direct_build(got, entries, targets)
    assert (len(kept) < len(entries)) == (kind in ("drop-used", "shift-down", "no-kept-bit", "mixed",
                                                    "reversed-drop-used", "multi-word", "multi-word-in-place"))


@pytest.mark.parametrize("kind", ["append", "drop-unused", "shift-up", "drop-used", "reversed"])
def test_rekeys_keeping_every_row_in_place_share_the_weight_columns(kind):
    # a map that keeps every row where it is (the identity on the source
    # bits, or one that drops unused bits or moves bits within their word)
    # gathers nothing: the re-keyed store's columns and the key table's
    # weights are views of the store's own columns. A map that drops a used
    # row or sorts the rows copies them. Either way the result is the store
    # built directly over the targets
    rng = random.Random(kind)
    symbols = sorted(rng.sample(ELEMENT_SYMBOLS, 20))
    used = symbols[:-4]
    entries = {}
    while len(entries) < 80:
        a, b = _subset(rng, used, 1, 3), _subset(rng, used, 1, 3)
        if not set(a) & set(b):
            entries[CombinationPair(a, b)] = _random_weights(rng)
    source = _store_over(entries, symbols)
    outside = sorted(set(ELEMENT_SYMBOLS) - set(symbols))
    targets = {
        "append": symbols + outside[:3],
        "drop-unused": symbols[:-2],
        "shift-up": sorted(symbols + outside[:5]),
        "drop-used": [e for e in symbols if e != used[3]],
        "reversed": symbols[::-1],
    }[kind]
    shared = kind in ("append", "drop-unused", "shift-up")
    got = source.reindexed(targets)
    _assert_direct_build(got, entries, targets)
    assert np.shares_memory(got.w_first, source.w_first) == np.shares_memory(got.w_second, source.w_second) == shared
    table = source.mask_view({e: i for i, e in enumerate(targets)})
    assert table.keys.tobytes() == got.keys.tobytes()
    assert table.weights.tobytes() == md_evidence.analogy_weight(got.w_first, got.w_second).tobytes()


def test_random_rekeys_match_a_direct_build():
    # seeded maps between one and four key words on each side: drops,
    # shifts from inserted symbols and shuffles, over random source bit
    # orders; each must give the store built directly over the targets
    rng = random.Random(15)
    seen = {"source_words": set(), "target_words": set(), "paths": set()}
    for case in range(240):
        symbols = rng.sample(ELEMENT_SYMBOLS, rng.randint(2, len(ELEMENT_SYMBOLS)))
        used = symbols[:max(2, len(symbols) - rng.randint(0, 4))]
        entries = {}
        for _ in range(rng.randint(0, 40)):
            a, b = _subset(rng, used, 1, 3), _subset(rng, used, 1, 3)
            if not set(a) & set(b):
                entries[CombinationPair(a, b)] = _random_weights(rng)
        source = _store_over(entries, symbols)
        outside = [e for e in ELEMENT_SYMBOLS if e not in symbols]
        mode = case % 4
        if mode == 0:  # append: the identity on every source bit
            targets = symbols + rng.sample(outside, rng.randint(0, len(outside)))
        elif mode == 1:  # drop bits of the top word only
            top = (len(symbols) - 1) // 32 * 32
            targets = symbols[:top] + [e for e in symbols[top:] if rng.random() < 0.7]
        else:  # drop, insert outside symbols, then shuffle in every other case
            targets = [e for e in symbols if rng.random() < rng.choice([0.5, 0.9, 1.0])]
            for e in rng.sample(outside, rng.randint(0, len(outside))):
                targets.insert(rng.randint(0, len(targets)), e)
            if mode == 3:
                rng.shuffle(targets)
        got, repacked, sorted_rows = _rekey(source, targets)
        _assert_direct_build(got, entries, targets)
        bits = [targets.index(e) if e in targets else -1 for e in symbols]
        kept = [(i, b) for i, b in enumerate(bits) if b >= 0]
        increasing = all(b < c for (_, b), (_, c) in zip(kept, kept[1:]))
        in_place = all(i // 32 == b // 32 for i, b in kept)
        assert (repacked, sorted_rows) == (not increasing, not (increasing and in_place)), case
        seen["source_words"].add(key_width(len(symbols)))
        seen["target_words"].add(key_width(len(targets)))
        seen["paths"].add("identity" if bits == list(range(len(bits))) else (increasing, in_place))
    assert seen["source_words"] == seen["target_words"] == {1, 2, 3, 4}
    assert seen["paths"] == {"identity", (True, True), (True, False), (False, False), (False, True)}


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
        fuse(stores, gammas)
    # any discount leaves the certain masses a readout
    fuse(stores, {"a": 1.0, "b": 0.999})


class TestContentHash:
    def test_independent_of_bit_and_insertion_order(self):
        ds = random_dataset(40, universe_size=12, seed=9)
        store = extract_all(ds, ExtractionConfig(alpha=0.2))
        reordered = Dataset(ds.name, ds.alloys, ds.labels, tuple(reversed(ds.universe)) + ("Lr",))
        other_bits = extract_all(reordered, ExtractionConfig(alpha=0.2))
        assert not np.array_equal(other_bits.keys, store.keys)
        entries = list(store.items())
        random.Random(1).shuffle(entries)
        inserted = SimilarityStore.from_entries(dict(entries))
        digest = store.content_hash()
        assert other_bits.content_hash() == digest
        assert inserted.content_hash() == digest
        assert store.reindexed(("Lr",) + ds.universe).content_hash() == digest

    @pytest.mark.parametrize("unused", [False, True])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "big-endian", "strided-big-endian"])
    def test_matches_a_tobytes_reference(self, layout, unused):
        # the digest reads the arrays' buffers: columns that are strided
        # views or big-endian digest as their little-endian bytes; a store
        # with an unused element hashes a re-keyed view of its columns
        ds = random_dataset(60, universe_size=40, seed=4)  # two key words
        store = extract_all(ds, ExtractionConfig(alpha=0.3))
        keys, columns = store.keys, (store.w_first, store.w_second)
        if layout.endswith("big-endian"):
            columns = tuple(column.astype(">f8") for column in columns)
        if layout.startswith("strided"):
            keys = np.repeat(keys, 2, axis=1)[:, ::2]
            columns = tuple(np.repeat(column, 2)[::2] for column in columns)
        elements = store.elements + (("Lr",) if unused else ())
        laid_out = SimilarityStore(elements, keys, *columns)
        contiguous = layout in ("contiguous", "big-endian")
        assert laid_out.keys.flags.c_contiguous == laid_out.w_first.flags.c_contiguous == contiguous
        assert (laid_out.w_second.dtype.byteorder == ">") == layout.endswith("big-endian")
        assert laid_out.content_hash() == content_hash_reference(laid_out) == store.content_hash()

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

    def test_computed_once_per_store(self, monkeypatch):
        ds = random_dataset(40, universe_size=12, seed=9)
        store = extract_all(ds, ExtractionConfig(alpha=0.2))
        assert store.reindexed(store.elements) is store
        assert store.reindexed(list(store.elements)) is store
        sha256, made = md_evidence.hashlib.sha256, []

        def counting(*args):
            made.append(args)
            return sha256(*args)

        monkeypatch.setattr(md_evidence.hashlib, "sha256", counting)
        digest = store.content_hash()
        assert store.content_hash() == digest and len(made) == 1
        fresh = SimilarityStore(store.elements, store.keys.copy(), store.w_first.copy(), store.w_second.copy())
        assert fresh.content_hash() == digest and len(made) == 2
