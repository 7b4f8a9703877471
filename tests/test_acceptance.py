"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Expected values are frozen from the independent oracles
in oracles.py (exact rational Dempster folds, Mann-Whitney pair counting,
brute-force linkage), never from the implementation under test.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from heafusion import (
    Alloy,
    BinaryMass,
    Dataset,
    LabeledAlloy,
    UNIVERSES,
    SimilarityStore,
)
from heafusion.alloys import element_split, serialize_dataset
from heafusion.analysis import hac_complete
from heafusion.belief import discount_weights, from_weights, pignistic, to_weights
from heafusion.cli import main as cli_main
from heafusion.evaluation import SourcesConfig, _evaluate_split, run_extrapolation_experiment
from heafusion.inference import predict_batch, roc_auc
from heafusion.llm_evidence import LlmResponse, build_store, mass_from_response
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    counts_to_store,
    extract_all,
)

from conftest import (
    as_dataset,
    combine_weights as combine,
    planted_group_dataset,
    random_dataset,
    single_substitution_alloys,
)
from oracles import (
    alloy_masks,
    combine_exact,
    combine_stores,
    complete_linkage_oracle,
    count_table,
    mann_whitney_auc,
    masses_of,
    pairs_of,
    scan_partition,
)

# Exact oracle value for three agreeing + one disagreeing piece at 0.1:
# the similarity of the supplement's worked example.
ORACLE_MASS = combine_exact(
    [(Fraction(1, 10), 0, Fraction(9, 10))] * 3
    + [(0, Fraction(1, 10), Fraction(9, 10))]
)
assert ORACLE_MASS == (Fraction(271, 1081), Fraction(81, 1081), Fraction(729, 1081))


def report(n, name, t0):
    print(f"\nACCEPTANCE {n} ({name}): PASS in {time.perf_counter() - t0:.2f}s")


def test_criterion_1_supplement_fixture_exact_math():
    t0 = time.perf_counter()
    contexts = [("Li", "Be", "Na"), ("Mg", "K", "Ca"), ("Sc", "Ti", "V"), ("Cr", "Mn", "Fe")]
    dataset = as_dataset(
        single_substitution_alloys(contexts, ("Cu",), ("Zn",), [True, True, True, False])
    )
    store = extract_all(dataset, ExtractionConfig(alpha=0.1))
    mass = store.get(CombinationPair(("Cu",), ("Zn",)))
    for got, want in zip(mass.as_tuple(), ORACLE_MASS):
        assert got == pytest.approx(float(want), abs=1e-12)
    # paper-reported rounded triple agrees within 2e-3
    assert mass.m_first == pytest.approx(0.25, abs=2e-3)
    assert mass.m_second == pytest.approx(0.075, abs=2e-3)
    assert mass.m_both == pytest.approx(0.675, abs=2e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "supplement fixture, exact math", t0)


def test_criterion_2_supplement_pipeline_multi_element():
    t0 = time.perf_counter()
    contexts = [("Li", "Be"), ("Na", "Mg"), ("K", "Ca"), ("Sc", "Ti")]
    evidence_data = as_dataset(
        single_substitution_alloys(contexts, ("Cu",), ("Zn", "Ga"), [True, True, True, False])
    )
    store = extract_all(evidence_data, ExtractionConfig(alpha=0.1))
    s = float(ORACLE_MASS[0])
    assert store.similarity(CombinationPair(("Cu",), ("Zn", "Ga"))) == pytest.approx(s, abs=1e-9)

    observed_host = as_dataset([LabeledAlloy(Alloy(("Ag", "Cd", "In", "Cu")), True)])
    prediction = predict_batch([Alloy(("Ag", "Cd", "In", "Zn", "Ga"))], observed_host, store)[0]
    assert prediction.n_analogies == 1
    assert prediction.mass.m_first == pytest.approx(s, abs=1e-9)
    assert prediction.mass.m_second == pytest.approx(0.0, abs=1e-9)
    assert prediction.mass.m_both == pytest.approx(1.0 - s, abs=1e-9)
    report(2, "supplement pipeline, multi-element substitution", t0)


def test_criterion_3_outcome_table_exact():
    t0 = time.perf_counter()
    pair = CombinationPair(("Cu",), ("Ag",))
    for beta in (0.1, 0.2, 0.5):
        rows = [
            (LlmResponse(pair, "Metallurgy", False, None), (0.0, 0.0, 1.0)),
            (LlmResponse(pair, "Metallurgy", True, "High"), (beta, 0.0, 1.0 - beta)),
            (LlmResponse(pair, "Metallurgy", True, "Medium"), (beta / 2, beta / 2, 1.0 - beta)),
            (LlmResponse(pair, "Metallurgy", True, "Low"), (0.0, beta, 1.0 - beta)),
        ]
        for resp, expected in rows:
            assert mass_from_response(resp, beta) == BinaryMass(*expected)
    report(3, "expert outcome table exact for beta grid", t0)


def test_criterion_4_md_extrapolation_vacuity():
    t0 = time.perf_counter()
    dataset = random_dataset(2000, universe_size=18, k=4, seed=99, name="vacuity")
    assert len(dataset) == 2000
    element = dataset.universe[0]

    reports = run_extrapolation_experiment(
        dataset, SourcesConfig(md_alpha=0.1), elements=[element], seed=7
    )
    assert reports[0].auc == 0.5
    assert reports[0].roc == ((0.0, 0.0), (1.0, 1.0))  # a single tied score group

    # the same vacuity holds for any reliability, so the raw scores can be
    # checked on the cheaper fixed-gamma path
    training, test = element_split(dataset, element)
    scores, labels, _, _ = _evaluate_split(
        training, test, SourcesConfig(md_alpha=0.1, gamma_overrides={"md": 0.5}), seed=7
    )
    assert all(s == 0.5 for s in scores)
    auc, _ = roc_auc(labels, scores)
    assert auc == 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "dataset-evidence extrapolation vacuity", t0)


def _random_mass(rng, min_both=0.0):
    both = rng.uniform(min_both, 1.0)
    first = rng.uniform(0.0, 1.0 - both)
    second = 1.0 - both - first
    total = first + second + both
    return BinaryMass(first / total, max(second, 0.0) / total, both / total)


def _suite_combination(rng):
    for _ in range(1000):
        x = _random_mass(rng, 0.01)
        y = _random_mass(rng, 0.01)
        z = _random_mass(rng, 0.01)
        c = combine(x, y)
        assert abs(c.m_first + c.m_second + c.m_both - 1.0) <= 1e-12
        assert combine(y, x) == c
        left = combine(c, z)
        right = combine(x, combine(y, z))
        for g, w in zip(left.as_tuple(), right.as_tuple()):
            assert abs(g - w) <= 1e-12


def _suite_discount(rng):
    for _ in range(1000):
        w = to_weights(*_random_mass(rng).as_tuple())
        assert discount_weights(*w, 1.0) == w
        assert from_weights(*discount_weights(*w, 0.0)) == (0.0, 0.0, 1.0)


def _suite_pignistic(rng):
    for _ in range(1000):
        m = _random_mass(rng)
        p = pignistic(m)
        assert m.m_first - 1e-12 <= p <= m.m_first + m.m_both + 1e-12


def _label_flip_cases(seed):
    rng = random.Random(seed)
    ds = random_dataset(10, universe_size=8, k=3, seed=seed)
    taken = {la.alloy.elements for la in ds.alloys}
    candidates = [
        Alloy(e)
        for e in combinations(sorted(ds.universe), 3)
        if e not in taken
    ][:20]
    entries = {}
    for cand in candidates:
        for host in ds.alloys:
            ct = host.alloy.element_set - cand.element_set
            cv = cand.element_set - host.alloy.element_set
            if ct and cv and len(ct | cv) < 6 and rng.random() < 0.8:
                s = rng.uniform(0, 0.9)
                entries[CombinationPair(ct, cv)] = to_weights(s, 0.0, 1.0 - s)
    store = SimilarityStore.from_entries(entries)
    flipped = ds.with_alloys([LabeledAlloy(la.alloy, not la.label) for la in ds.alloys])
    return ds, flipped, store, candidates


def _suite_label_flip():
    checked = 0
    seed = 0
    while checked < 1000:
        ds, flipped, store, candidates = _label_flip_cases(seed)
        seed += 1
        base = predict_batch(candidates, ds, store)
        mirrored = predict_batch(candidates, flipped, store)
        for p, q in zip(base, mirrored):
            assert abs(q.mass.m_first - p.mass.m_second) <= 1e-12
            assert abs(q.mass.m_second - p.mass.m_first) <= 1e-12
            assert abs(q.mass.m_both - p.mass.m_both) <= 1e-12
            assert abs(q.score - (1.0 - p.score)) <= 1e-12
            checked += 1


def _suite_partition_independence():
    checked = 0
    seed = 0
    while checked < 1000:
        ds = random_dataset(40, universe_size=10, k=4, seed=seed, positive_rate=0.45)
        seed += 1
        index = ds.element_index()
        masks = alloy_masks((la.alloy for la in ds.alloys), index)
        labels = [la.label for la in ds.alloys]
        whole = extract_all(ds, ExtractionConfig(alpha=0.1))
        for parts in (2, 3, 5, 8):
            partials = [
                scan_partition(masks, labels, 3, parts, p) for p in range(parts)
            ]
            stores = [counts_to_store(count_table(c), 0.1, ds.bit_names) for c in partials]
            merged = combine_stores(stores)
            assert set(merged) == pairs_of(whole)
            for pair, mass in masses_of(whole).items():
                for g, w in zip(merged[pair].as_tuple(), mass.as_tuple()):
                    assert abs(g - w) <= 1e-12
            checked += 1


def _suite_auc_oracle(rng):
    grid = [0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]
    for _ in range(1000):
        n = rng.randint(4, 50)
        labels = [rng.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0] = not labels[0]
        scores = [rng.choice(grid) for _ in range(n)]
        auc, _ = roc_auc(labels, scores)
        assert abs(auc - mann_whitney_auc(labels, scores)) <= 1e-12


def test_criterion_5_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(12345)
    _suite_combination(rng)
    _suite_discount(rng)
    _suite_pignistic(rng)
    _suite_label_flip()
    _suite_partition_independence()
    _suite_auc_oracle(rng)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, "six property suites, 1000 cases each", t0)


def _synthetic21():
    """Frozen end-to-end fixture: 21-element universe, three planted
    substitutability groups of seven, label = all elements share a group."""
    universe = tuple(sorted(UNIVERSES["E2"]))
    groups = [universe[0:7], universe[7:14], universe[14:21]]
    group_of = {e: gi for gi, g in enumerate(groups) for e in g}
    pool = list(combinations(universe, 4))
    rng = random.Random(17)
    rng.shuffle(pool)
    pool = pool[:1200]
    alloys = tuple(
        LabeledAlloy(Alloy(e), len({group_of[x] for x in e}) == 1) for e in pool
    )
    dataset = Dataset("synthetic21", alloys, universe)
    responses = [
        LlmResponse(
            CombinationPair((a,), (b,)),
            "Metallurgy",
            True,
            "High" if group_of[a] == group_of[b] else "Low",
        )
        for a, b in combinations(universe, 2)
    ]
    stores = {f"llm:{d}": s for d, s in build_store(responses, 0.2).items()}
    return dataset, stores


def test_criterion_6_synthetic_end_to_end():
    t0 = time.perf_counter()
    dataset, llm_stores = _synthetic21()
    element = "Fe"
    multi = run_extrapolation_experiment(
        dataset, SourcesConfig(md_alpha=0.1, llm_stores=llm_stores), [element], seed=11
    )[0]
    llm_only = run_extrapolation_experiment(
        dataset, SourcesConfig(use_md=False, llm_stores=llm_stores), [element], seed=11
    )[0]
    md_only = run_extrapolation_experiment(
        dataset, SourcesConfig(md_alpha=0.1), [element], seed=11
    )[0]
    assert md_only.auc == 0.5
    assert multi.auc >= 0.9
    assert multi.auc >= max(md_only.auc, llm_only.auc) - 0.02
    report(6, "multi-source synthetic extrapolation", t0)


def test_criterion_7_desk_scale_table_shapes(tmp_path):
    """The published full-scale tables need the four source datasets and
    expert response files, which are not bundled; this checks that the
    evaluation commands emit per-job reports and mean/std summary tables in
    that shape when data IS supplied."""
    t0 = time.perf_counter()
    ds = planted_group_dataset(
        ("Fe", "Co", "Ni", "Mn"), ("Cu", "Ag", "Au", "Zn"), subsample=60, seed=31
    )
    data_csv = tmp_path / "toy.csv"
    serialize_dataset(ds, data_csv)
    out = tmp_path / "extrap"
    code = cli_main(
        ["eval-extrapolate", "--dataset", str(data_csv), "--elements", "Fe,Cu",
         "--sources", "md", "--gamma-folds", "3", "--seed", "3", "--out-dir", str(out)]
    )
    assert code == 0
    reports = json.loads((out / "reports.json").read_text())
    assert [r["key"] for r in reports] == ["element=Fe", "element=Cu"]
    summary = json.loads((out / "summary.json").read_text())
    for metric in ("accuracy", "accuracy_youden", "macro_f1", "auc"):
        assert set(summary[metric]) == {"mean", "std", "n"}
        assert summary[metric]["n"] == 2

    out_cv = tmp_path / "cv"
    code = cli_main(
        ["eval-cv", "--dataset", str(data_csv), "--fractions", "0.2,0.3",
         "--gamma-folds", "3", "--seed", "3", "--out-dir", str(out_cv)]
    )
    assert code == 0
    cv_reports = json.loads((out_cv / "reports.json").read_text())
    assert [r["key"] for r in cv_reports] == ["fraction=0.2", "fraction=0.3"]
    report(7, "metric tables in published shape at desk scale", t0)


def test_criterion_8_clustering_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        d = (m + m.T) / 2
        np.fill_diagonal(d, 0.0)
        got = hac_complete(d, tuple(f"L{i}" for i in range(n)))
        expected = complete_linkage_oracle(d.tolist())
        assert [(a, b, nid) for a, b, _, nid in got.merges] == [
            (a, b, nid) for a, b, _, nid in expected
        ]
        for (_, _, h_got, _), (_, _, h_want, _) in zip(got.merges, expected):
            assert h_got == pytest.approx(h_want, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, "complete-linkage merge sequence vs oracle", t0)
