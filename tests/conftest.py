"""Shared fixtures: supplement-style worked datasets and synthetic generators."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from heafusion import Alloy, BinaryMass, Dataset, LabeledAlloy, SimilarityStore
from heafusion.md_evidence import CombinationPair

# Exact combined mass of three agreeing and one disagreeing piece at
# alpha = 0.1, from the exact-rational oracle (see oracles.combine_exact):
# (271/1081, 81/1081, 729/1081).
EXAMPLE_MASS = (Fraction(271, 1081), Fraction(81, 1081), Fraction(729, 1081))


@st.composite
def masses(draw, min_both: float = 0.0):
    """Valid BinaryMass triples drawn from the probability simplex."""
    both = draw(st.floats(min_value=min_both, max_value=1.0, allow_nan=False))
    first = draw(st.floats(min_value=0.0, max_value=max(0.0, 1.0 - both), allow_nan=False))
    second = 1.0 - both - first
    if second < 0.0:
        second = 0.0
    total = first + second + both
    return BinaryMass(first / total, second / total, both / total)


def single_substitution_alloys(
    contexts: list[tuple[str, ...]],
    left: tuple[str, ...],
    right: tuple[str, ...],
    right_labels: list[bool],
) -> list[LabeledAlloy]:
    """One alloy pair per context: (context+left, True) and
    (context+right, right_labels[i]); mirrors the supplement's worked
    evidence construction."""
    alloys = []
    for ctx, right_label in zip(contexts, right_labels):
        alloys.append(LabeledAlloy(Alloy(ctx + left), True))
        alloys.append(LabeledAlloy(Alloy(ctx + right), right_label))
    return alloys


def as_dataset(alloys: list[LabeledAlloy], name: str = "fixture") -> Dataset:
    universe = tuple(sorted({e for la in alloys for e in la.alloy.elements}))
    return Dataset(name, tuple(alloys), universe)


@pytest.fixture
def example1_dataset() -> Dataset:
    """Four alloy pairs over distinct contexts differing by Cu vs Zn;
    three pairs agree (both positive), the fourth disagrees."""
    contexts = [("Li", "Be", "Na"), ("Mg", "K", "Ca"), ("Sc", "Ti", "V"), ("Cr", "Mn", "Fe")]
    alloys = single_substitution_alloys(contexts, ("Cu",), ("Zn",), [True, True, True, False])
    return as_dataset(alloys, "example1")


@pytest.fixture
def example2_dataset() -> Dataset:
    """Size-3 vs size-4 pairs differing by Cu vs {Zn, Ga}."""
    contexts = [("Li", "Be"), ("Na", "Mg"), ("K", "Ca"), ("Sc", "Ti")]
    alloys = single_substitution_alloys(contexts, ("Cu",), ("Zn", "Ga"), [True, True, True, False])
    return as_dataset(alloys, "example2")


def random_dataset(
    n: int,
    universe_size: int = 12,
    k: int = 4,
    seed: int = 0,
    positive_rate: float = 0.4,
    name: str = "random",
) -> Dataset:
    """Random k-element alloys with independent random labels."""
    from heafusion.alloys import ELEMENT_SYMBOLS

    universe = ELEMENT_SYMBOLS[:universe_size]
    rng = random.Random(seed)
    pool = list(combinations(universe, k))
    rng.shuffle(pool)
    chosen = pool[: min(n, len(pool))]
    alloys = tuple(
        LabeledAlloy(Alloy(elems), rng.random() < positive_rate) for elems in chosen
    )
    return Dataset(name, alloys, tuple(universe))


def planted_group_dataset(
    group_a: tuple[str, ...],
    group_b: tuple[str, ...],
    k: int = 4,
    subsample: int | None = None,
    seed: int = 0,
    name: str = "planted",
) -> Dataset:
    """Alloys over two element groups; positive iff all elements share a
    group, so the label is exactly determined by group membership."""
    universe = tuple(sorted(group_a + group_b))
    group_a_set = set(group_a)
    group_b_set = set(group_b)
    pool = list(combinations(universe, k))
    if subsample is not None:
        rng = random.Random(seed)
        rng.shuffle(pool)
        pool = pool[:subsample]
    alloys = tuple(
        LabeledAlloy(Alloy(elems), set(elems) <= group_a_set or set(elems) <= group_b_set)
        for elems in pool
    )
    return Dataset(name, alloys, universe)


def dense_noisy_dataset() -> Dataset:
    """All 495 quaternary alloys over the first 12 E1 symbols, labelled by
    the planted groups (first six, last six) with 10% of labels flipped:
    dense enough that store similarities saturate toward 1."""
    from heafusion.alloys import UNIVERSES

    universe = UNIVERSES["E1"][:12]
    group_a, group_b = set(universe[:6]), set(universe[6:])
    rng = random.Random(0)
    alloys = []
    for elems in combinations(universe, 4):
        label = set(elems) <= group_a or set(elems) <= group_b
        alloys.append(LabeledAlloy(Alloy(elems), label != (rng.random() < 0.1)))
    return Dataset("dense", tuple(alloys), universe)


def planted_group_store(
    group_a: tuple[str, ...], group_b: tuple[str, ...], strength: float = 0.95
) -> SimilarityStore:
    """Single-element pairs within a group marked similar with the given
    strength; cross-group pairs marked dissimilar."""
    entries = {}
    universe = sorted(group_a + group_b)
    group_a_set = set(group_a)
    for x, y in combinations(universe, 2):
        same = (x in group_a_set) == (y in group_a_set)
        pair = CombinationPair((x,), (y,))
        if same:
            entries[pair] = BinaryMass(strength, 0.0, 1.0 - strength)
        else:
            entries[pair] = BinaryMass(0.0, strength, 1.0 - strength)
    return SimilarityStore.from_entries(entries)
