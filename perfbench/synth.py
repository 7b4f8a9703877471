"""Seeded synthetic inputs for the benchmark.

Alloys are drawn from the equiatomic quaternary enumeration of an element
universe (E1: C(26,4) = 14,950 alloys; E2: C(21,4) = 5,985). The universe
is split into two planted groups (the first and second half of the preset
order) and an alloy is positive iff all its elements lie in one group, as
in the planted-group fixture of the test suite; a seeded share of the
training labels is then flipped as noise. Expert answers cover every
single-element pair in every domain, with per-domain error and "No" rates,
so the domains earn different reliabilities.

This module does not import the program under test: the program only ever
sees the files written here.

    python3 perfbench/synth.py --universe E1 --scale full --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import random
from itertools import combinations
from math import comb
from pathlib import Path

UNIVERSES: dict[str, tuple[str, ...]] = {
    "E1": (
        "Fe", "Co", "Ir", "Cu", "Ni", "Pt", "Pd", "Rh", "Au", "Ag",
        "Ru", "Os", "Si", "As", "Al", "Re", "Mn", "Ta", "Ti", "W",
        "Mo", "Cr", "V", "Hf", "Nb", "Zr",
    ),
    "E2": (
        "Fe", "Co", "Ir", "Cu", "Ni", "Pt", "Pd", "Rh", "Au", "Ag",
        "Ru", "Os", "Tc", "Re", "Mn", "Ta", "W", "Mo", "Cr", "V",
        "Nb",
    ),
}
ALLOY_SIZE = 4
LABEL_NOISE = 0.10

# (share of wrong ratings, share of "No" answers) per knowledge domain.
DOMAIN_ERRORS: dict[str, tuple[float, float]] = {
    "CorrosionScience": (0.30, 0.30),
    "MaterialsMechanics": (0.20, 0.20),
    "Metallurgy": (0.05, 0.10),
    "SolidStatePhysics": (0.15, 0.15),
    "MaterialsScience": (0.40, 0.25),
}


def groups(universe: str) -> tuple[frozenset[str], frozenset[str]]:
    symbols = UNIVERSES[universe]
    half = len(symbols) // 2
    return frozenset(symbols[:half]), frozenset(symbols[half:])


def held_out_elements(universe: str) -> tuple[str, ...]:
    """Three elements of each planted group: the first three and the last
    three of the preset order."""
    symbols = UNIVERSES[universe]
    return symbols[:3] + symbols[-3:]


def enumeration_size(universe: str) -> int:
    return comb(len(UNIVERSES[universe]), ALLOY_SIZE)


def planted_label(elements: tuple[str, ...], group_a: frozenset[str], group_b: frozenset[str]) -> bool:
    members = set(elements)
    return members <= group_a or members <= group_b


def sample_alloys(
    universe: str,
    sizes: list[int],
    seed: int,
    noisy: tuple[bool, ...] | None = None,
) -> list[list[tuple[tuple[str, ...], bool]]]:
    """Disjoint samples of the enumeration, one per requested size, with
    planted labels of which the seed flips LABEL_NOISE.

    The alloys are consecutive slices of one fixed shuffle of the
    enumeration, so only the labels depend on the seed. Noise models error
    in the training data: samples marked not noisy keep their planted
    labels, so held-out alloys are scored against the truth.
    """
    if sum(sizes) > enumeration_size(universe):
        raise ValueError(f"{sum(sizes)} alloys requested from {enumeration_size(universe)}")
    if noisy is None:
        noisy = (True,) * len(sizes)
    pool = list(combinations(UNIVERSES[universe], ALLOY_SIZE))
    random.Random(f"alloys:{universe}").shuffle(pool)
    rng = random.Random(f"labels:{universe}:{seed}")
    group_a, group_b = groups(universe)
    samples, start = [], 0
    for size, sample_noisy in zip(sizes, noisy):
        rows = []
        for elements in pool[start:start + size]:
            label = planted_label(elements, group_a, group_b)
            flip = rng.random() < LABEL_NOISE
            if flip and sample_noisy:
                label = not label
            rows.append((elements, label))
        samples.append(rows)
        start += size
    return samples


def planted_for(
    rows: list[tuple[tuple[str, ...], bool]], element: str, universe: str
) -> list[tuple[tuple[str, ...], bool]]:
    """The rows with every alloy that holds `element` relabelled by the
    planted groups: the input of a leave-one-element-out fold, whose
    training partition keeps the noise and whose held-out alloys carry the
    truth."""
    group_a, group_b = groups(universe)
    return [(elements, planted_label(elements, group_a, group_b) if element in elements else label)
            for elements, label in rows]


def expert_responses(universe: str, seed: int) -> list[tuple[str, str, str, str, str]]:
    """Rows element_a,element_b,domain,q1,q2 for every single-element pair
    in every domain. The true rating is High within a group and Low across."""
    rng = random.Random(f"responses:{universe}:{seed}")
    group_a, _ = groups(universe)
    rows = []
    for domain, (error_rate, no_rate) in DOMAIN_ERRORS.items():
        for a, b in combinations(UNIVERSES[universe], 2):
            if rng.random() < no_rate:
                rows.append((a, b, domain, "No", ""))
                continue
            truth = "High" if (a in group_a) == (b in group_a) else "Low"
            rating = truth
            if rng.random() < error_rate:
                rating = rng.choice(["Medium", "Low" if truth == "High" else "High"])
            rows.append((a, b, domain, "Yes", rating))
    return rows


def write_dataset(rows: list[tuple[tuple[str, ...], bool]], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["composition", "label"])
        for elements, label in rows:
            writer.writerow(["-".join(elements), int(label)])


def write_responses(rows: list[tuple[str, str, str, str, str]], path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element_a", "element_b", "domain", "q1", "q2"])
        writer.writerows(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--universe", choices=sorted(UNIVERSES), default="E1")
    parser.add_argument("--scale", choices=("half", "full"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    total = enumeration_size(args.universe)
    n = total if args.scale == "full" else total // 2
    args.out.mkdir(parents=True, exist_ok=True)
    (rows,) = sample_alloys(args.universe, [n], args.seed)
    write_dataset(rows, args.out / "dataset.csv")
    write_responses(expert_responses(args.universe, args.seed), args.out / "responses.csv")


if __name__ == "__main__":
    main()
