"""Expert-judgment evidence ingested from structured LLM response files.

Responses are never fetched live: prompts are generated for offline
querying and the normalized answers come back as CSV. Each (pair, domain)
answer maps to a substitutability mass with confidence weight beta; one
similarity store is built per knowledge domain so the fusion step can
weight domains independently.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .alloys import parse_symbols, read_blocks
from .belief import to_weights
from .errors import BetaOutOfRange, ParseError
from .md_evidence import CombinationPair, SimilarityStore

DEFAULT_DOMAINS: tuple[str, ...] = (
    "CorrosionScience",
    "MaterialsMechanics",
    "Metallurgy",
    "SolidStatePhysics",
    "MaterialsScience",
)

_Q1 = (
    "As an expert in {domain}, do you have sufficient knowledge or data to "
    "assess the substitutability of the element combination {a} with {b} in "
    "equiatomic alloys? Answer Yes or No."
)
_Q2 = (
    "If the answer to the first question is Yes, rate their substitutability "
    "as High, Medium, or Low."
)

_YES_NO = {"yes": True, "no": False}
_RATINGS = ("High", "Medium", "Low")
_COLUMNS = ("element_a", "element_b", "domain", "q1")  # required; q2 is optional


def default_beta(n_domains: int = len(DEFAULT_DOMAINS)) -> float:
    """Balanced confidence weight: one part per knowledge domain in use.

    Capped at 0.5 so a single-domain run stays inside the open (0, 1)
    interval the mass mapping requires.
    """
    return 1.0 / max(n_domains, 2)


@dataclass(frozen=True)
class LlmResponse:
    """One normalized answer: q1 is the knowledge gate, q2 the rating.

    q2 must be present exactly when q1 is Yes.
    """

    pair: CombinationPair
    domain: str
    q1: bool
    q2: str | None = None

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("domain must be non-empty")
        if self.q1 and self.q2 not in _RATINGS:
            raise ValueError(f"q1=Yes requires a rating in {_RATINGS}, got {self.q2!r}")
        if not self.q1 and self.q2 is not None:
            raise ValueError("q1=No forbids a rating")


def generate_prompts(
    pairs: Sequence[CombinationPair], domains: Sequence[str]
) -> list[dict[str, str]]:
    """One two-question prompt record per (pair, domain), pair-major order."""
    records = []
    for pair in pairs:
        a = "-".join(pair.first)
        b = "-".join(pair.second)
        for domain in domains:
            records.append(
                {
                    "pair_a": a,
                    "pair_b": b,
                    "domain": domain,
                    "question1": _Q1.format(domain=domain, a=a, b=b),
                    "question2": _Q2,
                }
            )
    return records


def write_prompts(records: Iterable[Mapping[str, str]], path: str | Path) -> None:
    """Write prompt records as JSON lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(dict(record), sort_keys=True) + "\n")


def parse_responses(path: str | Path) -> list[LlmResponse]:
    """Load responses from a CSV whose header names the columns element_a,
    element_b, domain, q1 and optionally q2, in any order.

    Combination cells hold hyphen-joined symbols from the element
    table; multi-element combinations are accepted with a warning since
    expert prompts normally cover single elements.
    """
    path = Path(path)
    responses: list[LlmResponse] = []
    for block in read_blocks(path, _COLUMNS, ("q2",)):
        for lineno, cell_a, cell_b, domain, q1_cell, q2_cell in zip(block.rows.tolist(), *block.columns):
            side_a = parse_symbols(cell_a, lineno)
            side_b = parse_symbols(cell_b, lineno)
            try:
                pair = CombinationPair(side_a, side_b)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if len(side_a) > 1 or len(side_b) > 1:
                warnings.warn(
                    f"{path}:{lineno}: multi-element combination pair {pair}",
                    stacklevel=2,
                )
            q1_text = q1_cell.strip().lower()
            if q1_text not in _YES_NO:
                raise ParseError(f"q1 must be Yes or No, got {q1_cell!r}", lineno)
            q2 = q2_cell.strip().capitalize() or None
            if q2 is not None and q2 not in _RATINGS:
                raise ParseError(f"q2 must be High, Medium, or Low, got {q2_cell!r}", lineno)
            try:
                responses.append(LlmResponse(pair, domain.strip(), _YES_NO[q1_text], q2))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    return responses


def mass_from_response(resp: LlmResponse, beta: float) -> tuple[float, float, float]:
    """Map an answer to its mass (m_similar, m_dissimilar, m_both): No is
    ignorance; High/Medium/Low commit beta toward similar, split, or
    dissimilar."""
    if not 0.0 < beta < 1.0:
        raise BetaOutOfRange(f"beta must lie in (0, 1), got {beta!r}")
    if not resp.q1:
        return (0.0, 0.0, 1.0)
    if resp.q2 == "High":
        return (beta, 0.0, 1.0 - beta)
    if resp.q2 == "Medium":
        return (beta / 2.0, beta / 2.0, 1.0 - beta)
    return (0.0, beta, 1.0 - beta)


def build_store(
    responses: Iterable[LlmResponse], beta: float
) -> dict[str, SimilarityStore]:
    """One similarity store per domain; repeated answers for the same pair
    within a domain are Dempster-combined: their weights of evidence are
    summed in file order."""
    responses = list(responses)
    masses = np.array([mass_from_response(resp, beta) for resp in responses]).reshape(-1, 3)
    by_domain: dict[str, dict[CombinationPair, list[float]]] = {}
    for resp, w_first, w_second in zip(responses, *(w.tolist() for w in to_weights(*masses.T))):
        held = by_domain.setdefault(resp.domain, {}).setdefault(resp.pair, [0.0, 0.0])
        held[0] += w_first
        held[1] += w_second
    return {domain: SimilarityStore.from_entries(entries) for domain, entries in by_domain.items()}
