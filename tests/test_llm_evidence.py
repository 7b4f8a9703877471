"""Expert-response ingestion and the outcome-to-mass table."""

import pytest

from heafusion.belief import to_weights
from heafusion.errors import BetaOutOfRange, ParseError
from heafusion.llm_evidence import (
    DEFAULT_DOMAINS,
    LlmResponse,
    build_store,
    default_beta,
    generate_prompts,
    mass_from_response,
    parse_responses,
    write_prompts,
)
from heafusion.md_evidence import CombinationPair

from oracles import BinaryMass, mass_of, pairs_of


def pair(a="Cu", b="Ag"):
    return CombinationPair((a,), (b,))


class TestOutcomeTable:
    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.5])
    def test_all_rows_exact(self, beta):
        cases = [
            (LlmResponse(pair(), "Metallurgy", False, None), (0.0, 0.0, 1.0)),
            (LlmResponse(pair(), "Metallurgy", True, "High"), (beta, 0.0, 1.0 - beta)),
            (LlmResponse(pair(), "Metallurgy", True, "Medium"), (beta / 2, beta / 2, 1.0 - beta)),
            (LlmResponse(pair(), "Metallurgy", True, "Low"), (0.0, beta, 1.0 - beta)),
        ]
        for resp, expected in cases:
            assert mass_from_response(resp, beta) == expected

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_committed_mass_is_beta_when_yes(self, beta):
        for rating in ("High", "Medium", "Low"):
            m = BinaryMass(*mass_from_response(LlmResponse(pair(), "d", True, rating), beta))
            assert m.m_both == pytest.approx(1.0 - beta, abs=1e-15)
            assert m.m_first + m.m_second == pytest.approx(beta, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    def test_beta_range(self, beta):
        with pytest.raises(BetaOutOfRange):
            mass_from_response(LlmResponse(pair(), "d", False, None), beta)


class TestResponseInvariants:
    def test_rating_required_after_yes(self):
        with pytest.raises(ValueError):
            LlmResponse(pair(), "Metallurgy", True, None)

    def test_rating_forbidden_after_no(self):
        with pytest.raises(ValueError):
            LlmResponse(pair(), "Metallurgy", False, "High")

    def test_default_beta_matches_domain_count(self):
        assert default_beta() == pytest.approx(1.0 / len(DEFAULT_DOMAINS))
        assert default_beta() == pytest.approx(0.2)

    def test_default_beta_single_domain_stays_valid(self):
        assert default_beta(1) == 0.5
        assert mass_from_response(LlmResponse(pair(), "Metallurgy", True, "High"), default_beta(1)) == (0.5, 0.0, 0.5)


class TestPrompts:
    def test_one_record_per_pair_and_domain(self):
        records = generate_prompts([pair(), pair("Fe", "Ni")], list(DEFAULT_DOMAINS))
        assert len(records) == 10
        # pair-major, domain-minor ordering
        assert [r["domain"] for r in records[:5]] == list(DEFAULT_DOMAINS)
        assert records[0]["pair_a"] == "Ag" and records[0]["pair_b"] == "Cu"

    def test_question_two_names_the_ratings(self):
        records = generate_prompts([pair()], ["Metallurgy"])
        assert len(records) == 1
        assert "High, Medium, or Low" in records[0]["question2"]
        assert "Metallurgy" in records[0]["question1"]

    def test_empty_pairs(self):
        assert generate_prompts([], ["Metallurgy"]) == []

    def test_jsonl_output(self, tmp_path):
        path = tmp_path / "prompts.jsonl"
        write_prompts(generate_prompts([pair()], ["Metallurgy"]), path)
        import json

        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"pair_a", "pair_b", "domain", "question1", "question2"}


class TestParseResponses:
    def test_basic_rows(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text(
            "element_a,element_b,domain,q1,q2\n"
            "Cu,Ag,Metallurgy,Yes,High\n"
            "Cu,Ag,Metallurgy,No,\n"
        )
        got = parse_responses(f)
        assert got[0] == LlmResponse(pair("Cu", "Ag"), "Metallurgy", True, "High")
        assert got[1] == LlmResponse(pair("Cu", "Ag"), "Metallurgy", False, None)

    def test_rating_after_no_is_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("element_a,element_b,domain,q1,q2\nCu,Ag,Metallurgy,No,High\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_responses(f)

    def test_bad_rating(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("element_a,element_b,domain,q1,q2\nCu,Ag,Metallurgy,Yes,Maybe\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_responses(f)

    def test_columns_are_read_by_header_name(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("domain,q1,element_b,q2,element_a\nMetallurgy,Yes,Fe,High,Co\nMetallurgy,No,Ni,,Co\n")
        assert parse_responses(f) == [
            LlmResponse(pair("Co", "Fe"), "Metallurgy", True, "High"),
            LlmResponse(pair("Co", "Ni"), "Metallurgy", False, None),
        ]

    def test_missing_column_is_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("element_a,element_b,q1,q2\nCu,Ag,Yes,High\n")
        with pytest.raises(ParseError, match="domain") as info:
            parse_responses(f)
        assert info.value.row == 1

    @pytest.mark.parametrize("cells", ["Fe,Xx", "Xx,Fe", "Fe-Xx,Co", ",Fe"])
    def test_symbol_outside_element_table_is_rejected(self, tmp_path, cells):
        f = tmp_path / "r.csv"
        f.write_text(f"element_a,element_b,domain,q1,q2\nCu,Ag,Metallurgy,No,\n{cells},Metallurgy,Yes,High\n")
        with pytest.raises(ParseError, match="unknown element") as info:
            parse_responses(f)
        assert info.value.row == 3

    def test_multi_element_pair_warns(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("element_a,element_b,domain,q1,q2\nCu-Zn,Ag,Metallurgy,Yes,Low\n")
        with pytest.warns(UserWarning, match="multi-element"):
            got = parse_responses(f)
        assert got[0].pair == CombinationPair(("Cu", "Zn"), ("Ag",))


class TestBuildStore:
    def test_single_response(self):
        stores = build_store([LlmResponse(pair("Cu", "Ag"), "Metallurgy", True, "High")], 0.2)
        assert set(stores) == {"Metallurgy"}
        assert dict(stores["Metallurgy"].items())[pair("Ag", "Cu")] == to_weights(0.2, 0.0, 0.8)
        got = mass_of(stores["Metallurgy"], pair("Ag", "Cu"))
        assert got.as_tuple() == pytest.approx((0.2, 0.0, 0.8), abs=1e-15)

    def test_domains_stay_separate(self):
        responses = [
            LlmResponse(pair("Cu", "Ag"), "Metallurgy", True, "High"),
            LlmResponse(pair("Fe", "Ni"), "CorrosionScience", True, "Low"),
        ]
        stores = build_store(responses, 0.2)
        assert pair("Cu", "Ag") in pairs_of(stores["Metallurgy"])
        assert pair("Cu", "Ag") not in pairs_of(stores["CorrosionScience"])
        assert pair("Fe", "Ni") in pairs_of(stores["CorrosionScience"])

    def test_duplicate_rows_combine(self):
        resp = LlmResponse(pair(), "Metallurgy", True, "Low")
        stores = build_store([resp, resp], 0.2)
        got = mass_of(stores["Metallurgy"], pair())
        assert got.m_first == pytest.approx(0.0, abs=1e-15)
        assert got.m_second == pytest.approx(0.36, abs=1e-12)
        assert got.m_both == pytest.approx(0.64, abs=1e-12)
