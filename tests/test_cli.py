"""CLI subcommands: artifacts on disk, exit codes, reproducibility."""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heafusion import evaluation
from heafusion.cli import main
from heafusion.md_evidence import read_store

from conftest import as_dataset, mass_store, planted_group_dataset, random_dataset
from oracles import predict_reference

GROUP_A = ("Fe", "Co", "Ni", "Mn")
GROUP_B = ("Cu", "Ag", "Au", "Zn")


@pytest.fixture
def dataset_csv(tmp_path):
    from heafusion.alloys import serialize_dataset

    ds = random_dataset(80, universe_size=10, seed=30, name="toy")
    path = tmp_path / "toy.csv"
    serialize_dataset(ds, path)
    return path


@pytest.fixture
def planted_csv(tmp_path):
    from heafusion.alloys import serialize_dataset

    ds = planted_group_dataset(GROUP_A, GROUP_B, subsample=60, seed=31)
    path = tmp_path / "planted.csv"
    serialize_dataset(ds, path)
    return path


@pytest.fixture
def responses_csv(tmp_path):
    path = tmp_path / "responses.csv"
    rows = ["element_a,element_b,domain,q1,q2"]
    for group in (GROUP_A, GROUP_B):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                rows.append(f"{a},{b},Metallurgy,Yes,High")
    for a in GROUP_A:
        for b in GROUP_B:
            rows.append(f"{a},{b},Metallurgy,Yes,Low")
    path.write_text("\n".join(rows) + "\n")
    return path


def run(args):
    return main([str(a) for a in args])


def one_error(stderr):
    """The single JSON error object a failed run leaves on stderr."""
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    err = json.loads(lines[0])
    assert set(err) == {"error", "message", "exit_code", "command"}
    return err


def write_inputs(root, texts):
    """Each text written to root/<name>.csv; the paths by name."""
    paths = {name: root / f"{name}.csv" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    return paths


class TestExtract:
    def test_writes_store_and_metadata(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        code = run(["extract", "--dataset", dataset_csv, "--alpha", "0.2", "--out-dir", out])
        assert code == 0
        store = read_store(out / "md_store.csv")
        assert len(store) > 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["command"] == "extract"
        assert meta["config"]["alpha"] == 0.2
        assert meta["store_hash"] == store.content_hash()

    def test_reruns_are_bit_identical(self, tmp_path, dataset_csv):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["extract", "--dataset", dataset_csv, "--out-dir", out1])
        run(["extract", "--dataset", dataset_csv, "--out-dir", out2])
        assert (out1 / "md_store.csv").read_bytes() == (out2 / "md_store.csv").read_bytes()

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run(["extract", "--dataset", tmp_path / "nope.csv", "--out-dir", tmp_path]) == 2

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("composition,label\nFe-Fe,1\n")
        assert run(["extract", "--dataset", bad, "--out-dir", tmp_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["exit_code"] == 3


class TestPromptsAndIngest:
    def test_prompt_records(self, tmp_path):
        out = tmp_path / "run"
        code = run(["prompts", "--elements", "Cu,Ag,Au", "--domains", "Metallurgy", "--out-dir", out])
        assert code == 0
        lines = (out / "prompts.jsonl").read_text().splitlines()
        assert len(lines) == 3  # C(3,2) pairs x 1 domain
        record = json.loads(lines[0])
        assert "High, Medium, or Low" in record["question2"]

    def test_ingest_builds_domain_stores(self, tmp_path, responses_csv):
        out = tmp_path / "run"
        code = run(["ingest", "--responses", responses_csv, "--beta", "0.2", "--out-dir", out])
        assert code == 0
        store = read_store(out / "llm_Metallurgy.csv")
        assert len(store) == 28  # C(8,2) single-element pairs

    def test_ingest_reads_columns_by_name(self, tmp_path):
        responses = tmp_path / "responses.csv"
        responses.write_text("domain,element_a,element_b,q1,q2\nMetallurgy,Fe,Co,Yes,High\n")
        out = tmp_path / "run"
        assert run(["ingest", "--responses", responses, "--out-dir", out]) == 0
        assert sorted(p.name for p in out.glob("llm_*.csv")) == ["llm_Metallurgy.csv"]
        assert [str(pair) for pair, _ in read_store(out / "llm_Metallurgy.csv").items()] == ["(Co, Fe)"]

    def test_ingest_rejects_unknown_symbol(self, tmp_path, capsys):
        responses = tmp_path / "responses.csv"
        responses.write_text("element_a,element_b,domain,q1,q2\nFe,Xx,Metallurgy,Yes,High\n")
        assert run(["ingest", "--responses", responses, "--out-dir", tmp_path / "run"]) == 3
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "row 2" in err["message"] and "Xx" in err["message"]
        assert not list((tmp_path / "run").glob("llm_*.csv"))


class TestFuse:
    def test_explicit_gammas(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        run(["extract", "--dataset", dataset_csv, "--out-dir", out])
        code = run(
            ["fuse", "--store", f"md={out / 'md_store.csv'}", "--gamma", "md=0.75",
             "--seed", "1", "--out-dir", out]
        )
        assert code == 0
        gammas = json.loads((out / "fused_store.gammas.json").read_text())
        assert gammas == {"md": 0.75}

    def test_estimated_gamma_needs_dataset(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        run(["extract", "--dataset", dataset_csv, "--out-dir", out])
        code = run(
            ["fuse", "--store", f"md={out / 'md_store.csv'}", "--seed", "1", "--out-dir", out]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "assignments",
        [
            ["--store", "md={a}", "--store", "md={b}", "--gamma", "md=1"],
            ["--store", "md={a}", "--gamma", "md=1", "--gamma", "typo=0.5"],
            ["--store", "md={a}", "--gamma", "md=1", "--gamma", "md=0.5"],
        ],
        ids=["store-twice", "gamma-unknown", "gamma-twice"],
    )
    def test_dropped_assignment_is_config_error(self, tmp_path, capsys, assignments):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        header = "combo_a,combo_b,w_similar,w_dissimilar\n"
        a.write_text(header + "Cu,Zn,0.5,0\n")
        b.write_text(header + "Cu,Ni,0.5,0\n")
        args = [token.format(a=a, b=b) for token in assignments]
        assert run(["fuse", *args, "--seed", "1", "--out-dir", tmp_path / "run"]) == 2
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "run" / "fused_store.csv").exists()

    def test_zero_sources(self, tmp_path, capsys):
        assert run(["fuse", "--seed", "1", "--out-dir", tmp_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "EmptySourceList"

    def test_total_conflict_exit_code(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        header = "combo_a,combo_b,w_similar,w_dissimilar\n"
        a.write_text(header + "Cu,Zn,inf,0\n")
        b.write_text(header + "Cu,Zn,0,inf\n")
        code = run(
            ["fuse", "--store", f"x={a}", "--store", f"y={b}",
             "--gamma", "x=1.0", "--gamma", "y=1.0", "--seed", "1", "--out-dir", tmp_path]
        )
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "TotalConflict"

    def test_gamma_out_of_range_fails_before_stores_are_read(self, tmp_path, capsys):
        args = ["fuse", "--store", f"x={tmp_path / 'missing.csv'}", "--gamma", "x=1.5"]
        assert run(args + ["--seed", "1", "--out-dir", tmp_path / "run"]) == 2
        assert one_error(capsys.readouterr().err)["error"] == "GammaOutOfRange"
        assert not (tmp_path / "run").exists()

    def test_dataset_is_read_only_to_estimate_a_gamma(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        assert run(["extract", "--dataset", dataset_csv, "--out-dir", out]) == 0
        code = run(["fuse", "--store", f"md={out / 'md_store.csv'}", "--gamma", "md=1",
                    "--dataset", tmp_path / "missing.csv", "--seed", "1", "--out-dir", out])
        assert code == 0
        assert read_store(out / "fused_store.csv").content_hash() == read_store(out / "md_store.csv").content_hash()

    def test_mass_format_store_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "a.csv"
        store.write_text("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Zn,0.5,0,0.5\n")
        code = run(["fuse", "--store", f"md={store}", "--gamma", "md=1", "--seed", "1",
                    "--out-dir", tmp_path / "run"])
        assert code == 3
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "missing ['w_similar', 'w_dissimilar']" in err["message"]


class TestPredict:
    def test_batch_output_columns(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        run(["extract", "--dataset", dataset_csv, "--out-dir", out])
        from itertools import combinations

        from heafusion.alloys import Alloy, parse_dataset

        ds = parse_dataset(dataset_csv)
        taken = {a.elements for a in ds.alloys}
        free = next(
            Alloy(e) for e in combinations(sorted(ds.universe), 4) if e not in taken
        )
        cands = tmp_path / "candidates.csv"
        cands.write_text(f"composition\n{free.composition()}\n")
        code = run(
            ["predict", "--store", out / "md_store.csv", "--training", dataset_csv,
             "--candidates", cands, "--out-dir", out]
        )
        assert code == 0
        with (out / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "composition", "m_hea", "m_not_hea", "m_uncertain", "score", "label_at_0.5", "n_analogies"
        }
        assert int(rows[0]["n_analogies"]) >= 0
        total = (
            float(rows[0]["m_hea"]) + float(rows[0]["m_not_hea"]) + float(rows[0]["m_uncertain"])
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def expected_csv(candidates, training, store):
        """predictions.csv as csv.writer renders `predict_reference`."""
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["composition", "m_hea", "m_not_hea", "m_uncertain", "score", "label_at_0.5", "n_analogies"])
        for candidate, (mass, score, n) in zip(candidates, predict_reference(candidates, training, store)):
            writer.writerow([candidate.composition(), *(f"{m:.17g}" for m in mass), f"{score:.17g}", int(score > 0.5), n])
        return buf.getvalue().encode()

    def predict_bytes(self, tmp_path, candidates, training, store):
        """The predictions.csv of `predict` with candidates, training set and
        store written to files."""
        from heafusion.alloys import serialize_dataset
        from heafusion.md_evidence import write_store

        serialize_dataset(training, tmp_path / "training.csv")
        write_store(store, tmp_path / "store.csv")
        cands = tmp_path / "candidates.csv"
        cands.write_text("composition\n" + "".join(f"{c.composition()}\n" for c in candidates))
        code = run(
            ["predict", "--store", tmp_path / "store.csv", "--training", tmp_path / "training.csv",
             "--candidates", cands, "--out-dir", tmp_path / "out", "--jobs", 1]
        )
        assert code == 0
        return (tmp_path / "out" / "predictions.csv").read_bytes()

    def test_csv_bytes_match_the_reference(self, tmp_path):
        from heafusion.alloys import Alloy

        training = as_dataset([
            (Alloy(("Ag", "Cd", "In", "Cu")), True),
            (Alloy(("Ag", "Cd", "In", "Sn")), False),
            (Alloy(("Fe", "Co", "Ni", "Cr")), False),
        ])
        store = mass_store({
            (("Cu",), ("Zn",)): (1.0, 0.0, 0.0),  # certain: infinite weight on similar
            (("Sn",), ("Zn",)): (0.0, 0.0, 1.0),
            (("Cu",), ("Ga",)): (0.3, 0.1, 0.6),
            (("Sn",), ("Ga",)): (0.2, 0.05, 0.75),
            (("Cr",), ("Mn",)): (0.6, 0.0, 0.4),
        })
        candidates = [Alloy(e) for e in (
            ("Ag", "Cd", "In", "Zn"), ("Mo", "Nb", "Ta", "W"), ("Ag", "Cd", "In", "Ga"), ("Co", "Fe", "Mn", "Ni"),
        )]
        got = self.predict_bytes(tmp_path, candidates, training, store)
        assert got == self.expected_csv(candidates, training, store)
        rows = list(csv.reader(io.StringIO(got.decode())))[1:]
        assert rows[0][1:] == ["1", "0", "0", "1", "1", "2"]  # certain
        assert rows[1][1:] == ["0", "0", "1", "0.5", "0", "0"]  # vacuous, a tie labeled negative

    def test_csv_bytes_of_a_planted_store(self, tmp_path, planted_csv):
        from itertools import combinations

        from heafusion.alloys import Alloy, parse_dataset
        from heafusion.md_evidence import ExtractionConfig, extract_all

        training = parse_dataset(planted_csv)
        taken = {a.elements for a in training.alloys}
        candidates = [Alloy(e) for e in combinations(training.universe, 4) if Alloy(e).elements not in taken]
        store = extract_all(training, ExtractionConfig(0.1))
        got = self.predict_bytes(tmp_path, candidates, training, store)
        assert got == self.expected_csv(candidates, training, store)
        assert got.count(b"\r\n") == len(candidates) + 1 > 2

    def test_header_only_candidates_give_a_header_only_file(self, tmp_path, planted_csv):
        from heafusion.alloys import parse_dataset
        from heafusion.md_evidence import ExtractionConfig, extract_all

        training = parse_dataset(planted_csv)
        store = extract_all(training, ExtractionConfig(0.1))
        got = self.predict_bytes(tmp_path, [], training, store)
        assert got == self.expected_csv([], training, store)
        assert got == b"composition,m_hea,m_not_hea,m_uncertain,score,label_at_0.5,n_analogies\r\n"

    def test_pipeline_composition_matches_eval(self, tmp_path, planted_csv, responses_csv):
        """extract + ingest + fuse + predict equals the eval pipeline's
        intermediate artifacts on the same split."""
        from heafusion.alloys import element_split, parse_dataset, serialize_dataset

        ds = parse_dataset(planted_csv)
        training, test = element_split(ds, "Fe")
        train_csv = tmp_path / "train.csv"
        serialize_dataset(training, train_csv)
        out = tmp_path / "run"

        run(["extract", "--dataset", train_csv, "--alpha", "0.1", "--out-dir", out])
        run(["ingest", "--responses", responses_csv, "--beta", "0.2", "--out-dir", out])
        code = run(
            ["fuse",
             "--store", f"md={out / 'md_store.csv'}",
             "--store", f"llm:Metallurgy={out / 'llm_Metallurgy.csv'}",
             "--dataset", train_csv, "--folds", "3", "--seed", "9", "--out-dir", out]
        )
        assert code == 0
        cands = tmp_path / "cands.csv"
        cands.write_text("composition\n" + "\n".join(a.composition() for a in test.alloys) + "\n")
        run(
            ["predict", "--store", out / "fused_store.csv", "--training", train_csv,
             "--candidates", cands, "--out-dir", out]
        )

        from heafusion.evaluation import SourcesConfig, _evaluate_split
        from heafusion.llm_evidence import build_store, parse_responses

        llm_stores = {
            f"llm:{d}": s for d, s in build_store(parse_responses(responses_csv), 0.2).items()
        }
        sources = SourcesConfig(md_alpha=0.1, llm_stores=llm_stores, gamma_folds=3)
        scores, gammas, hashes = _evaluate_split(training, test, sources, seed=9)

        with (out / "predictions.csv").open() as fh:
            cli_scores = [float(r["score"]) for r in csv.DictReader(fh)]
        assert cli_scores == pytest.approx(scores, abs=1e-12)
        fused_cli = read_store(out / "fused_store.csv")
        assert fused_cli.content_hash() == hashes["fused"]


    def test_malformed_store_row_is_data_error(self, tmp_path, dataset_csv, capsys):
        store = tmp_path / "store.csv"
        store.write_text("combo_a,combo_b,w_similar,w_dissimilar\nFe,Co,0.5\n")
        cands = tmp_path / "candidates.csv"
        cands.write_text("composition\nH-He-Li-Be\n")
        code = run(
            ["predict", "--store", store, "--training", dataset_csv,
             "--candidates", cands, "--out-dir", tmp_path]
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ParseError"
        assert err["exit_code"] == 3
        assert "row 2" in err["message"]

    def test_unknown_candidate_element_is_data_error(self, tmp_path, dataset_csv, capsys):
        out = tmp_path / "run"
        run(["extract", "--dataset", dataset_csv, "--out-dir", out])
        cands = tmp_path / "candidates.csv"
        cands.write_text("composition\nFe-Co-Xx-Cr\n")
        code = run(
            ["predict", "--store", out / "md_store.csv", "--training", dataset_csv,
             "--candidates", cands, "--out-dir", out]
        )
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "row 2" in err["message"]
        assert "Xx" in err["message"]


class TestEvaluationCommands:
    def test_eval_extrapolate_md_only_vacuous(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        code = run(
            ["eval-extrapolate", "--dataset", dataset_csv, "--elements", "H",
             "--sources", "md", "--gamma-folds", "3", "--seed", "5", "--out-dir", out]
        )
        assert code == 0
        reports = json.loads((out / "reports.json").read_text())
        assert reports[0]["auc"] == 0.5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["auc"]["mean"] == 0.5

    def test_gamma_out_of_range_fails_before_any_work(self, tmp_path, dataset_csv, capsys):
        # the protocol would reject fraction 0 before it meets the gamma
        args = ["eval-cv", "--dataset", dataset_csv, "--fractions", "0", "--gamma", "md=1.5"]
        assert run(args + ["--seed", "5", "--out-dir", tmp_path / "run"]) == 2
        assert one_error(capsys.readouterr().err)["error"] == "GammaOutOfRange"
        assert not (tmp_path / "run").exists()

    def test_eval_cv_outputs(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        code = run(
            ["eval-cv", "--dataset", dataset_csv, "--fractions", "0.2",
             "--gamma-folds", "3", "--seed", "5", "--out-dir", out]
        )
        assert code == 0
        assert (out / "reports.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        roc_files = list(out.glob("roc_*.csv"))
        assert len(roc_files) == 1

    def test_seed_required(self, tmp_path, dataset_csv, capsys):
        code = run(["eval-cv", "--dataset", dataset_csv, "--fractions", "0.2", "--out-dir", tmp_path])
        assert code == 2
        assert "seed" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command", ["eval-cv", "eval-extrapolate"])
    @pytest.mark.parametrize(
        "gammas",
        [["md=1", "typo=0.5"], ["md=1", "md=0.5"], ["llm:Metallurgy=0.5"]],
        ids=["unknown", "twice", "source-not-selected"],
    )
    def test_dropped_gamma_is_config_error(self, tmp_path, dataset_csv, capsys, command, gammas):
        args = ["--fractions", "0.2"] if command == "eval-cv" else ["--elements", "H"]
        gamma_args = [arg for gamma in gammas for arg in ("--gamma", gamma)]
        code = run([command, "--dataset", dataset_csv, *args, "--sources", "md", *gamma_args,
                    "--gamma-folds", "3", "--seed", "5", "--out-dir", tmp_path / "run"])
        assert code == 2
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "run" / "reports.json").exists()

    @pytest.mark.parametrize("command,option", [
        ("eval-extrapolate", ["--elements", "H,H"]),
        ("eval-extrapolate", ["--elements", "H,Xx"]),
        ("eval-extrapolate", ["--elements", ","]),
        ("eval-cv", ["--fractions", "0.5,0.5"]),
        ("eval-cv", ["--fractions", ","]),
    ], ids=["repeated-element", "unknown-element", "no-element", "repeated-fraction", "no-fraction"])
    def test_element_and_fraction_lists_checked(self, tmp_path, dataset_csv, capsys, command, option):
        # each ran a fold twice, met ElementAbsent or ran nothing and exited 0
        code = run([command, "--dataset", dataset_csv, *option, "--gamma-folds", "3", "--seed", "5",
                    "--out-dir", tmp_path / "run"])
        assert code == 2
        err = one_error(capsys.readouterr().err)
        assert (err["error"], err["command"]) == ("ConfigError", command)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,option,error,code", [
        ("eval-cv", ["--fractions", "0.2,0.3,1.5"], "FractionOutOfRange", 2),
        ("eval-cv", ["--fractions", "0.2,0.005"], "FractionDegenerate", 2),
        ("eval-extrapolate", ["--elements", "H,He,Fe"], "ElementAbsent", 3),
    ], ids=["fraction-out-of-range", "fraction-degenerate", "element-absent"])
    def test_bad_split_fails_before_any_split_runs(self, tmp_path, dataset_csv, capsys, command, option,
                                                   error, code):
        # the good fractions or elements before the bad one each ran a split first
        with mock.patch.object(evaluation, "_evaluate_split", side_effect=evaluation._evaluate_split) as split:
            assert run([command, "--dataset", dataset_csv, *option, "--gamma-folds", "3", "--seed", "5",
                        "--out-dir", tmp_path / "run"]) == code
        assert split.call_count == 0
        err = one_error(capsys.readouterr().err)
        assert (err["error"], err["exit_code"], err["command"]) == (error, code, command)
        assert not (tmp_path / "run").exists()

    def test_eval_extrapolate_defaults_to_every_element(self, tmp_path, dataset_csv):
        # --elements all: one fold per universe symbol some alloy holds, in universe order
        out = tmp_path / "run"
        assert run(["eval-extrapolate", "--dataset", dataset_csv, "--gamma-folds", "3", "--seed", "5",
                    "--out-dir", out]) == 0
        with dataset_csv.open() as fh:
            held = {e for row in csv.DictReader(fh) for e in row["composition"].split("-")}
        reports = json.loads((out / "reports.json").read_text())
        assert [r["key"] for r in reports] == [f"element={e}" for e in sorted(held)]
        assert json.loads((out / "summary.json").read_text())["auc"]["n"] == len(held)

    def test_multi_source_eval(self, tmp_path, planted_csv, responses_csv):
        out = tmp_path / "run"
        code = run(
            ["eval-extrapolate", "--dataset", planted_csv, "--elements", "Fe",
             "--sources", "md,llm", "--responses", responses_csv, "--beta", "0.2",
             "--gamma-folds", "3", "--seed", "5", "--out-dir", out]
        )
        assert code == 0
        reports = json.loads((out / "reports.json").read_text())
        assert set(reports[0]["gammas"]) == {"md", "llm:Metallurgy"}
        assert reports[0]["auc"] >= 0.9


class TestEmptyLists:
    """An empty list option is a configuration error, as an empty
    --fractions is, whether it comes from the command line or --config;
    each of these ran the default grid or the whole universe and exited 0."""

    COMMANDS = {
        "tune-grid": (["tune-alpha", "--dataset", "{data}", "--folds", "3", "--repeats", "1", "--seed", "1"],
                      "grid"),
        "cluster-elements": (["cluster", "--store", "{store}", "--universe", "E2"], "elements"),
        "prompts-elements": (["prompts", "--universe", "E2"], "elements"),
        "distances-elements": (["export-distances", "--store", "{store}", "--universe", "E2"], "elements"),
        "prompts-domains": (["prompts", "--universe", "E2"], "domains"),
    }

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["", " ", " , "], ids=["empty", "blank", "commas"])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_is_config_error(self, tmp_path, dataset_csv, capsys, name, value, via):
        argv, key = self.COMMANDS[name]
        store = tmp_path / "store.csv"
        store.write_text("combo_a,combo_b,w_similar,w_dissimilar\nFe,Co,0.5,0\n")
        args = [a.format(data=dataset_csv, store=store) for a in argv] + ["--jobs", "1", "--out-dir", tmp_path / "run"]
        assert run(args) == 0  # valid without the option
        shutil.rmtree(tmp_path / "run")
        if via == "flag":
            args += [f"--{key}={value}"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))
            args += ["--config", config]
        assert run(args) == 2
        err = one_error(capsys.readouterr().err)
        assert (err["error"], err["command"]) == ("ConfigError", argv[0])
        assert f"--{key}" in err["message"]
        assert not (tmp_path / "run").exists()


class TestExpertSourceWithoutStores:
    @pytest.mark.parametrize("command,option", [("eval-cv", ["--fractions", "0.3"]),
                                                ("eval-extrapolate", ["--elements", "H"])])
    def test_header_only_responses_are_an_empty_source_list(self, tmp_path, dataset_csv, capsys, command, option):
        # llm named among the sources with no expert store used to run md alone and exit 0
        responses = tmp_path / "responses.csv"
        responses.write_text("element_a,element_b,domain,q1,q2\n")
        code = run([command, "--dataset", dataset_csv, *option, "--sources", "md,llm", "--responses", responses,
                    "--gamma-folds", "3", "--seed", "5", "--out-dir", tmp_path / "run"])
        assert code == 2
        err = one_error(capsys.readouterr().err)
        assert (err["error"], err["command"]) == ("EmptySourceList", command)
        assert str(responses) in err["message"]
        assert not (tmp_path / "run").exists()


class TestTuneAlpha:
    def test_singleton_grid(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        code = run(
            ["tune-alpha", "--dataset", dataset_csv, "--grid", "0.1", "--folds", "3",
             "--repeats", "1", "--seed", "2", "--out-dir", out]
        )
        assert code == 0
        assert json.loads((out / "alpha.json").read_text())["alpha"] == 0.1

    def test_metadata_lists_every_alpha_score(self, tmp_path, planted_csv):
        from heafusion.alloys import parse_dataset
        from heafusion.evaluation import grid_search_alpha

        out = tmp_path / "run"
        code = run(["tune-alpha", "--dataset", planted_csv, "--grid", "0.3,0.02,0.3,0.1", "--folds", "3",
                    "--repeats", "2", "--seed", "4", "--out-dir", out])
        assert code == 0
        alpha = json.loads((out / "alpha.json").read_text())["alpha"]
        # alpha.json keeps its form: the choice and the grid as given
        assert (out / "alpha.json").read_text() == json.dumps(
            {"alpha": alpha, "grid": [0.3, 0.02, 0.3, 0.1]}, indent=2) + "\n"
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["alpha"] == alpha
        expected: dict[float, float] = {}
        assert grid_search_alpha(parse_dataset(planted_csv), [0.3, 0.02, 0.1], 3, 2, 4, scores=expected) == alpha
        assert meta["alpha_scores"] == [{"alpha": a, "mean_macro_f1": s} for a, s in expected.items()]
        assert [row["alpha"] for row in meta["alpha_scores"]] == [0.02, 0.1, 0.3]
        best = max(row["mean_macro_f1"] for row in meta["alpha_scores"])
        assert alpha == next(row["alpha"] for row in meta["alpha_scores"] if row["mean_macro_f1"] == best)

    def test_tie_ignores_grid_order_and_repeats(self, tmp_path):
        data = tmp_path / "toy.csv"
        data.write_text("composition,label\nCo-Ni-Cr,1\nNi-Cr-Mn,0\nFe-Co-Ni,1\n"
                        "Fe-Co-Mn,1\nFe-Ni-Mn,0\nFe-Ni-Cr,0\n")
        for grid in ("0.3,0.05", "0.05,0.3", "0.45,0.05,0.45"):
            out = tmp_path / grid
            code = run(["tune-alpha", "--dataset", data, "--grid", grid, "--folds", "2",
                        "--repeats", "1", "--seed", "1", "--out-dir", out])
            assert code == 0
            assert json.loads((out / "alpha.json").read_text())["alpha"] == 0.05, grid


class TestCountOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tune-alpha", "--dataset", "{data}", "--grid", "0.1", "--folds", "3", "--seed", "1", "--repeats", "0"],
            ["eval-cv", "--dataset", "{data}", "--fractions", "0.2", "--gamma-folds", "3", "--seed", "1",
             "--repeats", "0"],
            ["predict", "--store", "{store}", "--training", "{data}", "--enumerate", "4", "--max-subst-size", "0"],
            ["predict", "--store", "{store}", "--training", "{data}", "--enumerate", "4", "--max-subst-size", "-1"],
            ["tune-alpha", "--dataset", "{data}", "--grid", "0.01,0.1", "--folds", "3", "--repeats", "1",
             "--seed", "1", "--max-subst-size", "0"],
            ["eval-extrapolate", "--dataset", "{data}", "--elements", "H", "--seed", "1", "--gamma-folds", "0"],
            ["eval-extrapolate", "--dataset", "{data}", "--elements", "H", "--seed", "1", "--gamma-folds", "1"],
            ["fuse", "--store", "md={store}", "--dataset", "{data}", "--seed", "1", "--folds", "1"],
            ["tune-alpha", "--dataset", "{data}", "--grid", "0.1", "--seed", "1", "--folds", "1"],
        ],
        ids=["tune-repeats", "cv-repeats", "predict-size-0", "predict-size-neg", "tune-size",
             "gamma-folds-0", "gamma-folds-1", "fuse-folds-1", "tune-folds-1"],
    )
    def test_count_below_minimum_is_config_error(self, tmp_path, dataset_csv, capsys, argv):
        """Each argv is valid but for its last option."""
        store = tmp_path / "store.csv"
        store.write_text("combo_a,combo_b,w_similar,w_dissimilar\nH,He,0.5,0\n")
        args = [a.format(data=dataset_csv, store=store) for a in argv]
        assert run(args + ["--jobs", "1", "--out-dir", tmp_path / "run"]) == 2
        err = one_error(capsys.readouterr().err)
        assert err["exit_code"] == 2
        assert err["command"] == argv[0]
        assert f"argument {argv[-2]}:" in err["message"]
        assert run(args[:-2] + ["--jobs", "1", "--out-dir", tmp_path / "run"]) == 0

    @pytest.mark.parametrize("argv", [
        ["extract", "--dataset", "{data}"],
        ["fuse", "--store", "md={store}", "--store", "llm={llm}", "--dataset", "{data}", "--folds", "3",
         "--seed", "1"],
        ["predict", "--store", "{store}", "--training", "{data}", "--enumerate", "4"],
        ["tune-alpha", "--dataset", "{data}", "--grid", "0.02,0.1,0.3", "--folds", "3", "--repeats", "2",
         "--seed", "1"],
        ["eval-cv", "--dataset", "{data}", "--fractions", "0.3,0.5", "--sources", "md,llm",
         "--responses", "{responses}", "--gamma-folds", "3", "--seed", "1"],
        ["eval-extrapolate", "--dataset", "{data}", "--elements", "Fe,Cu", "--sources", "md,llm",
         "--responses", "{responses}", "--gamma-folds", "3", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_jobs_leave_outputs_unchanged(self, tmp_path, planted_csv, responses_csv, argv):
        """--jobs is accepted and has no effect: every output but the run
        metadata, which echoes the option, is the same to the byte."""
        inputs = tmp_path / "inputs"
        assert run(["extract", "--dataset", planted_csv, "--out-dir", inputs]) == 0
        assert run(["ingest", "--responses", responses_csv, "--out-dir", inputs]) == 0
        (llm,) = inputs.glob("llm_*.csv")
        paths = {"data": planted_csv, "store": inputs / "md_store.csv", "llm": llm, "responses": responses_csv}
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert run([a.format(**paths) for a in argv] + ["--jobs", jobs, "--out-dir", out]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "run_metadata.json"})
        assert outputs[0] and outputs[0] == outputs[1]


class TestClusterAndDistances:
    def test_cluster_outputs(self, tmp_path, planted_csv):
        out = tmp_path / "run"
        run(["extract", "--dataset", planted_csv, "--out-dir", out])
        code = run(
            ["cluster", "--store", out / "md_store.csv",
             "--elements", ",".join(GROUP_A + GROUP_B), "--out-dir", out]
        )
        assert code == 0
        dendro = json.loads((out / "dendrogram.json").read_text())
        assert len(dendro["merges"]) == 7
        assert (out / "dendrogram.newick").read_text().strip().endswith(";")

    def test_distance_exports(self, tmp_path, planted_csv):
        out = tmp_path / "run"
        run(["extract", "--dataset", planted_csv, "--out-dir", out])
        code = run(
            ["export-distances", "--store", out / "md_store.csv",
             "--elements", ",".join(GROUP_A + GROUP_B), "--alloys", planted_csv,
             "--out-dir", out]
        )
        assert code == 0
        assert (out / "element_distances.csv").exists()
        assert (out / "hybrid_distances.csv").exists()


# arguments of one run of each subcommand; {name} stands for an input file
REPLAYS = {
    "extract": ["--dataset", "{planted}", "--alpha", "0.17", "--max-subst-size", "2"],
    "prompts": ["--elements", "Cu,Ag,Au", "--domains", "Metallurgy,Chemistry"],
    "ingest": ["--responses", "{responses}", "--beta", "0.2"],
    "fuse": ["--store", "md={store}", "--store", "llm:Metallurgy={llm}", "--gamma", "md=0.75",
             "--dataset", "{planted}", "--folds", "3", "--seed", "4"],
    "predict": ["--store", "{store}", "--training", "{planted}", "--enumerate", "4"],
    "eval-cv": ["--dataset", "{planted}", "--fractions", "0.5", "--gamma-folds", "3", "--unstratified",
                "--sources", "md,llm", "--responses", "{responses}", "--gamma", "llm:Metallurgy=0.5", "--seed", "5"],
    "eval-extrapolate": ["--dataset", "{planted}", "--elements", "Fe", "--gamma-folds", "3", "--seed", "5"],
    "tune-alpha": ["--dataset", "{planted}", "--grid", "0.05,0.2", "--folds", "3", "--repeats", "1", "--seed", "2"],
    "cluster": ["--store", "{store}", "--elements", ",".join(GROUP_A + GROUP_B)],
    "export-distances": ["--store", "{store}", "--elements", "Fe,Co,Cu", "--alloys", "{planted}"],
}


class TestConfigFile:
    def test_abbreviated_flag_is_rejected(self, tmp_path, dataset_csv, capsys):
        """An abbreviation would escape the flags-win-over-config rule."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.3}))
        out = tmp_path / "run"
        code = run(["extract", "--alph", "0.2", "--config", config, "--dataset", dataset_csv,
                    "--out-dir", out])
        assert code == 2
        err = one_error(capsys.readouterr().err)
        assert err["command"] == "extract"
        assert "--alph" in err["message"]
        assert not out.exists()

    def test_unknown_flag_names_the_subcommand(self, capsys):
        assert run(["extract", "--dataset", "d.csv", "--bogus"]) == 2
        err = one_error(capsys.readouterr().err)
        assert err["command"] == "extract"
        assert "--bogus" in err["message"]

    def test_config_supplies_defaults_flags_win(self, tmp_path, dataset_csv):
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dataset": str(dataset_csv), "alpha": 0.3}))
        code = run(
            ["extract", "--config", config, "--alpha", "0.2", "--dataset", dataset_csv,
             "--out-dir", out]
        )
        assert code == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["config"]["alpha"] == 0.2  # flag beats config

    def test_unknown_config_key(self, tmp_path, dataset_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_such_option": 1}))
        code = run(["extract", "--config", config, "--dataset", dataset_csv, "--out-dir", tmp_path])
        assert code == 2

    def test_string_value_goes_through_the_option_type(self, tmp_path, dataset_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "0.1"}))
        assert run(["extract", "--config", config, "--dataset", dataset_csv, "--out-dir", tmp_path / "a"]) == 0
        assert run(["extract", "--alpha", "0.1", "--dataset", dataset_csv, "--out-dir", tmp_path / "b"]) == 0
        meta = json.loads((tmp_path / "a" / "run_metadata.json").read_text())
        assert meta["config"]["alpha"] == 0.1
        assert (tmp_path / "a" / "md_store.csv").read_bytes() == (tmp_path / "b" / "md_store.csv").read_bytes()

    @pytest.mark.parametrize(
        "config",
        [{"alpha": "x"}, {"jobs": 0}, {"max_subst_size": 2.5}, {"unstratified": 1}, {"max_subst_size": 0},
         {"alpha": {"x": 1}}, {"alpha": False}, {"alpha": [0.1, 0.2]}, {"out": True}, {"help": True},
         {"universe": "X9"}, {"seed": 1}, {"no_such_option": None}, {"out": "a\0b"}],
    )
    def test_bad_value_is_config_error(self, tmp_path, dataset_csv, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        command = ["eval-cv", "--seed", "1"] if "unstratified" in config else ["extract"]
        code = run([*command, "--config", path, "--dataset", dataset_csv, "--out-dir", tmp_path])
        assert code == 2
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2
        (key,) = config
        assert key.replace("_", "-") in err["message"].replace("_", "-")

    def test_null_leaves_the_default(self, tmp_path, dataset_csv):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_subst_size": None, "universe": None}))
        assert run(["extract", "--config", config, "--dataset", dataset_csv, "--out-dir", tmp_path / "a"]) == 0
        assert run(["extract", "--dataset", dataset_csv, "--out-dir", tmp_path / "b"]) == 0
        assert (tmp_path / "a" / "md_store.csv").read_bytes() == (tmp_path / "b" / "md_store.csv").read_bytes()

    def test_jobs_below_one_rejected_on_command_line(self, tmp_path, dataset_csv, capsys):
        assert run(["extract", "--dataset", dataset_csv, "--jobs", "0", "--out-dir", tmp_path]) == 2
        assert "argument --jobs:" in one_error(capsys.readouterr().err)["message"]

    def test_flags_replace_a_repeatable_config_key(self, tmp_path):
        store = tmp_path / "a.csv"
        store.write_text("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.5,0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"store": [f"md={store}"], "gamma": ["md=0.5"], "seed": 1}))
        out = tmp_path / "run"
        assert run(["fuse", "--config", config, "--gamma", "md=0.75", "--out-dir", out]) == 0
        assert json.loads((out / "fused_store.gammas.json").read_text()) == {"md": 0.75}

    @pytest.mark.parametrize("command,args", REPLAYS.items(), ids=list(REPLAYS))
    def test_rerun_from_metadata_config(self, tmp_path, planted_csv, responses_csv, command, args):
        """A run's metadata config echo reproduces it bit-identically."""
        inputs = tmp_path / "inputs"
        assert run(["extract", "--dataset", planted_csv, "--out-dir", inputs]) == 0
        assert run(["ingest", "--responses", responses_csv, "--out-dir", inputs]) == 0
        files = {"planted": planted_csv, "responses": responses_csv,
                 "store": inputs / "md_store.csv", "llm": inputs / "llm_Metallurgy.csv"}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run([command, *(a.format(**files) for a in args), "--out-dir", out1]) == 0
        meta = json.loads((out1 / "run_metadata.json").read_text())
        replay = dict(meta["config"], out_dir=str(out2))
        config = tmp_path / "replay.json"
        config.write_text(json.dumps(replay))
        assert run([command, "--config", config]) == 0
        assert json.loads((out2 / "run_metadata.json").read_text())["config"] == replay
        outputs = sorted(f.name for f in out1.iterdir() if f.name != "run_metadata.json")
        assert outputs and outputs == sorted(f.name for f in out2.iterdir() if f.name != "run_metadata.json")
        for name in outputs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# input files and an error each command line meets before it writes an output
INPUT_ERRORS = {
    "fuse-more-folds-than-rows": (
        ["fuse", "--store", "md={store}", "--dataset", "{four}", "--folds", "9", "--seed", "1"], 2, "FoldsOutOfRange"),
    "tune-more-folds-than-rows": (
        ["tune-alpha", "--dataset", "{four}", "--grid", "0.1", "--folds", "9", "--seed", "1"], 2, "FoldsOutOfRange"),
    "unknown-universe": (["extract", "--dataset", "{dataset}", "--universe", "X9"], 2, "ConfigError"),
    "fraction-above-one": (
        ["eval-cv", "--dataset", "{dataset}", "--fractions", "1.5", "--seed", "1"], 2, "FractionOutOfRange"),
    "cluster-one-element": (["cluster", "--store", "{store}", "--elements", "Fe"], 2, "TooFewElements"),
    "distances-one-alloy": (
        ["export-distances", "--store", "{store}", "--elements", "Fe,Co", "--alloys", "{one}"], 3, "TooFewAlloys"),
    "gamma-not-a-number": (["fuse", "--store", "md={store}", "--gamma", "md=abc", "--seed", "1"], 2, "ConfigError"),
    "fraction-not-a-number": (
        ["eval-cv", "--dataset", "{dataset}", "--fractions", "0.5,x", "--seed", "1"], 2, "ConfigError"),
    "grid-not-a-number": (["tune-alpha", "--dataset", "{dataset}", "--grid", "0.1,y", "--seed", "1"], 2, "ConfigError"),
    "enumerate-one": (
        ["predict", "--store", "{store}", "--training", "{dataset}", "--enumerate", "1"], 2, "ConfigError"),
    "cluster-unknown-element": (["cluster", "--store", "{store}", "--elements", "Fe,Xx"], 2, "ConfigError"),
    "prompts-unknown-element": (["prompts", "--elements", "Fe,Qq"], 2, "ConfigError"),
    "prompts-repeated-element": (["prompts", "--elements", "Fe,Fe"], 2, "ConfigError"),
    "prompts-repeated-domain": (
        ["prompts", "--elements", "Fe,Co", "--domains", "Metallurgy,Metallurgy"], 2, "ConfigError"),
    "prompts-repeated-domain-config": (
        ["prompts", "--elements", "Fe,Co", "--config", "{repeated_domains}"], 2, "ConfigError"),
    "distances-repeated-element": (
        ["export-distances", "--store", "{store}", "--elements", "Co,Fe,Co"], 2, "ConfigError"),
    "predict-no-candidates": (["predict", "--store", "{store}", "--training", "{dataset}"], 2, "ConfigError"),
    "predict-two-candidate-sources": (
        ["predict", "--store", "{store}", "--training", "{dataset}", "--candidates", "{candidates}",
         "--enumerate", "4"], 2, "ConfigError"),
    "dataset-not-utf8": (["extract", "--dataset", "{binary}"], 3, "ParseError"),
    "config-not-utf8": (["extract", "--dataset", "{dataset}", "--config", "{binary}"], 2, "ConfigError"),
    "config-list": (["extract", "--dataset", "{dataset}", "--config", "{json_list}"], 2, "ConfigError"),
    "one-element-row": (["extract", "--dataset", "{single}"], 3, "ParseError"),
    "unknown-source": (
        ["eval-cv", "--dataset", "{dataset}", "--sources", "md,xyz", "--seed", "1"], 2, "ConfigError"),
    "no-source": (["eval-cv", "--dataset", "{dataset}", "--sources", ",", "--seed", "1"], 2, "EmptySourceList"),
    "llm-without-responses": (
        ["eval-extrapolate", "--dataset", "{dataset}", "--sources", "llm", "--seed", "1"], 2, "ConfigError"),
    "store-without-id": (["fuse", "--store", "{store}", "--gamma", "md=1", "--seed", "1"], 2, "ConfigError"),
    "gamma-without-value": (["fuse", "--store", "md={store}", "--gamma", "md", "--seed", "1"], 2, "ConfigError"),
    "cluster-without-symbols": (["cluster", "--store", "{store}"], 2, "ConfigError"),
}


class TestInputErrors:
    @pytest.mark.parametrize("argv,code,error", INPUT_ERRORS.values(), ids=list(INPUT_ERRORS))
    def test_one_json_error(self, tmp_path, valid_inputs, capsys, argv, code, error):
        files = write_inputs(tmp_path, {
            **valid_inputs,
            "four": "composition,label\nFe-Co-Ni,1\nFe-Co-Mn,0\nCo-Ni-Mn,1\nFe-Ni-Mn,0\n",
            "one": "composition,label\nFe-Co-Ni,1\n",
            "single": "composition,label\nFe-Co-Ni,1\nFe,0\n",
            "json_list": '[{"alpha": 0.2}]',
            "repeated_domains": '{"domains": "Metallurgy, Metallurgy"}',
        })
        files["binary"] = tmp_path / "binary.csv"
        files["binary"].write_bytes(b"\xff\xfe\x00composition")
        out = tmp_path / "out"
        assert run([a.format(**files) for a in argv] + ["--jobs", "1", "--out-dir", out]) == code
        err = one_error(capsys.readouterr().err)
        assert (err["error"], err["exit_code"], err["command"]) == (error, code, argv[0])
        assert not out.exists()

    def test_unexpected_value_error_is_not_reported(self, tmp_path, dataset_csv, monkeypatch):
        """A ValueError from a handler is a bug, not a bad input: it ends the
        run with a traceback instead of an exit code."""

        def broken(*args, **kwargs):
            raise ValueError("broken invariant")

        monkeypatch.setattr("heafusion.cli.extract_all", broken)
        with pytest.raises(ValueError, match="broken invariant"):
            run(["extract", "--dataset", dataset_csv, "--out-dir", tmp_path])

    @pytest.mark.parametrize("argv", [
        ["extract", "--dataset", "{dataset}"],
        ["prompts", "--elements", "Fe,Co"],
        ["ingest", "--responses", "{responses}"],
        ["predict", "--store", "{store}", "--training", "{dataset}", "--candidates", "{candidates}"],
        ["cluster", "--store", "{store}", "--elements", "Fe,Co"],
        ["export-distances", "--store", "{store}", "--elements", "Fe,Co"],
    ], ids=lambda argv: argv[0])
    def test_seed_only_on_commands_that_draw(self, tmp_path, valid_inputs, capsys, argv):
        files = write_inputs(tmp_path, valid_inputs)
        args = [a.format(**files) for a in argv] + ["--jobs", "1", "--out-dir", tmp_path / "out"]
        assert run(args) == 0
        capsys.readouterr()
        assert run(args + ["--seed", "1"]) == 2
        assert one_error(capsys.readouterr().err)["message"] == "unrecognized arguments: --seed 1"

    @pytest.mark.parametrize("argv", [["--version"], ["extract", "--help"]])
    def test_only_help_and_version_exit(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One small valid file of each kind the CLI reads, as text."""
    from heafusion.alloys import serialize_dataset

    root = tmp_path_factory.mktemp("valid")
    ds = planted_group_dataset(GROUP_A, GROUP_B, subsample=14, seed=32)
    serialize_dataset(ds, root / "train.csv")
    assert run(["extract", "--dataset", root / "train.csv", "--out-dir", root]) == 0
    taken = {a.composition() for a in ds.alloys}
    free = [c for c in ("Ag-Au-Co-Fe", "Cu-Fe-Mn-Ni", "Ag-Au-Cu-Zn") if c not in taken]
    return {
        "dataset": (root / "train.csv").read_text(),
        "store": (root / "md_store.csv").read_text(),
        "candidates": "composition\n" + "\n".join(free) + "\n",
        "responses": "element_a,element_b,domain,q1,q2\nFe,Co,Metallurgy,Yes,High\n"
                     "Cu,Fe,Metallurgy,Yes,Low\nAg,Au,CorrosionScience,No,\n",
    }


# (file mutated, command): the other inputs of the command stay valid
FUZZ_TARGETS = [
    ("dataset", ["extract", "--dataset", "{dataset}"]),
    ("dataset", ["predict", "--store", "{store}", "--training", "{dataset}", "--candidates", "{candidates}"]),
    ("candidates", ["predict", "--store", "{store}", "--training", "{dataset}", "--candidates", "{candidates}"]),
    ("store", ["predict", "--store", "{store}", "--training", "{dataset}", "--candidates", "{candidates}"]),
    ("store", ["cluster", "--store", "{store}", "--elements", ",".join(GROUP_A + GROUP_B)]),
    ("responses", ["ingest", "--responses", "{responses}"]),
]


@st.composite
def mutated(draw, text):
    """text with one to three edits of the kinds real files get wrong."""
    rows = [line.split(",") for line in text.splitlines()]
    bom = False
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, max(0, len(rows[r]) - 1)))
        kind = draw(st.sampled_from(
            ["drop", "duplicate", "reorder", "rename", "symbol", "number", "blank", "bom"]
        ))
        if kind == "drop" and rows[r]:
            del rows[r][c]
        elif kind == "duplicate" and rows[r]:
            rows[r].insert(c, rows[r][c])
        elif kind == "reorder":
            rows[0] = draw(st.permutations(rows[0]))
        elif kind == "rename" and rows[0]:
            rows[0][min(c, len(rows[0]) - 1)] = draw(st.sampled_from(["x", "", "Label", " q2 ", "combo_b"]))
        elif kind == "symbol" and rows[r]:
            rows[r][c] = draw(st.sampled_from(["Xx", "Fe-Xx", "Xx-Co", "Fe-Fe", ""]))
        elif kind == "number" and rows[r]:
            rows[r][c] = draw(st.sampled_from(["nan", "-1", "abc", "inf", "1e400", "-0"]))
        elif kind == "blank":
            rows.insert(r, [draw(st.sampled_from(["", "   ", " , ", ",,,,"]))])
        elif kind == "bom":
            bom = True
    return ("\ufeff" if bom else "") + "\n".join(",".join(row) for row in rows) + "\n"


# one command reading each CSV format; the other files it reads stay valid
FORMAT_COMMANDS = dict(FUZZ_TARGETS[i] for i in (0, 2, 4, 5))


def run_on_inputs(kind, root, texts):
    """Exit status of kind's command on the files texts written under root."""
    paths = write_inputs(root, texts)
    argv = [a.format(**paths) for a in FORMAT_COMMANDS[kind]]
    return run(argv + ["--jobs", "1", "--out-dir", root / "out"])


class TestCsvRows:
    @pytest.mark.parametrize("kind", FORMAT_COMMANDS)
    def test_byte_order_mark_reads_like_plain_file(self, tmp_path, valid_inputs, kind):
        outputs = []
        for mark in ("", "\ufeff"):
            root = tmp_path / ("bom" if mark else "plain")
            root.mkdir()
            assert run_on_inputs(kind, root, {**valid_inputs, kind: mark + valid_inputs[kind]}) == 0
            outputs.append({f.name: f.read_bytes() for f in (root / "out").iterdir()
                            if f.name != "run_metadata.json"})
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("kind", ["dataset", "candidates", "responses"])
    def test_row_longer_than_header_is_data_error(self, tmp_path, valid_inputs, capsys, kind):
        lines = valid_inputs[kind].splitlines()
        lines[1] += ",extra"
        assert run_on_inputs(kind, tmp_path, {**valid_inputs, kind: "\n".join(lines) + "\n"}) == 3
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "row 2" in err["message"]

    def test_store_symbol_outside_element_table_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store.csv"
        store.write_text("combo_a,combo_b,w_similar,w_dissimilar\nFe,Xx,0.5,0\n")
        code = run(["cluster", "--store", store, "--elements", "Fe,Co", "--out-dir", tmp_path / "out"])
        assert code == 3
        err = one_error(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "row 2" in err["message"]
        assert "Xx" in err["message"]


class TestFuzz:
    @pytest.mark.parametrize("kind,argv", FUZZ_TARGETS, ids=[f"{kind}-{argv[0]}" for kind, argv in FUZZ_TARGETS])
    def test_unmutated_inputs_exit_zero(self, tmp_path, valid_inputs, kind, argv):
        paths = write_inputs(tmp_path, valid_inputs)
        assert run([a.format(**paths) for a in argv] + ["--jobs", "1", "--out-dir", tmp_path / "out"]) == 0

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), target=st.sampled_from(FUZZ_TARGETS))
    def test_mutated_inputs_exit_cleanly(self, valid_inputs, data, target):
        kind, argv = target
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, text in valid_inputs.items():
                paths[name] = Path(tmp) / f"{name}.csv"
                paths[name].write_text(data.draw(mutated(text)) if name == kind else text, encoding="utf-8")
            args = [a.format(**paths) for a in argv] + ["--jobs", "1", "--out-dir", f"{tmp}/out"]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = run(args)
        assert code in (0, 2, 3, 4)
        if code:
            assert one_error(stderr.getvalue())["exit_code"] == code
        else:
            assert stderr.getvalue() == ""
