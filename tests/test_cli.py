import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from symrel.cli import main
from symrel.collection import load_collection
from symrel.corpus import Article
from symrel.tagger import read_tags

from helpers import concept, write_corpus, write_vocab
from oracles import (
    reference_fleiss,
    reference_ndcg,
    reference_precision,
    reference_recall,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def vocab_file(tmp_path, small_vocabulary):
    return write_vocab(tmp_path / "vocab.tsv", list(small_vocabulary.concepts.values()))


@pytest.fixture
def corpus_file(tmp_path, miner_articles):
    return write_corpus(tmp_path / "corpus.jsonl", miner_articles)


class TestTagCommand:
    def test_tags_written(self, tmp_path, vocab_file, corpus_file):
        out = tmp_path / "tags.jsonl"
        assert main(
            ["tag", "--vocab", str(vocab_file), "--corpus", str(corpus_file),
             "--out", str(out)]
        ) == 0
        tags = {t.article_id: t for t in read_tags(out)}
        assert set(tags) == {"A1", "A2", "A3"}
        assert tags["A1"].keyword_concepts == {"D1", "S1"}
        assert tags["A3"].title_concepts == {"D2"}
        assert tags["A2"].body_concepts == {"S1", "S2"}


class TestMineCommand:
    def test_fixture_scores(self, tmp_path, vocab_file, corpus_file):
        out = tmp_path / "mined"
        assert main(
            ["mine", "--vocab", str(vocab_file), "--corpus", str(corpus_file),
             "--regime", "kwd", "--out", str(out)]
        ) == 0
        scores = (out / "scores_kwd.tsv").read_text(encoding="utf-8")
        assert scores == "D1\tS1\t2.0\nD1\tS2\t2.0\nD2\tS1\t1.0\n"
        index_text = (out / "index_kwd.tsv").read_text(encoding="utf-8")
        assert index_text.startswith("#|X|=2\n#regime=keyword\n")

    def test_rerun_and_worker_count_byte_identical(self, tmp_path, vocab_file, corpus_file):
        outputs = {}
        for name, workers in (("one", "1"), ("two", "2"), ("rerun", "1")):
            out = tmp_path / name
            assert main(
                ["mine", "--vocab", str(vocab_file), "--corpus", str(corpus_file),
                 "--regime", "fulltext", "--workers", workers, "--out", str(out)]
            ) == 0
            outputs[name] = (
                (out / "index_fulltext.tsv").read_bytes(),
                (out / "scores_fulltext.tsv").read_bytes(),
            )
        assert outputs["one"] == outputs["two"] == outputs["rerun"]

    def test_logs_corpus_stats(self, tmp_path, vocab_file, corpus_file, caplog):
        with open(corpus_file, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        caplog.set_level(logging.INFO, logger="symrel.cli")
        assert main(
            ["mine", "--vocab", str(vocab_file), "--corpus", str(corpus_file),
             "--regime", "kwd", "--skip-bad-records", "--out", str(tmp_path / "mined")]
        ) == 0
        assert "from 3 article(s) (3 with keywords, 1 skipped)" in caplog.text


class TestRankCommand:
    def test_top_k_table(self, tmp_path, capsys):
        vocab = write_vocab(
            tmp_path / "vocab.tsv",
            [concept("D1", "disease", "influenza")]
            + [concept(f"S{i}", "symptom", f"sign {i}") for i in range(5)],
        )
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "D1\tS0\t1.0\nD1\tS1\t5.0\nD1\tS2\t3.5\nD1\tS3\t4.25\nD1\tS4\t2.0\n",
            encoding="utf-8",
        )
        assert main(
            ["rank", "--vocab", str(vocab), "--scores", str(scores),
             "--disease", "D1", "--k", "4"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        data_rows = [line.split("\t") for line in lines[2:]]
        assert len(data_rows) == 4
        assert [row[1] for row in data_rows] == ["S1", "S3", "S2", "S4"]
        printed_scores = [float(row[3]) for row in data_rows]
        assert printed_scores == sorted(printed_scores, reverse=True)

    def test_run_file_output(self, tmp_path):
        vocab = write_vocab(
            tmp_path / "vocab.tsv",
            [
                concept("D1", "disease", "influenza"),
                concept("D2", "disease", "migraine"),
                concept("S1", "symptom", "fever"),
            ],
        )
        scores = tmp_path / "scores.tsv"
        scores.write_text("D1\tS1\t2.0\nD2\tS1\t1.0\n", encoding="utf-8")
        out = tmp_path / "run.tsv"
        assert main(
            ["rank", "--vocab", str(vocab), "--scores", str(scores), "--out", str(out)]
        ) == 0
        assert out.read_text(encoding="utf-8") == (
            "D1\t1\tS1\t2.0\nD2\t1\tS1\t1.0\n"
        )

    def test_vectors_and_scores_mutually_exclusive(self, tmp_path, vocab_file, capsys):
        result = main(["rank", "--vocab", str(vocab_file), "--disease", "D1"])
        assert result == 1
        assert "error[ConfigError]" in capsys.readouterr().err


class TestEvalCommand:
    def test_golden_report_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA)
        out = tmp_path / "report"
        assert main(
            ["eval", "run_alpha.tsv", "run_beta.tsv",
             "--collection", "synthetic_collection.json",
             "--alpha", "0.05", "--out", str(out)]
        ) == 0
        assert (out / "report.json").read_bytes() == (DATA / "golden_report.json").read_bytes()
        assert (out / "report.md").read_bytes() == (DATA / "golden_report.md").read_bytes()

    def test_golden_values_match_oracles(self):
        # the golden file must agree with the independent metric references,
        # so the byte-comparison test above cannot lock in a wrong value
        payload = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
        collection = load_collection(DATA / "synthetic_collection.json")
        judgments_by_disease = {e.disease_id: e.judgments for e in collection.entries}
        rankings = {}
        for stem in ("run_alpha", "run_beta"):
            per_disease = {}
            for line in (DATA / f"{stem}.tsv").read_text(encoding="utf-8").splitlines():
                disease_id, rank, symptom_id, _ = line.split("\t")
                per_disease.setdefault(disease_id, []).append((int(rank), symptom_id))
            rankings[stem] = {
                d: [s for _, s in sorted(rows)] for d, rows in per_disease.items()
            }
        for method, macro in payload["macro"].items():
            for k in (5, 10):
                expected = {"ndcg": 0.0, "p": 0.0, "r": 0.0}
                for disease_id, judgments in judgments_by_disease.items():
                    ranking = rankings[method].get(disease_id, [])
                    expected["ndcg"] += reference_ndcg(ranking, judgments, k)
                    expected["p"] += reference_precision(ranking, judgments, k)
                    expected["r"] += reference_recall(ranking, judgments, k)
                for metric, total in expected.items():
                    assert macro[f"{metric}@{k}"] == pytest.approx(
                        total / len(judgments_by_disease), abs=1e-12
                    ), (method, metric, k)

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        result = main(
            ["eval", str(DATA / "run_alpha.tsv"), str(DATA / "run_alpha.tsv"),
             "--collection", str(DATA / "synthetic_collection.json")]
        )
        assert result == 1
        assert "error[ConfigError]" in capsys.readouterr().err


def _write_annotations(path):
    rows = ["disease_id,symptom_id,annotator_id,is_primary"]
    votes = {
        ("D1", "S1"): [True, True, False],
        ("D1", "S2"): [False, False, False],
        ("D2", "S1"): [True, True, True],
        ("D2", "S2"): [True, False, False],
    }
    for (disease_id, symptom_id), flags in votes.items():
        for i, flag in enumerate(flags):
            rows.append(f"{disease_id},{symptom_id},ann{i},{str(flag).lower()}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestVoteCommand:
    def test_builds_collection(self, tmp_path, vocab_file):
        annotations = _write_annotations(tmp_path / "annotations.csv")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "disease_id,symptom_id\nD1,S1\nD1,S2\nD2,S1\nD2,S2\n", encoding="utf-8"
        )
        out = tmp_path / "collection.json"
        assert main(
            ["vote", "--vocab", str(vocab_file), "--annotations", str(annotations),
             "--pairs", str(pairs), "--out", str(out)]
        ) == 0
        collection = load_collection(out)
        by_id = {e.disease_id: e.judgments for e in collection.entries}
        assert by_id == {
            "D1": {"S1": 2, "S2": 1},
            "D2": {"S1": 2, "S2": 1},
        }
        assert collection.entries[0].name == "influenza"

    def test_pair_without_records_fails(self, tmp_path, vocab_file, capsys):
        annotations = _write_annotations(tmp_path / "annotations.csv")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "disease_id,symptom_id\nD1,S1\nD1,S2\nD2,S1\nD2,S2\nD2,S3\n",
            encoding="utf-8",
        )
        result = main(
            ["vote", "--vocab", str(vocab_file), "--annotations", str(annotations),
             "--pairs", str(pairs), "--out", str(tmp_path / "c.json")]
        )
        assert result == 1
        assert "error[MissingAnnotator]" in capsys.readouterr().err

    def test_annotations_outside_pair_list_fail(self, tmp_path, vocab_file, capsys):
        annotations = _write_annotations(tmp_path / "annotations.csv")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("disease_id,symptom_id\nD1,S1\nD1,S2\n", encoding="utf-8")
        result = main(
            ["vote", "--vocab", str(vocab_file), "--annotations", str(annotations),
             "--pairs", str(pairs), "--out", str(tmp_path / "c.json")]
        )
        assert result == 1
        assert "error[PairListMismatch]" in capsys.readouterr().err


class TestKappaCommand:
    def test_agreement_json(self, tmp_path, capsys):
        annotations = _write_annotations(tmp_path / "annotations.csv")
        assert main(["kappa", "--annotations", str(annotations)]) == 0
        payload = json.loads(capsys.readouterr().out)
        table = [[2, 1], [0, 3], [3, 0], [1, 2]]
        assert payload["overall_kappa"] == pytest.approx(
            reference_fleiss(table), abs=1e-9
        )
        assert set(payload["per_annotator_primary_rate"]) == {"ann0", "ann1", "ann2"}
        assert payload["per_annotator_primary_rate"]["ann0"] == pytest.approx(1.5)


class TestValidateCommand:
    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        expect_good = tmp_path / "expect_good.json"
        expect_good.write_text(
            json.dumps({"diseases": 3, "judgments": 8, "primaries": 3}),
            encoding="utf-8",
        )
        assert main(
            ["validate", "--collection", str(DATA / "synthetic_collection.json"),
             "--expect", str(expect_good)]
        ) == 0
        assert "collection valid" in capsys.readouterr().out

        expect_bad = tmp_path / "expect_bad.json"
        expect_bad.write_text(json.dumps({"diseases": 4}), encoding="utf-8")
        assert main(
            ["validate", "--collection", str(DATA / "synthetic_collection.json"),
             "--expect", str(expect_bad)]
        ) == 1
        assert "diseases" in capsys.readouterr().out


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, vocab_file, corpus_file):
        config = tmp_path / "run.conf"
        out = tmp_path / "mined"
        config.write_text(
            f"vocab = {vocab_file}\ncorpus = {corpus_file}\n"
            f"regime = kwd\nout = {out}\n# comment\nworkers = 1\n",
            encoding="utf-8",
        )
        assert main(["mine", "--config", str(config)]) == 0
        assert (out / "scores_kwd.tsv").exists()

    def test_cli_overrides_config(self, tmp_path, vocab_file, corpus_file):
        config = tmp_path / "run.conf"
        config.write_text("regime = kwd\n", encoding="utf-8")
        out = tmp_path / "mined"
        assert main(
            ["mine", "--config", str(config), "--vocab", str(vocab_file),
             "--corpus", str(corpus_file), "--regime", "fulltext", "--out", str(out)]
        ) == 0
        assert (out / "scores_fulltext.tsv").exists()
        assert not (out / "scores_kwd.tsv").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("regmie = kwd\n", encoding="utf-8")
        assert main(["mine", "--config", str(config)]) == 1
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_missing_input_fails_fast(self, tmp_path, capsys):
        assert main(
            ["mine", "--vocab", str(tmp_path / "absent.tsv"),
             "--corpus", str(tmp_path / "absent.jsonl"),
             "--regime", "kwd", "--out", str(tmp_path / "out")]
        ) == 1
        assert "error[ConfigError]" in capsys.readouterr().err

    def test_bad_alpha_rejected(self, capsys):
        assert main(
            ["eval", str(DATA / "run_alpha.tsv"),
             "--collection", str(DATA / "synthetic_collection.json"),
             "--alpha", "1.5"]
        ) == 1
        assert "error[ConfigError]" in capsys.readouterr().err


class TestConsoleScript:
    def test_help_via_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "symrel.cli", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        for subcommand in ("tag", "mine", "rank", "eval", "kappa", "vote", "validate"):
            assert subcommand in result.stdout
