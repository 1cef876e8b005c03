"""End-to-end pipeline driver: stage wiring, file artifacts, exit codes."""

import csv
import json
import hashlib
import importlib
import os
import platform
import re
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ipsdm.cli import (
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SEED_ENV_VAR,
    main,
)
from ipsdm.corpus import read_split_csv, save_split_csv
from ipsdm.model import ModelConfig, init
from ipsdm.tokenizer import load_vocab, save_vocab, train_vocab, vocab_sha256
from ipsdm.trainer import Checkpoint, save_checkpoint
import ipsdm
from ipsdm import cli, heap

from conftest import make_separable_corpus, rewrite_checkpoint
from ipsdm.corpus import Label

SMALL_MODEL = {
    "num_layers": 1,
    "num_heads": 2,
    "d_model": 16,
    "d_ff": 32,
    "max_len": 48,
    "dropout_rate": 0.1,
}

SMALL_TRAINING = {"train_batch_size": 8, "val_batch_size": 16, "num_epochs": 2, "seed": 0}


def _write_source_csv(path, corpus, text_column="Email", label_column="Category"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([text_column, label_column])
        for sample in corpus.samples:
            writer.writerow([sample.text, sample.label.name])
    return path


def _write_config(path, sources, output_dir, **sections):
    doc = {
        "data": {"sources": [{"path": str(s)} if not isinstance(s, dict) else s for s in sources]},
        "split": sections.pop("split", {"seed": 0}),
        "balance": sections.pop("balance", {"k": 3}),
        "tokenizer": sections.pop("tokenizer", {"vocab_size": 300}),
        "model": sections.pop("model", dict(SMALL_MODEL)),
        "training": sections.pop("training", dict(SMALL_TRAINING)),
        "output_dir": str(output_dir),
    }
    assert not sections, sections
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """prepare + tokenizer-train + balance + train, run once and reused by the
    read-only stage tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = make_separable_corpus(
        {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, seed=7
    )
    source = _write_source_csv(root / "mail.csv", corpus)
    out = root / "out"
    config = _write_config(root / "config.json", [source], out)
    for argv in (
        ["prepare", "--config", str(config)],
        ["tokenizer-train", "--config", str(config)],
        ["balance", "--config", str(config)],
        ["train", "--config", str(config)],
    ):
        assert main(argv) == EXIT_OK, argv
    return config, out


# ---------------------------------------------------------------------------
# prepare


def test_prepare_writes_splits_and_manifest(tmp_path):
    corpus = make_separable_corpus(
        {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, seed=3
    )
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)

    assert main(["prepare", "--config", str(config)]) == EXIT_OK

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["total"] == 60
    assert manifest["class_counts"] == {"ham": 30, "spam": 20, "phishing": 10}
    # default fractions 0.6/0.2/0.2: floor(0.2*60) twice, remainder to train
    sizes = {name: manifest["splits"][name]["size"] for name in manifest["splits"]}
    assert sizes == {"train": 36, "validation": 12, "test": 12}
    for name, filename in (("train", "train.csv"), ("validation", "val.csv"), ("test", "test.csv")):
        part = read_split_csv(out / filename)
        assert len(part) == sizes[name]
        assert manifest["splits"][name]["path"] == filename
        counts = manifest["splits"][name]["class_counts"]
        assert sum(counts.values()) == sizes[name]
    (entry,) = manifest["sources"]
    assert entry["path"] == str(source)
    assert entry["sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()
    assert entry["loaded"] == 60
    assert entry["skipped_unknown_label"] == 0
    assert entry["skipped_empty_text"] == 0


def test_prepare_reports_each_skipped_row_once(tmp_path, caplog):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=5)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    with open(source, "a", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["a banana text", "banana"], ["   ", "ham"]])
    config = _write_config(tmp_path / "config.json", [source], tmp_path / "out")

    with caplog.at_level("INFO", logger="ipsdm"):
        assert main(["prepare", "--config", str(config)]) == EXIT_OK
    messages = [record.getMessage() for record in caplog.records]
    assert [m for m in messages if "banana" in m] == [
        f"row 12 of {source}: unknown label 'banana'"
    ]
    assert [m for m in messages if "empty" in m] == [
        f"loaded 12 samples from {source} (skipped: 1 unknown label, 1 empty)"
    ]


def test_a_stage_that_succeeds_logs_its_wall_cpu_and_peak_rss(tmp_path, caplog):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=5)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    config = _write_config(tmp_path / "config.json", [source], tmp_path / "out")

    with caplog.at_level("INFO", logger="ipsdm"):
        assert main(["prepare", "--config", str(config)]) == EXIT_OK
        assert main(["prepare", "--config", str(tmp_path / "missing.json")]) == EXIT_INPUT
    (record,) = [r for r in caplog.records if "finished" in r.getMessage()]
    assert (record.name, record.levelname) == ("ipsdm.cli", "INFO")
    match = re.fullmatch(
        r"prepare finished: wall (\d+\.\d\d)s, cpu (\d+\.\d\d)s, peak rss (\d+\.\d) MB",
        record.getMessage(),
    )
    assert match, record.getMessage()
    _, cpu, rss = map(float, match.groups())
    assert cpu > 0 and rss > 0


@pytest.mark.parametrize("system, maxrss", [("linux", 80 * 1024), ("darwin", 80 * 1024 * 1024)])
def test_the_peak_rss_line_reads_megabytes_on_each_platform(monkeypatch, caplog, system, maxrss):
    """getrusage's ru_maxrss is in KiB on Linux and in bytes on macOS; an
    80 MB peak reads 80.0 MB on both."""
    usage = resource.struct_rusage((1.25, 0.5, maxrss) + (0,) * 13)
    monkeypatch.setattr(sys, "platform", system)
    monkeypatch.setattr(resource, "getrusage", lambda who: usage)
    with caplog.at_level("INFO", logger="ipsdm"):
        ipsdm.cli._log_usage("train", 2.0)
    assert [r.getMessage() for r in caplog.records] == [
        "train finished: wall 2.00s, cpu 1.75s, peak rss 80.0 MB"
    ]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_the_heap_policy_applies_on_glibc():
    assert heap.reuse_freed_memory() is True


def test_the_heap_policy_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
    assert heap.reuse_freed_memory() is False


def test_prepare_rerun_is_byte_identical(tmp_path):
    corpus = make_separable_corpus({Label.ham: 10, Label.spam: 8}, seed=4)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)

    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    first = {name: (out / name).read_bytes()
             for name in ("train.csv", "val.csv", "test.csv", "manifest.json")}
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload, name


def test_prepare_merges_multiple_sources(tmp_path):
    first = make_separable_corpus({Label.ham: 12, Label.spam: 8}, seed=5)
    second = make_separable_corpus({Label.ham: 6, Label.phishing: 9}, seed=6)
    source_a = _write_source_csv(tmp_path / "a.csv", first)
    source_b = _write_source_csv(
        tmp_path / "b.csv", second, text_column="body", label_column="kind"
    )
    out = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json",
        [
            {"path": str(source_a)},
            {"path": str(source_b), "text_column": "body", "label_column": "kind"},
        ],
        out,
    )

    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["total"] == 35
    assert manifest["class_counts"] == {"ham": 18, "spam": 8, "phishing": 9}
    assert [e["loaded"] for e in manifest["sources"]] == [20, 15]


def test_prepare_missing_source_exits_with_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "no-such-file.csv"
    config = _write_config(tmp_path / "config.json", [missing], out)

    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err
    assert "no-such-file.csv" in err
    assert not out.exists()


def test_seed_env_var_overrides_config_seed(tmp_path, monkeypatch):
    corpus = make_separable_corpus({Label.ham: 10, Label.spam: 10}, seed=8)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)

    memberships = {}
    for name, env_seed, flag_seed in (
        ("plain", None, None),
        ("env", "123", None),
        ("flag", "123", "7"),
    ):
        out = tmp_path / name
        config = _write_config(tmp_path / f"{name}.json", [source], out)
        if env_seed is None:
            monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        argv = ["prepare", "--config", str(config)]
        if flag_seed is not None:
            argv += ["--seed", flag_seed]
        assert main(argv) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        memberships[name] = {s.text for s in read_split_csv(out / "train.csv").samples}
        expected_seed = int(flag_seed or env_seed or 0)
        assert manifest["seed"] == expected_seed, name

    assert memberships["plain"] != memberships["env"]
    assert memberships["env"] != memberships["flag"]


def test_seed_env_var_must_be_an_integer(tmp_path, monkeypatch, capsys):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=0)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    config = _write_config(tmp_path / "config.json", [source], tmp_path / "out")
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    assert SEED_ENV_VAR in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tokenizer-train / balance


def test_tokenizer_train_writes_loadable_vocab(pipeline):
    config, out = pipeline
    vocab = load_vocab(out / "vocab.json")
    assert vocab.size <= 300
    assert len(vocab.merges) == vocab.size - 260


def test_balance_oversamples_minorities_and_leaves_other_splits_alone(tmp_path):
    corpus = make_separable_corpus(
        {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, seed=7
    )
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK
    untouched = {name: (out / name).read_bytes() for name in ("val.csv", "test.csv", "train.csv")}

    assert main(["balance", "--config", str(config)]) == EXIT_OK

    for name, payload in untouched.items():
        assert (out / name).read_bytes() == payload, name
    balanced = read_split_csv(out / "train_balanced.csv")
    before = read_split_csv(out / "train.csv")
    majority = max(before.class_counts.values())
    for label, count in before.class_counts.items():
        grown = balanced.class_counts[label]
        assert count <= grown <= majority + count  # within one minority size of target
    report = json.loads((out / "balance_report.json").read_text())
    assert set(report) == {"before", "after", "added", "plan"}
    assert report["before"] == {l.name: before.class_counts[l] for l in Label}
    assert report["after"] == {l.name: balanced.class_counts[l] for l in Label}
    assert report["plan"]["total_synthetic"] == len(balanced) - len(before)
    synthetic = [s for s in balanced.samples if s.source_id == "adasyn"]
    assert len(synthetic) == report["plan"]["total_synthetic"]


def test_balance_on_already_balanced_split_copies_input(tmp_path, capsys):
    corpus = make_separable_corpus(
        {Label.ham: 10, Label.spam: 10, Label.phishing: 10}, seed=9
    )
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()

    assert main(["balance", "--config", str(config)]) == EXIT_OK

    assert "already balanced" in capsys.readouterr().out
    assert (out / "train_balanced.csv").read_bytes() == (out / "train.csv").read_bytes()
    report = json.loads((out / "balance_report.json").read_text())
    assert report["plan"]["total_synthetic"] == 0
    assert report["added"] == {"ham": 0, "spam": 0, "phishing": 0}


@pytest.mark.parametrize("max_len", [2, 16])
def test_balance_of_a_balanced_split_reports_what_the_plan_gives(tmp_path, max_len):
    """A balanced split is copied without encoding anything, and its report
    holds what balance_corpus's empty plan gives: excluded_empty counts the
    empty content windows, an empty text's, or every one at max_len 2."""
    corpus = make_separable_corpus({Label.ham: 5, Label.spam: 5, Label.phishing: 5}, seed=4)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out,
                           model={**SMALL_MODEL, "max_len": max_len})
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK
    train = read_split_csv(out / "train.csv")
    train.samples[0] = replace(train.samples[0], text="")
    save_split_csv(train, out / "train.csv", "train")

    assert main(["balance", "--config", str(config)]) == EXIT_OK

    from ipsdm.balance import balance_corpus
    kept, plan = balance_corpus(train, load_vocab(out / "vocab.json"), k=3, max_len=max_len)
    assert plan.is_empty and kept is train
    assert (out / "train_balanced.csv").read_bytes() == (out / "train.csv").read_bytes()
    report = json.loads((out / "balance_report.json").read_text())
    assert report["plan"] == {
        "k": plan.k, "beta": plan.beta, "majority_label": Label(plan.majority_label).name,
        "targets": {}, "total_synthetic": 0, "excluded_empty": len(plan.excluded),
    }
    assert len(plan.excluded) == (len(train) if max_len == 2 else 1)


def test_balance_of_an_empty_split_exits_input(tmp_path, capsys):
    corpus = make_separable_corpus({Label.ham: 5, Label.spam: 5}, seed=4)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK
    (out / "train.csv").write_text("text,label,source_id,row_index,split\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["balance", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "no samples to balance" in err and "Traceback" not in err
    assert not (out / "train_balanced.csv").exists()


def test_balance_disabled_is_a_no_op(tmp_path, capsys):
    corpus = make_separable_corpus({Label.ham: 8, Label.spam: 4}, seed=2)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json", [source], out, balance={"enabled": False}
    )
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()
    assert main(["balance", "--config", str(config)]) == EXIT_OK
    assert "disabled" in capsys.readouterr().out
    assert not (out / "train_balanced.csv").exists()


# ---------------------------------------------------------------------------
# train / evaluate / classify / report flow


def test_train_writes_checkpoint_and_history(pipeline):
    config, out = pipeline
    assert (out / "model.ckpt").exists()
    history = json.loads((out / "history.json").read_text())
    assert len(history) == SMALL_TRAINING["num_epochs"]
    assert [r["epoch"] for r in history] == [1, 2]
    for record in history:
        assert set(record) >= {"epoch", "train_loss", "val_loss", "val_accuracy", "learning_rate"}


NUMPY_OOM = ("Unable to allocate 5.40 GiB for an array with shape (1811, 400000) and data "
             "type float64")


@pytest.mark.parametrize("argv, call, error, named", [
    (["train"], "run_training", MemoryError(NUMPY_OOM), NUMPY_OOM),
    (["evaluate", "--split", "test"], "evaluate_checkpoint", MemoryError(NUMPY_OOM), NUMPY_OOM),
    (["train"], "run_training", MemoryError(), "an allocation failed"),
])
def test_an_allocation_that_fails_exits_input_naming_the_stage(
    pipeline, monkeypatch, capsys, argv, call, error, named
):
    """A config too large to allocate, such as a huge model.d_model, makes
    numpy raise MemoryError; the stage exits 2 with one line naming the
    stage and the failed allocation, not a traceback. The call raises as
    numpy would, so the test allocates nothing large."""
    config, _ = pipeline

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, call, fail)
    assert main([*argv, "--config", str(config)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"out of memory in {argv[0]}: {named}\n"


def test_train_requires_balanced_file_when_balancing_enabled(tmp_path, capsys):
    corpus = make_separable_corpus({Label.ham: 10, Label.spam: 6}, seed=11)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK

    assert main(["train", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "train_balanced.csv" in err
    assert "balance" in err


def test_split_csv_with_unknown_label_exits_input(tmp_path, capsys):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=12)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    train_csv = out / "train.csv"
    train_csv.write_text(train_csv.read_text().replace(",ham,", ",eggs,", 1))

    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err
    assert "unknown label 'eggs'" in err
    assert not (out / "vocab.json").exists()


def test_split_csv_with_oversized_field_exits_input(tmp_path, capsys):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=12)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out)
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    train_csv = out / "train.csv"
    with open(train_csv, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1][0] = "x" * (csv.field_size_limit() + 1)
    with open(train_csv, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)

    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err
    assert "train.csv row 0: field larger than field limit" in err
    assert not (out / "vocab.json").exists()


def test_evaluate_writes_fragment_and_prints_it(pipeline, capsys):
    config, out = pipeline
    capsys.readouterr()
    assert main([
        "evaluate", "--config", str(config), "--split", "validation",
        "--model-name", "desk",
    ]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    on_disk = json.loads((out / "report_validation.json").read_text())
    assert printed == on_disk
    assert on_disk["model"] == "desk"
    assert on_disk["split"] == "validation"
    matrix = on_disk["confusion_matrix"]
    assert sum(sum(row) for row in matrix) == 12  # the whole validation split
    assert 0.0 <= on_disk["accuracy"] <= 1.0
    assert set(on_disk["per_class"]) == {"ham", "spam", "phishing"}


def test_full_flow_report_combines_fragments(pipeline, tmp_path, capsys):
    config, out = pipeline
    for split in ("validation", "test"):
        assert main([
            "evaluate", "--config", str(config), "--split", split,
            "--model-name", "desk", "--out", str(tmp_path / f"{split}.json"),
        ]) == EXIT_OK
    capsys.readouterr()

    assert main([
        "report", "--config", str(config), "--svg",
        str(tmp_path / "validation.json"), str(tmp_path / "test.json"),
    ]) == EXIT_OK

    printed = capsys.readouterr().out
    assert printed.startswith("desk: val_accuracy=")
    assert "test_accuracy=" in printed and "gap=" in printed
    assert (out / "report.json").exists()
    assert "<svg" in (out / "report.svg").read_text()
    with open(out / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # long format: one row per (model, split, macro metric)
    assert len(rows) == 8
    assert {row["model"] for row in rows} == {"desk"}
    assert {(row["split"], row["metric"]) for row in rows} == {
        (split, metric)
        for split in ("validation", "test")
        for metric in ("accuracy", "precision", "recall", "f1")
    }
    doc = json.loads((out / "report.json").read_text())
    (entry,) = doc["models"]
    assert entry["model"] == "desk"
    assert -1.0 <= entry["overfit_gap"] <= 1.0


def test_report_rejects_malformed_fragments(pipeline, tmp_path, capsys):
    config, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"split": "test"}), encoding="utf-8")
    assert main(["report", "--config", str(config), str(bad)]) == EXIT_INPUT
    assert "model" in capsys.readouterr().err

    only_val = tmp_path / "val_only.json"
    only_val.write_text(
        json.dumps({"model": "m", "split": "validation"}), encoding="utf-8"
    )
    assert main(["report", "--config", str(config), str(only_val)]) == EXIT_INPUT
    assert "missing" in capsys.readouterr().err


_VALID_FRAGMENT = {"model": "m", "confusion_matrix": [[2, 0, 0], [0, 2, 0], [1, 0, 1]]}


@pytest.mark.parametrize(
    "payload, named",
    [
        (b"\xff\xfe{}", "not a valid report fragment"),
        (json.dumps(["model", "split"]).encode(), "lacks 'model'/'split' keys"),
        (json.dumps({"model": "m", "split": "test"}).encode(), "confusion_matrix"),
        (json.dumps({"model": "m", "split": "test",
                     "confusion_matrix": [[1, 0], [0, 1]]}).encode(), "3x3"),
        (json.dumps({"model": "m", "split": "test",
                     "confusion_matrix": [[1, 0, 0], [0, 1.5, 0], [0, 0, 1]]}).encode(),
         "integer"),
        (json.dumps({**_VALID_FRAGMENT, "model": "b\udcffd", "split": "test"}).encode(),
         "model 'b\\udcffd' is not UTF-8 text"),
    ],
    ids=["not-utf8", "json-list", "no-matrix", "2x2-matrix", "fractional-cell",
         "lone-surrogate-model"],
)
def test_report_rejects_each_malformed_fragment_naming_it(tmp_path, capsys, payload, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    validation = tmp_path / "validation.json"
    validation.write_text(json.dumps({**_VALID_FRAGMENT, "split": "validation"}), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)

    assert main(["report", "--config", str(config), str(validation), str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: {bad}" in err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


def _write_fragments(tmp_path, splits):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    paths = []
    for i, split in enumerate(splits):
        path = tmp_path / f"fragment{i}.json"
        path.write_text(json.dumps({**_VALID_FRAGMENT, "split": split}), encoding="utf-8")
        paths.append(str(path))
    return config, paths


def test_report_rejects_a_fragment_of_another_split(tmp_path, capsys):
    config, paths = _write_fragments(tmp_path, ["validation", "test", "training"])
    assert main(["report", "--config", str(config), *paths]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: {paths[2]} has split 'training', not validation or test" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_report_rejects_a_repeated_model_and_split(tmp_path, capsys):
    config, paths = _write_fragments(tmp_path, ["validation", "test", "validation"])
    assert main(["report", "--config", str(config), *paths]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: {paths[2]} repeats the validation fragment of model 'm'" in err
    assert paths[0] in err
    assert not (tmp_path / "out" / "report.json").exists()


# Confusion matrices of 100 samples with 100, 99 and 90 correct.
_ACCURACY_1_00 = [[34, 0, 0], [0, 33, 0], [0, 0, 33]]
_ACCURACY_0_99 = [[33, 1, 0], [0, 33, 0], [0, 0, 33]]
_ACCURACY_0_90 = [[30, 4, 0], [0, 30, 3], [3, 0, 30]]


@pytest.mark.parametrize(
    "validation, test, printed, warned",
    [
        (_ACCURACY_1_00, _ACCURACY_0_90, "gap=+0.1000", True),
        (_ACCURACY_0_90, _ACCURACY_1_00, "gap=-0.1000", True),
        (_ACCURACY_1_00, _ACCURACY_0_99, "gap=+0.0100", False),
    ],
)
def test_report_warns_only_on_a_gap_above_the_threshold(
    tmp_path, capsys, validation, test, printed, warned
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    paths = []
    for split, matrix in (("validation", validation), ("test", test)):
        path = tmp_path / f"{split}.json"
        path.write_text(json.dumps({"model": "m", "split": split, "confusion_matrix": matrix}),
                        encoding="utf-8")
        paths.append(str(path))
    assert main(["report", "--config", str(config), *paths]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("m: ") and printed in line
    assert line.endswith(" [WARN: gap > 0.05]") == warned


def test_train_divergence_exits_with_numeric_code(tmp_path, capsys):
    """The unmodified update rule must surface as exit 3 with the last good
    parameters saved for inspection, not as a traceback."""
    corpus = make_separable_corpus(
        {Label.ham: 8, Label.spam: 6, Label.phishing: 6}, seed=2
    )
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json",
        [source],
        out,
        balance={"enabled": False},
        training={
            "train_batch_size": 64,  # full batch: one update per epoch
            "num_epochs": 30,
            "seed": 0,
            "optimizer": {
                "learning_rate": 1e-3,
                "weight_decay": 0.01,
                "epsilon": 1e-8,
                "variant": "paper",
            },
        },
    )
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK

    import numpy as np

    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(config)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err
    assert (out / "model.diverged.ckpt").exists()
    assert not (out / "model.ckpt").exists()


def test_train_divergence_first_seen_in_validation_exits_with_numeric_code(tmp_path, capsys):
    """A learning rate of 1e20 makes one full-batch update that a training
    step passes but the validation pass overflows: still exit 3 with the
    checkpoint written, not an input error."""
    corpus = make_separable_corpus({Label.ham: 8, Label.spam: 6, Label.phishing: 6}, seed=2)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(
        tmp_path / "config.json", [source], out, balance={"enabled": False},
        training={"train_batch_size": 64, "num_epochs": 2, "seed": 0,
                  "optimizer": {"learning_rate": 1e20}},
    )
    assert main(["prepare", "--config", str(config)]) == EXIT_OK
    assert main(["tokenizer-train", "--config", str(config)]) == EXIT_OK

    import numpy as np

    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(config)]) == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err
    assert (out / "model.diverged.ckpt").exists()
    assert not (out / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# classify


@pytest.fixture()
def zero_head_checkpoint(tmp_path):
    corpus = make_separable_corpus({Label.ham: 4, Label.spam: 4}, seed=1)
    vocab = train_vocab(corpus, vocab_size=280)
    vocab_path = tmp_path / "vocab.json"
    save_vocab(vocab, vocab_path)
    model_config = ModelConfig(
        num_layers=1, num_heads=2, d_model=16, d_ff=32, max_len=24,
        vocab_size=vocab.size, dropout_rate=0.0,
    )
    params = init(model_config, seed=0)
    params.tensors["classifier.weight"][:] = 0.0
    params.tensors["classifier.bias"][:] = 0.0
    checkpoint = Checkpoint(
        config=model_config,
        vocab_sha256=vocab_sha256(vocab),
        tensors=params.tensors,
    )
    ckpt_path = tmp_path / "zero.ckpt"
    save_checkpoint(checkpoint, ckpt_path)
    return ckpt_path, vocab_path


def test_classify_text_uniform_probabilities(zero_head_checkpoint, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
        "--text", "win a free prize now",
    ]) == EXIT_OK
    record = json.loads(capsys.readouterr().out.strip())
    # a zeroed classifier head scores every class identically; ties go to
    # the lowest label index
    assert record["label"] == "ham"
    assert record["probabilities"] == {"ham": 1 / 3, "spam": 1 / 3, "phishing": 1 / 3}


def test_classify_file_emits_one_line_per_text(zero_head_checkpoint, tmp_path, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    batch = tmp_path / "batch.txt"
    batch.write_text("first message\n\nsecond message\n", encoding="utf-8")
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
        "--file", str(batch),
    ]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # the blank line is skipped
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"label", "probabilities"}
        assert abs(sum(record["probabilities"].values()) - 1.0) < 1e-9


def test_classify_usage_errors(zero_head_checkpoint, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
    ]) == EXIT_USAGE
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
        "--text", "a", "--file", "b",
    ]) == EXIT_USAGE
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--text", "a",
    ]) == EXIT_USAGE
    capsys.readouterr()


def test_classify_rejects_mismatched_vocabulary(zero_head_checkpoint, tmp_path, capsys):
    ckpt_path, _ = zero_head_checkpoint
    other = make_separable_corpus({Label.ham: 4, Label.phishing: 4}, seed=99)
    other_vocab = train_vocab(other, vocab_size=270)
    other_path = tmp_path / "other_vocab.json"
    save_vocab(other_vocab, other_path)
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(other_path),
        "--text", "hello",
    ]) == EXIT_INPUT
    assert "does not match" in capsys.readouterr().err


def test_classify_rejects_corrupt_vocabulary(zero_head_checkpoint, tmp_path, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    doc = json.loads(vocab_path.read_text(encoding="utf-8"))
    doc["merges"][0][0] = "zz"  # not a token: neither a byte nor an earlier merge
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(bad),
        "--text", "hello",
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{bad}: merge 0: " in err
    assert "Traceback" not in err


def test_classify_rejects_a_vocabulary_learned_across_spaces(
    zero_head_checkpoint, tmp_path, capsys
):
    ckpt_path, vocab_path = zero_head_checkpoint
    doc = json.loads(vocab_path.read_text(encoding="utf-8"))
    del doc["format"]  # as the byte-level trainer wrote it
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(old), "--text", "hello",
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{old}: no format field" in err
    assert "run `ipsdm tokenizer-train` again" in err
    assert "Traceback" not in err


def test_classify_rejects_a_checkpoint_whose_tensors_do_not_fit_its_config(
    zero_head_checkpoint, tmp_path, capsys
):
    ckpt_path, vocab_path = zero_head_checkpoint
    short = tmp_path / "short_positions.ckpt"  # 12 position rows under max_len 24
    rewrite_checkpoint(ckpt_path, short, edit_tensors=lambda t: t.update(
        position_embedding=t["position_embedding"][:12]))
    assert main([
        "classify", "--checkpoint", str(short), "--vocab", str(vocab_path), "--text", "hi",
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{short} tensor position_embedding has shape [12, 16]" in err
    assert "Traceback" not in err


def test_classify_and_evaluate_reject_a_checkpoint_with_fewer_tokens_than_the_vocabulary(
    pipeline, tmp_path, capsys
):
    """A forged vocab_size, with the token table cut to match and the hash
    left alone, must not reach the embedding lookup."""
    config, out = pipeline
    forged = tmp_path / "small_vocab.ckpt"
    rewrite_checkpoint(
        out / "model.ckpt", forged,
        edit_tensors=lambda t: t.update(token_embedding=t["token_embedding"][:200]),
        edit_header=lambda h: h["model_config"].update(vocab_size=200),
    )
    vocab_size = load_vocab(out / "vocab.json").size
    for argv in (
        ["classify", "--checkpoint", str(forged), "--vocab", str(out / "vocab.json"),
         "--text", "free cash prize"],
        ["evaluate", "--config", str(config), "--checkpoint", str(forged),
         "--out", str(tmp_path / "fragment.json")],
    ):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"does not match the checkpoint's: {vocab_size} tokens, the model has 200" in err
        assert "Traceback" not in err
    assert not (tmp_path / "fragment.json").exists()


def test_classify_rejects_a_checkpoint_with_max_len_one(zero_head_checkpoint, tmp_path, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    forged = tmp_path / "max_len_1.ckpt"
    rewrite_checkpoint(
        ckpt_path, forged,
        edit_tensors=lambda t: t.update(position_embedding=t["position_embedding"][:1]),
        edit_header=lambda h: h["model_config"].update(max_len=1),
    )
    assert main([
        "classify", "--checkpoint", str(forged), "--vocab", str(vocab_path), "--text", "hi",
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{forged} has an invalid model config: max_len must be an integer >= 2" in err
    assert "Traceback" not in err


def test_classify_file_that_is_not_utf8_exits_input(zero_head_checkpoint, tmp_path, capsys):
    ckpt_path, vocab_path = zero_head_checkpoint
    batch = tmp_path / "latin1.txt"
    batch.write_bytes("caf\u00e9 prize\n".encode("latin-1"))
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
        "--file", str(batch),
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{batch} is not UTF-8 text" in err
    assert "Traceback" not in err


def test_classify_text_that_is_not_utf8_exits_input(zero_head_checkpoint, capsys):
    # Python decodes an argv byte that is not UTF-8 to a lone surrogate.
    ckpt_path, vocab_path = zero_head_checkpoint
    assert main([
        "classify", "--checkpoint", str(ckpt_path), "--vocab", str(vocab_path),
        "--text", os.fsdecode(b"caf\xff free cash"),
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: --text is not UTF-8 text" in err
    assert "Traceback" not in err


def test_evaluate_model_name_that_is_not_utf8_exits_input_before_writing(
    pipeline, tmp_path, capsys
):
    config, _ = pipeline
    fragment = tmp_path / "fragment.json"
    assert main([
        "evaluate", "--config", str(config), "--model-name", os.fsdecode(b"b\xffd"),
        "--out", str(fragment),
    ]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error: the model name is not UTF-8 text" in err
    assert "Traceback" not in err
    assert not fragment.exists()


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_subcommand_and_bad_flags_exit_usage(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["prepare", "--no-such-flag"]) == EXIT_USAGE
    assert main(["evaluate", "--split", "bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_subcommand_without_config_exits_usage(capsys):
    assert main(["prepare"]) == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_missing_config_file_exits_input(tmp_path, capsys):
    assert main(["prepare", "--config", str(tmp_path / "absent.json")]) == EXIT_INPUT
    assert "absent.json" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_input(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff{}")
    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"config file {config} is not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["report", "classify", "prepare"])
def test_directory_in_place_of_a_file_exits_input(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    argv = {
        "report": ["report", str(folder), "--config", str(config)],
        "classify": ["classify", "--checkpoint", str(folder), "--vocab", "x", "--text", "hi"],
        "prepare": ["prepare", "--config", str(folder)],
    }[command]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"input error: {folder}: Is a directory" in err
    assert "Traceback" not in err

def test_config_with_unknown_keys_is_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"daat": {}}), encoding="utf-8")
    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    assert "daat" in capsys.readouterr().err

    # the vocabulary fixes vocab_size and the classifier fixes num_labels
    for key, value in (("num_labels", 3), ("vocab_size", 300)):
        config = _write_config(
            tmp_path / "config.json", [tmp_path / "mail.csv"], tmp_path / "out",
            model={**SMALL_MODEL, key: value},
        )
        assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "unknown keys in config section 'model'" in err
        assert key in err


@pytest.mark.parametrize(
    "section, patch, env_seed, flags, named",
    [
        ("model", {"num_heads": 4, "d_model": 130}, None, [], "d_model"),
        ("model", {"dropout_rate": 1.5}, None, [], "dropout_rate"),
        ("model", {"pooling": "max"}, None, [], "pooling"),
        ("optimizer", {"variant": "nesterov"}, None, [], "variant"),
        ("optimizer", {"learning_rate": -1}, None, [], "learning_rate"),
        ("balance", {"k": 0}, None, [], "k must"),
        ("balance", {"beta": 2.0}, None, [], "beta"),
        ("split", {"seed": "abc"}, None, [], "split.seed"),
        ("tokenizer", {"vocab_size": "big"}, None, [], "tokenizer.vocab_size"),
        ("training", {"num_epochs": "3"}, None, [], "training.num_epochs"),
        (None, {}, "-1", [], "seed"),
        (None, {}, None, ["--seed", "-2"], "seed"),
        ("model", {"pooling": "mean"}, None, [], "pooling"),
    ],
)
def test_malformed_config_value_exits_input_before_writing(
    tmp_path, monkeypatch, capsys, section, patch, env_seed, flags, named
):
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=0)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    sections = {
        "split": {"seed": 0},
        "balance": {"k": 3},
        "tokenizer": {"vocab_size": 300},
        "model": dict(SMALL_MODEL),
        "training": {**SMALL_TRAINING, "optimizer": {}},
    }
    target = sections["training"]["optimizer"] if section == "optimizer" else sections.get(section, {})
    target.update(patch)
    config = _write_config(tmp_path / "config.json", [source], out, **sections)
    if env_seed is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)

    assert main(["prepare", "--config", str(config), *flags]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input error" in err
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("learning_rate", float("nan")), ("weight_decay", float("nan")),
     ("epsilon", float("inf")), ("clip_max_norm", float("nan"))],
)
def test_non_finite_optimizer_value_exits_input_before_writing(tmp_path, capsys, key, value):
    """json reads NaN and Infinity; NaN passes a `x < 0` check, and a NaN
    learning rate used to load, train and diverge (exit 3)."""
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=0)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out,
                           training={**SMALL_TRAINING, "optimizer": {key: value}})
    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    assert f"config section 'training.optimizer': {key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_max_len_below_two_exits_input_before_writing(tmp_path, capsys):
    """encode needs room for [cls] and [sep]; prepare must refuse the config
    rather than let balance or train fail on it later."""
    corpus = make_separable_corpus({Label.ham: 6, Label.spam: 6}, seed=0)
    source = _write_source_csv(tmp_path / "mail.csv", corpus)
    out = tmp_path / "out"
    config = _write_config(tmp_path / "config.json", [source], out,
                           model={**SMALL_MODEL, "max_len": 1})
    assert main(["prepare", "--config", str(config)]) == EXIT_INPUT
    assert "config section 'model': max_len must be an integer >= 2, got 1" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_report_does_not_warn_on_a_gap_of_exactly_the_threshold(tmp_path, capsys):
    """Validation 20/20 against test 19/20: 1.0 - 0.95 is 0.050000000000000044
    in floats, yet the gap is 0.05, not above it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}), encoding="utf-8")
    paths = []
    for split, matrix in (("validation", [[7, 0, 0], [0, 7, 0], [0, 0, 6]]),
                          ("test", [[7, 0, 0], [0, 6, 1], [0, 0, 6]])):
        path = tmp_path / f"{split}.json"
        path.write_text(json.dumps({"model": "m", "split": split, "confusion_matrix": matrix}),
                        encoding="utf-8")
        paths.append(str(path))
    assert main(["report", "--config", str(config), *paths]) == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line == "m: val_accuracy=1.0000 test_accuracy=0.9500 gap=+0.0500"


# ---------------------------------------------------------------------------
# start-up imports

# Runs one stage in a fresh interpreter where the modules named by the first
# argument (comma-separated) cannot be imported. As the last line of stdout it
# prints the scipy and numpy modules loaded after `import ipsdm`, after
# `import ipsdm.cli` and after the stage.
_IMPORT_PROBE = """
import json, sys

for name in sys.argv.pop(1).split(","):
    sys.modules[name] = None  # any `import <name>...` now raises ImportError

def loaded():
    return {name: sorted(m for m in sys.modules
                         if m.partition(".")[0] == name and sys.modules[m] is not None)
            for name in ("scipy", "numpy")}

import ipsdm
after_package = loaded()
import ipsdm.cli
after_cli = loaded()
code = ipsdm.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "package": after_package, "cli": after_cli,
                  "stage": loaded()}))
"""
_NONE_LOADED = {"scipy": [], "numpy": []}


@pytest.fixture(scope="module")
def startup_dirs(tmp_path_factory):
    """Prepared, tokenized (and, when balanced, balanced and trained) output
    directories for a class-balanced and an imbalanced corpus, plus report
    fragments."""
    root = tmp_path_factory.mktemp("startup")
    dirs = {}
    for name, counts, seed in (
        ("balanced", {Label.ham: 10, Label.spam: 10, Label.phishing: 10}, 9),
        ("imbalanced", {Label.ham: 30, Label.spam: 20, Label.phishing: 10}, 7),
    ):
        source = _write_source_csv(root / f"{name}.csv", make_separable_corpus(counts, seed=seed))
        config = _write_config(
            root / f"{name}.json", [source], root / name,
            training={**SMALL_TRAINING, "num_epochs": 1},
        )
        for stage in ("prepare", "tokenizer-train"):
            assert main([stage, "--config", str(config)]) == EXIT_OK
        dirs[name] = (config, root / name)
    config, out = dirs["balanced"]
    for stage in ("balance", "train"):
        assert main([stage, "--config", str(config)]) == EXIT_OK
    for split in ("validation", "test"):
        (out / f"{split}.json").write_text(
            json.dumps({**_VALID_FRAGMENT, "split": split}), encoding="utf-8")
    return dirs


@pytest.mark.parametrize(
    "corpus, stage, uses_numpy",
    [
        ("balanced", ["prepare"], False),
        ("balanced", ["tokenizer-train"], False),
        ("balanced", ["report", "{out}/validation.json", "{out}/test.json"], False),
        ("balanced", ["report", "{out}/validation.json", "{out}/test.json", "--svg"], False),
        ("balanced", ["balance"], False),
        ("imbalanced", ["balance"], True),
        ("balanced", ["train"], True),
        ("balanced", ["evaluate", "--out", "{out}/evaluated.json"], True),
        ("balanced", ["classify", "--checkpoint", "{out}/model.ckpt", "--text", "free cash"], True),
    ],
    ids=["prepare", "tokenizer-train", "report", "report-svg", "balance-noop", "balance", "train",
         "evaluate", "classify"],
)
def test_each_stage_imports_scipy_only_where_it_computes(startup_dirs, corpus, stage, uses_numpy):
    """Each stage loads only what it computes with. No stage computes with
    scipy, so every stage runs, and exits 0, with scipy unimportable; the
    imbalanced balance plans and synthesizes ADASYN samples on numpy alone,
    and the model stages run on numpy alone too. prepare,
    tokenizer-train, report and the balance of an already balanced split
    compute nothing with numpy either, and run with it unimportable too. `import ipsdm` and `import ipsdm.cli` load
    neither, whatever the stage."""
    config, out = startup_dirs[corpus]
    argv = [arg.format(out=out) for arg in stage] + ["--config", str(config)]
    blocked = "scipy" if uses_numpy else "scipy,numpy"
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    src = str(Path(ipsdm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, blocked, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == EXIT_OK, proc.stderr
    assert probe["package"] == _NONE_LOADED
    assert probe["cli"] == _NONE_LOADED
    assert probe["stage"]["scipy"] == []
    if corpus == "imbalanced":
        balanced = read_split_csv(out / "train_balanced.csv")
        assert any(s.source_id == "adasyn" for s in balanced.samples)
    if "--svg" in stage:
        assert (out / "report.svg").read_text(encoding="utf-8").startswith("<svg")


# Settings that moved to ipsdm.config and metrics, under the names their old
# modules still give them.
_MOVED = [
    ("model", "ModelConfig", "config"),
    ("optim", "OptimizerHyperparams", "config"),
    ("optim", "VARIANTS", "config"),
    ("optim", "SCHEDULES", "config"),
    ("trainer", "EarlyStopping", "config"),
    ("trainer", "TrainingConfig", "config"),
    ("trainer", "EARLY_STOP_METRICS", "config"),
    ("balance", "DEFAULT_K", "config"),
    ("balance", "DEFAULT_BETA", "config"),
    ("balance", "check_params", "config"),
    ("balance", "balance_report", "corpus"),
]


def test_package_names_resolve_to_their_home_modules():
    """ipsdm's public names load lazily: each resolves to the object of the
    same name in the module that defines it, and dir(ipsdm) lists it. A
    setting that moved is still found under its old module."""
    for name in ipsdm.__all__:
        assert name in dir(ipsdm)
        value = getattr(ipsdm, name)
        if name == "__version__":
            continue
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("ipsdm.")
        assert getattr(home, name) is value, name
    for old, name, new in _MOVED:
        old_value = getattr(importlib.import_module(f"ipsdm.{old}"), name)
        assert old_value is getattr(importlib.import_module(f"ipsdm.{new}"), name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        ipsdm.no_such_name
