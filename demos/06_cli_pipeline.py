#!/usr/bin/env python3
"""
Drive the whole pipeline through the command-line entry point exactly as a
shell user would: write a config, then run prepare, tokenizer-train, balance,
train, evaluate, and report against a scratch directory that is removed
when the demo ends.
"""

import csv
import json
import tempfile
from pathlib import Path

from ipsdm.cli import main as ipsdm

HAM = ["meeting agenda attached for monday", "lunch order closes at noon",
       "printer on two is jammed", "quarterly numbers attached here",
       "standup notes from this morning", "dentist reminder for friday"]
SPAM = ["win a free prize right now", "free cash offer claim today",
        "cheap meds limited time offer", "you won a gift card today"]
PHISHING = ["verify your account immediately", "password expires click to reset"]


def write_source(path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Email", "Category"])
        for texts, label in ((HAM, "ham"), (SPAM, "spam"), (PHISHING, "phishing")):
            for i, text in enumerate(texts * 5):
                writer.writerow([f"{text} {i}", label])


def main():
    with tempfile.TemporaryDirectory(prefix="ipsdm-demo-") as scratch:
        run(Path(scratch))


def run(root: Path) -> None:
    source = root / "mail.csv"
    write_source(source)
    out = root / "out"

    config = root / "config.json"
    config.write_text(json.dumps({
        "data": {"sources": [{"path": str(source)}]},
        "split": {"seed": 0},
        "balance": {"k": 5, "beta": 1.0},
        "tokenizer": {"vocab_size": 400},
        "model": {"num_layers": 1, "num_heads": 2, "d_model": 32, "d_ff": 64,
                  "max_len": 48, "dropout_rate": 0.1},
        "training": {"train_batch_size": 8, "num_epochs": 4, "seed": 0,
                     "optimizer": {"learning_rate": 1e-3}},
        "output_dir": str(out),
    }, indent=2), encoding="utf-8")
    print(f"scratch directory: {root}")

    stages = (
        ["prepare", "--config", str(config)],
        ["tokenizer-train", "--config", str(config)],
        ["balance", "--config", str(config)],
        ["train", "--config", str(config)],
        ["evaluate", "--config", str(config), "--split", "validation", "--model-name", "demo"],
        ["evaluate", "--config", str(config), "--split", "test", "--model-name", "demo"],
        ["report", "--config", str(config), "--svg",
         str(out / "report_validation.json"), str(out / "report_test.json")],
    )
    for argv in stages:
        print(f"\n$ ipsdm {' '.join(argv)}")
        code = ipsdm(argv)
        assert code == 0, f"stage failed with exit code {code}"

    manifest = json.loads((out / "manifest.json").read_text())
    print(f"\nmanifest: {manifest['total']} samples, splits "
          f"{ {k: v['size'] for k, v in manifest['splits'].items()} }")
    print("artifacts written:")
    for artifact in sorted(out.iterdir()):
        print(f"  {artifact.name} ({artifact.stat().st_size} bytes)")

    # classify a fresh message with the trained model
    print("\n$ ipsdm classify --text 'win a free prize today'")
    ipsdm(["classify", "--config", str(config),
           "--checkpoint", str(out / "model.ckpt"),
           "--text", "win a free prize today"])


if __name__ == "__main__":
    main()
