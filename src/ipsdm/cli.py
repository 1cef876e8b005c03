"""Command-line pipeline: prepare | balance | tokenizer-train | train |
evaluate | classify | report.

Stages communicate only through files under the configured output directory:

    prepare         train.csv val.csv test.csv manifest.json
    tokenizer-train vocab.json
    balance         train_balanced.csv balance_report.json
    train           model.ckpt history.json
    evaluate        report_<split>.json
    report          report.csv report.json [report.svg]

A single JSON config file drives every stage; a few flags override individual
values, and the IPSDM_SEED environment variable overrides every seed. Exit
codes: 0 success, 2 input error, 3 numeric failure, 64 usage error.
"""

import argparse
import hashlib
import importlib
import json
import logging
import os
import sys
import types
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__
from .config import DEFAULT_BETA, DEFAULT_K, ModelConfig, TrainingConfig, check_params
from .corpus import (
    DEFAULT_LABEL_COLUMN,
    DEFAULT_TEXT_COLUMN,
    Label,
    SplitSpec,
    balance_report,
    load_csv,
    majority_and_minority,
    merge,
    read_split_csv,
    save_split_csv,
    split,
)
from .errors import (
    ConfigError,
    DivergedLoss,
    InputError,
    IpsdmError,
    NumericError,
    UsageError,
)
from .metrics import (
    OVERFIT_GAP_THRESHOLD,
    ModelReport,
    SplitScores,
    emit_report_csv,
    emit_report_json,
    gap_warns,
    render_report_svg,
    split_scores_from_dict,
)
from .tokenizer import (
    DEFAULT_MAX_LEN, check_vocab_size, load_vocab, save_vocab, train_vocab, vocab_sha256,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

SEED_ENV_VAR = "IPSDM_SEED"

SPLIT_FILES = {"train": "train.csv", "validation": "val.csv", "test": "test.csv"}


# ---------------------------------------------------------------------------
# the numpy stages' library calls
#
# Only balance (when some class is short of the majority), train, evaluate
# and classify compute with numpy, so this module imports no module that
# loads it. These names forward to their home module at call time; each of
# those commands imports its modules before its first library call. The
# commands look the names up here, where a tracer may wrap them.


def _forward(module: str, name: str):
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


balance_corpus = _forward("balance", "balance_corpus")
run_training = _forward("trainer", "train")
evaluate_checkpoint = _forward("trainer", "evaluate")
save_checkpoint = _forward("trainer", "save_checkpoint")
load_checkpoint = _forward("trainer", "load_checkpoint")
check_vocabulary = _forward("trainer", "check_vocabulary")
predict = _forward("model", "predict")


def _import_compute(*modules: str) -> None:
    for module in modules:
        importlib.import_module(f"{__package__}.{module}")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SourceConfig:
    path: str
    text_column: str = DEFAULT_TEXT_COLUMN
    label_column: str = DEFAULT_LABEL_COLUMN


@dataclass(frozen=True)
class BalanceSettings:
    enabled: bool = True
    k: int = DEFAULT_K
    beta: float = DEFAULT_BETA

    def validate(self) -> None:
        check_params(self.k, self.beta)


@dataclass(frozen=True)
class TokenizerSettings:
    vocab_size: int = 8192

    def validate(self) -> None:
        check_vocab_size(self.vocab_size)


@dataclass(frozen=True)
class PipelineConfig:
    sources: list[SourceConfig]
    split: SplitSpec
    balance: BalanceSettings
    tokenizer: TokenizerSettings
    training: TrainingConfig  # model.vocab_size is 0 until train reads vocab.json
    output_dir: Path

    def path(self, name: str) -> Path:
        return self.output_dir / name

    def validate(self) -> None:
        """Range-check every section, naming the section of the first bad value."""
        sections = {
            "split": self.split,
            "balance": self.balance,
            "tokenizer": self.tokenizer,
            "model": self.training.model,
            "training.optimizer": self.training.optimizer,
            "training.early_stopping": self.training.early_stopping,
            "training": self.training,
        }
        for name, settings in sections.items():
            try:
                settings.validate()
            except (ValueError, InputError) as err:
                raise ConfigError(f"config section {name!r}: {err}") from None


# The architecture sizes ModelConfig has no default for: a desk-scale model.
_MODEL_DEFAULTS = {
    "num_layers": 2, "num_heads": 4, "d_model": 128, "d_ff": 256, "max_len": DEFAULT_MAX_LEN,
}


def _matches(value, kind) -> bool:
    """Whether a JSON value fits a field annotation; an int fits a float."""
    if isinstance(kind, types.UnionType):
        return any(_matches(value, option) for option in get_args(kind))
    return type(value) is kind or (kind is float and type(value) is int)


def _from_section(cls, data, section: str, defaults=None, rejected=()):
    """Build the dataclass cls from one config object.

    Its keys are cls's fields except `rejected`; each value must match the
    field's annotation, and a dataclass-typed field is read from a nested
    object the same way. `defaults` fills in fields the object leaves out.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    unknown = set(data) - ({f.name for f in fields(cls)} - set(rejected))
    if unknown:
        raise ConfigError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    values = dict(defaults or {})
    for key, value in data.items():
        kind = hints[key]
        if is_dataclass(kind):
            value = _from_section(kind, value, f"{section}.{key}")
        elif not _matches(value, kind):
            name = getattr(kind, "__name__", str(kind))
            raise ConfigError(f"config key {section}.{key} must be {name}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except TypeError as err:
        raise ConfigError(f"config section {section!r}: {err}") from None


def load_config(path) -> PipelineConfig:
    """Read a config file into the library's dataclasses.

    Keys and value types are checked here; value ranges by
    PipelineConfig.validate(), once the overrides are applied.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - {"data", "split", "balance", "tokenizer", "model", "training", "output_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    data = doc.get("data", {})
    if not isinstance(data, dict) or set(data) - {"sources"}:
        raise ConfigError("config section 'data' must be an object whose only key is 'sources'")
    sources = data.get("sources", [])
    if not isinstance(sources, list):
        raise ConfigError("data.sources must be a list")
    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

    model = _from_section(
        ModelConfig, doc.get("model", {}), "model",
        defaults={**_MODEL_DEFAULTS, "vocab_size": 0}, rejected=("vocab_size", "num_labels"),
    )
    return PipelineConfig(
        sources=[
            _from_section(SourceConfig, entry, f"data.sources[{i}]")
            for i, entry in enumerate(sources)
        ],
        split=_from_section(SplitSpec, doc.get("split", {}), "split"),
        balance=_from_section(BalanceSettings, doc.get("balance", {}), "balance"),
        tokenizer=_from_section(TokenizerSettings, doc.get("tokenizer", {}), "tokenizer"),
        training=_from_section(
            TrainingConfig, doc.get("training", {}), "training",
            defaults={"model": model}, rejected=("model",),
        ),
        output_dir=Path(output_dir),
    )


def _apply_overrides(config: PipelineConfig, args) -> PipelineConfig:
    """Precedence: flags > IPSDM_SEED > config file."""
    seed = os.environ.get(SEED_ENV_VAR)
    if seed is not None:
        try:
            seed = int(seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {seed!r}") from None
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    split_spec, training, tokenizer = config.split, config.training, config.tokenizer
    if seed is not None:
        split_spec = replace(split_spec, seed=seed)
        training = replace(training, seed=seed)
    if getattr(args, "num_epochs", None) is not None:
        training = replace(training, num_epochs=args.num_epochs)
    if getattr(args, "vocab_size", None) is not None:
        tokenizer = replace(tokenizer, vocab_size=args.vocab_size)
    output_dir = getattr(args, "output_dir", None)
    return replace(
        config,
        split=split_spec,
        training=training,
        tokenizer=tokenizer,
        output_dir=config.output_dir if output_dir is None else Path(output_dir),
    )


def _config_from_args(args) -> PipelineConfig:
    if getattr(args, "config", None) is None:
        raise UsageError("this subcommand requires --config")
    config = _apply_overrides(load_config(args.config), args)
    config.validate()
    return config


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _utf8_text(value: str, what: str) -> str:
    """The value, unless it holds a lone surrogate and so cannot be written as
    UTF-8. Python decodes an argv byte that is not UTF-8 to one (surrogateescape),
    and JSON's "\\udcff" escape parses to one."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as err:
        raise InputError(f"{what} is not UTF-8 text: {err}") from None
    return value


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args) -> int:
    config = _config_from_args(args)
    if not config.sources:
        raise ConfigError("config lists no data sources to prepare")
    corpora = []
    source_entries = []
    for source in config.sources:
        corpus, stats = load_csv(
            source.path, text_column=source.text_column, label_column=source.label_column
        )
        log.info(
            "loaded %d samples from %s (skipped: %d unknown label, %d empty)",
            stats.loaded, source.path, stats.unknown_label, stats.empty_text,
        )
        for row, value in stats.unknown_label_rows[:10]:
            log.warning("row %d of %s: unknown label %r", row, source.path, value)
        corpora.append(corpus)
        source_entries.append(
            {
                "path": source.path,
                "sha256": _file_sha256(Path(source.path)),
                "loaded": stats.loaded,
                "skipped_unknown_label": stats.unknown_label,
                "skipped_empty_text": stats.empty_text,
            }
        )
    full = merge(corpora)
    train_split, val_split, test_split = split(full, config.split)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    splits = {"train": train_split, "validation": val_split, "test": test_split}
    manifest_splits = {}
    for name, part in splits.items():
        filename = SPLIT_FILES[name]
        save_split_csv(part, config.path(filename), name)
        manifest_splits[name] = {
            "path": filename,
            "size": len(part),
            "class_counts": part.label_counts(),
        }
    manifest = {
        "total": len(full),
        "class_counts": full.label_counts(),
        "seed": config.split.seed,
        "stratified": config.split.stratified,
        "fractions": {
            "train": config.split.train_fraction,
            "val": config.split.val_fraction,
            "test": config.split.test_fraction,
        },
        "splits": manifest_splits,
        "sources": source_entries,
    }
    _write_json(config.path("manifest.json"), manifest)
    log.info(
        "prepared %d samples -> train %d / val %d / test %d",
        len(full), len(train_split), len(val_split), len(test_split),
    )
    return EXIT_OK


def cmd_tokenizer_train(args) -> int:
    config = _config_from_args(args)
    corpus = read_split_csv(config.path(SPLIT_FILES["train"]))
    vocab = train_vocab(corpus, config.tokenizer.vocab_size)
    save_vocab(vocab, config.path("vocab.json"))
    log.info(
        "trained vocabulary: %d tokens (%d merges), sha256 %s",
        vocab.size, len(vocab.merges), vocab_sha256(vocab)[:12],
    )
    return EXIT_OK


def cmd_balance(args) -> int:
    config = _config_from_args(args)
    if not config.balance.enabled:
        print("balancing is disabled in the config; nothing to do")
        return EXIT_OK
    corpus = read_split_csv(config.path(SPLIT_FILES["train"]))
    vocab = load_vocab(config.path("vocab.json"))
    max_len = config.training.model.max_len
    majority, minority = majority_and_minority(corpus.class_counts)
    if minority:
        _import_compute("balance")
        balanced, plan = balance_corpus(
            corpus, vocab,
            k=config.balance.k, beta=config.balance.beta,
            seed=config.split.seed, max_len=max_len,
        )
        targets = {Label(c).name: g for c, g in plan.targets}
        excluded = len(plan.excluded)
    else:
        # Nothing to plan, so nothing is encoded: a content window is empty
        # only for an empty text, or for every text at max_len 2.
        balanced, targets = corpus, {}
        excluded = sum(1 for s in corpus.samples if max_len == 2 or not s.text)
    save_split_csv(balanced, config.path("train_balanced.csv"), "train")
    report = balance_report(corpus, balanced)
    report["plan"] = {
        "k": config.balance.k,
        "beta": config.balance.beta,
        "majority_label": Label(majority).name,
        "targets": targets,
        "total_synthetic": len(balanced) - len(corpus),
        "excluded_empty": excluded,
    }
    _write_json(config.path("balance_report.json"), report)
    if not minority:
        print("classes are already balanced; output equals input")
    else:
        log.info(
            "balanced training split: %s -> %s",
            report["before"], report["after"],
        )
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    _import_compute("trainer")
    train_file = "train_balanced.csv" if config.balance.enabled else SPLIT_FILES["train"]
    train_path = config.path(train_file)
    if config.balance.enabled and not train_path.exists():
        raise InputError(
            f"{train_path} not found; run the balance stage first (or disable balancing)"
        )
    train_split = read_split_csv(train_path)
    val_split = read_split_csv(config.path(SPLIT_FILES["validation"]))
    vocab = load_vocab(config.path("vocab.json"))
    training_config = replace(
        config.training, model=replace(config.training.model, vocab_size=vocab.size)
    )
    try:
        checkpoint, history = run_training(training_config, train_split, val_split, vocab)
    except DivergedLoss as err:
        if err.checkpoint is not None:
            save_checkpoint(err.checkpoint, config.path("model.diverged.ckpt"))
            log.error("training diverged; last good parameters saved to model.diverged.ckpt")
        raise
    save_checkpoint(checkpoint, config.path("model.ckpt"))
    _write_json(config.path("history.json"), [r.as_dict() for r in history])
    log.info(
        "training finished: best epoch %s (val %s=%.4f), checkpoint %s",
        checkpoint.best_epoch, training_config.early_stopping.metric,
        checkpoint.best_metric, config.path("model.ckpt"),
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    _import_compute("trainer")
    checkpoint_path = Path(args.checkpoint) if args.checkpoint else config.path("model.ckpt")
    model_name = _utf8_text(args.model_name or checkpoint_path.stem, "the model name")
    checkpoint = load_checkpoint(checkpoint_path)
    vocab = load_vocab(config.path("vocab.json"))
    corpus = read_split_csv(config.path(SPLIT_FILES[args.split]))
    scores = evaluate_checkpoint(
        checkpoint, corpus, vocab,
        split_name=args.split,
        batch_size=config.training.val_batch_size,
    )
    fragment = {"model": model_name, **scores.as_dict()}
    out_path = Path(args.out) if args.out else config.path(f"report_{args.split}.json")
    _write_json(out_path, fragment)
    print(json.dumps(fragment, sort_keys=True))
    return EXIT_OK


def cmd_classify(args) -> int:
    if args.text is None and args.file is None:
        raise UsageError("classify needs --text or --file")
    if args.text is not None and args.file is not None:
        raise UsageError("--text and --file are mutually exclusive")
    _import_compute("trainer", "model")
    checkpoint = load_checkpoint(args.checkpoint)
    if args.vocab:
        vocab_path = Path(args.vocab)
    elif args.config:
        vocab_path = _config_from_args(args).path("vocab.json")
    else:
        raise UsageError("classify needs --vocab (or --config to locate vocab.json)")
    vocab = load_vocab(vocab_path)
    check_vocabulary(checkpoint, vocab)
    params = checkpoint.model_parameters()
    if args.text is not None:
        texts = [_utf8_text(args.text, "--text")]
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                texts = [line.rstrip("\n") for line in fh if line.strip()]
        except UnicodeDecodeError as err:
            raise InputError(f"{args.file} is not UTF-8 text: {err}") from None
    for text in texts:
        label, probs = predict(params, vocab, text)
        print(
            json.dumps(
                {
                    "label": label.name,
                    "probabilities": {Label(i).name: float(p) for i, p in enumerate(probs)},
                },
                sort_keys=True,
            )
        )
    return EXIT_OK


def _fragment_scores(path, doc: dict) -> SplitScores:
    try:
        return split_scores_from_dict(doc)
    except InputError as err:
        raise InputError(f"{path} is not a valid report fragment: {err}") from None


def cmd_report(args) -> int:
    config = _config_from_args(args)
    by_model: dict[str, dict[str, tuple[str, dict]]] = {}
    for path in args.fragments:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise InputError(f"{path} is not a valid report fragment: {err}") from None
        if not (isinstance(doc, dict) and isinstance(doc.get("model"), str)
                and isinstance(doc.get("split"), str)):
            raise InputError(f"{path} lacks 'model'/'split' keys; not an evaluate output")
        _utf8_text(doc["model"], f"{path} model {doc['model']!r}")
        if doc["split"] not in ("validation", "test"):
            raise InputError(f"{path} has split {doc['split']!r}, not validation or test")
        parts = by_model.setdefault(doc["model"], {})
        if doc["split"] in parts:
            raise InputError(f"{path} repeats the {doc['split']} fragment of model "
                             f"{doc['model']!r} from {parts[doc['split']][0]}")
        parts[doc["split"]] = (path, doc)
    reports = []
    for model, parts in by_model.items():
        missing = {"validation", "test"} - set(parts)
        if missing:
            raise InputError(f"model {model!r} is missing {sorted(missing)} fragment(s)")
        reports.append(
            ModelReport(
                model=model,
                validation=_fragment_scores(*parts["validation"]),
                test=_fragment_scores(*parts["test"]),
            )
        )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    emit_report_csv(reports, config.path("report.csv"))
    emit_report_json(reports, config.path("report.json"))
    written = [config.path("report.csv"), config.path("report.json")]
    if args.svg:
        render_report_svg(reports, config.path("report.svg"))
        written.append(config.path("report.svg"))
    for report in reports:
        gap = report.overfit_gap
        marker = f" [WARN: gap > {OVERFIT_GAP_THRESHOLD}]" if gap_warns(gap) else ""
        print(
            f"{report.model}: val_accuracy={report.validation.scores.accuracy:.4f} "
            f"test_accuracy={report.test.scores.accuracy:.4f} gap={gap:+.4f}{marker}"
        )
    log.info("wrote %s", ", ".join(str(p) for p in written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for input errors here
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ipsdm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--output-dir", help="override the config's output directory")
        p.add_argument("--seed", type=int, help="override every configured seed")
        return p

    add("prepare", cmd_prepare, "load sources, split, write CSVs + manifest")

    p = add("tokenizer-train", cmd_tokenizer_train, "learn a byte-pair vocabulary from the training split")
    p.add_argument("--vocab-size", type=int, help="override tokenizer.vocab_size")

    add("balance", cmd_balance, "oversample minority classes in the training split")

    p = add("train", cmd_train, "fine-tune the classifier")
    p.add_argument("--num-epochs", type=int, help="override training.num_epochs")

    p = add("evaluate", cmd_evaluate, "score a checkpoint on a split")
    p.add_argument("--checkpoint", help="checkpoint path (default: <output_dir>/model.ckpt)")
    p.add_argument("--split", choices=sorted(SPLIT_FILES), default="test")
    p.add_argument("--model-name", help="name used in report fragments")
    p.add_argument("--out", help="fragment output path")

    p = add("classify", cmd_classify, "classify one text or a file of texts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", help="vocabulary JSON path")
    p.add_argument("--text", help="single text to classify")
    p.add_argument("--file", help="file with one text per line")

    p = add("report", cmd_report, "combine evaluate outputs into comparison CSV/JSON")
    p.add_argument("fragments", nargs="+", help="evaluate output JSON files")
    p.add_argument("--svg", action="store_true", help="also render a bar chart")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:  # a path that is missing, a directory, unreadable, ...
        if err.filename is None:
            print(f"input error: {err}", file=sys.stderr)
        else:
            print(f"input error: {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except IpsdmError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
