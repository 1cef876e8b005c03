#!/usr/bin/env python3
"""Benchmark of the ipsdm pipeline, run from outside the package.

    python3 bench/run.py --workload email|sms|classify --seed N --seconds S --trace 0|1 [--smoke]

Each run generates a seeded, keyword-separable corpus, runs `ipsdm prepare`
three times as set-up, then the six other CLI stages (tokenizer-train,
balance, train, evaluate on validation and test, classify --file, report),
each in its own child process, and finally a closed loop of single
`ipsdm.model.predict` requests from one in-process client until S seconds
have passed since the first stage started. Stage wall time comes from the
parent's clock; CPU time and peak RSS from `os.wait4`, so they belong to the
stage's own process.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the run repeats the pipeline untraced (for the tracing overhead),
then traced (every stage under bench/tracing.py), then a fixed number of
traced predict requests, and the last line carries the per-layer metrics.
The line before it holds the details: environment, stage records, artifact
hashes and every check. See bench/README.md for the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import corpora  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
EQUAL_MIX = {"ham": 1, "spam": 1, "phishing": 1}
MODEL = {"num_layers": 2, "num_heads": 4, "d_model": 128, "d_ff": 256, "max_len": 128,
         "dropout_rate": 0.1, "pooling": "first_token"}
ARTIFACTS = ("vocab.json", "model.ckpt", "report_test.json")


@dataclass(frozen=True)
class Workload:
    kind: str            # corpus texts: "email" (long) or "sms" (short)
    samples: int
    mix: dict
    vocab_size: int
    epochs: int
    batch_size: int
    learning_rate: float
    requests: int = 1000  # minimum predict requests per run
    accuracy_floor: float = 0.85


WORKLOADS = {
    # Long emails in the paper's class mix: tokenizer and ADASYN bound.
    "email": Workload("email", 100, corpora.PAPER_MIX, 512, 2, 8, 1e-3),
    # Short, class-balanced texts: model and optimizer bound, mostly padding.
    "sms": Workload("sms", 900, EQUAL_MIX, 1024, 2, 32, 2e-3),
    # The sms pipeline with a smaller vocabulary, so that the predict loop
    # (encode + batch-1 forward) is most of the run.
    "classify": Workload("classify", 900, EQUAL_MIX, 512, 2, 32, 2e-3),
}
LONG_FRAC = 0.1          # share of long emails among predict requests
TRACED_REQUESTS = 300
# Per-layer ratios that follow from the inputs alone, so they must repeat
# exactly between runs, like the counts.
COUNT_RATIOS = ("tokenizer.encode_unique_ratio", "tokenizer.truncated_frac",
                "model.useful_position_frac", "optim.touched_embedding_row_frac")


def smoke(w: Workload) -> Workload:
    """A few-second version that exercises every stage and check; the tiny
    model is not expected to learn, so the accuracy floor is dropped."""
    return replace(w, samples=30 if w.kind == "email" else 45, vocab_size=300, epochs=1,
                   requests=20, accuracy_floor=0.0)


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("IPSDM_SEED", None)
    return env


def run_child(argv: list[str], log_stem: Path) -> Child:
    """Run argv to completion; stdout/stderr go to log_stem.out/.err."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Ledger:
    """Operations attempted and failed (stages, requests, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def check(self, name: str, ok: bool, detail=None) -> bool:
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        return self.op(ok)


# ---------------------------------------------------------------------------
# the pipeline


class Run:
    def __init__(self, name: str, w: Workload, seed: int, trace: bool, smoke_size: bool):
        self.name, self.w, self.seed = name, w, seed
        self.dir = WORK / "runs" / f"{name}{'-smoke' if smoke_size else ''}-seed{seed}-trace{int(trace)}"
        self.out = self.dir / "out"
        self.config = self.dir / "config.json"
        self.run_id = f"{self.dir.name}-{os.getpid()}-{time.time_ns()}"
        self.ledger = Ledger()

    def ipsdm(self, *args: str) -> list[str]:
        return [*args, "--config", str(self.config)]

    def stages(self) -> list[tuple[str, list[str]]]:
        out = self.out
        return [
            ("tokenizer_train", self.ipsdm("tokenizer-train")),
            ("balance", self.ipsdm("balance")),
            ("train", self.ipsdm("train")),
            ("evaluate_validation",
             self.ipsdm("evaluate", "--split", "validation", "--model-name", "bench")),
            ("evaluate_test", self.ipsdm("evaluate", "--split", "test", "--model-name", "bench")),
            ("classify", ["classify", "--checkpoint", str(out / "model.ckpt"),
                          "--vocab", str(out / "vocab.json"), "--file", str(self.dir / "test.txt")]),
            ("report", self.ipsdm("report", str(out / "report_validation.json"),
                                  str(out / "report_test.json"))),
        ]

    def stage(self, name: str, args: list[str], traced: bool) -> Child:
        logs = self.dir / "logs"
        logs.mkdir(exist_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH / "tracing.py"), str(self.spans_path(name)),
                    self.run_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "ipsdm", *args]
        child = run_child(argv, logs / f"{name}{'.traced' if traced else ''}")
        self.ledger.op(child.code == 0)
        if child.code != 0:
            raise StageFailed(f"stage {name} exited {child.code}; see {logs}")
        return child

    def spans_path(self, stage: str) -> Path:
        (self.dir / "spans").mkdir(exist_ok=True)
        return self.dir / "spans" / f"{stage}.json"

    def set_up(self) -> tuple[float, Child]:
        """Generate the corpus, write the source CSV and config, and split it
        with `ipsdm prepare`; returns (seconds, the prepare child)."""
        start = time.perf_counter()
        w = self.w
        self.dir.mkdir(parents=True, exist_ok=True)
        counts = corpora.class_counts(w.samples, w.mix, minimum=5)
        rows = corpora.make_corpus(w.kind, counts, self.seed)
        corpora.write_source_csv(rows, self.dir / "source.csv")
        config = {
            "data": {"sources": [{"path": str(self.dir / "source.csv")}]},
            "split": {"seed": self.seed},
            "balance": {"enabled": True, "k": 5, "beta": 1.0},
            "tokenizer": {"vocab_size": w.vocab_size},
            "model": MODEL,
            "training": {"train_batch_size": w.batch_size, "val_batch_size": 64,
                         "num_epochs": w.epochs, "seed": self.seed,
                         "optimizer": {"learning_rate": w.learning_rate}},
            "output_dir": str(self.out),
        }
        self.config.write_text(json.dumps(config, indent=2), encoding="utf-8")
        child = self.stage("prepare", self.ipsdm("prepare"), traced=False)
        self.rows = rows
        return time.perf_counter() - start, child

    def test_texts(self) -> list[str]:
        """The test split's texts, also written one per line for classify --file."""
        with open(self.out / "test.csv", encoding="utf-8", newline="") as fh:
            texts = [row["text"] for row in csv.DictReader(fh)]
        (self.dir / "test.txt").write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        return texts

    def pipeline(self, traced: bool) -> dict[str, Child]:
        return {name: self.stage(name, args, traced) for name, args in self.stages()}

    def hashes(self) -> dict[str, str]:
        return {name: hashlib.sha256((self.out / name).read_bytes()).hexdigest()
                for name in ARTIFACTS}


class StageFailed(Exception):
    pass


def import_ipsdm():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ipsdm.model
    import ipsdm.tokenizer
    import ipsdm.trainer
    return ipsdm


def load_predictor(run: Run):
    ipsdm = import_ipsdm()
    vocab = ipsdm.tokenizer.load_vocab(run.out / "vocab.json")
    params = ipsdm.trainer.load_checkpoint(run.out / "model.ckpt").model_parameters()
    return ipsdm, params, vocab


def predict_loop(run: Run, requests: list[tuple[str, str]], deadline: float | None):
    """Closed loop, one client: send the next request when the previous one
    returns. Runs at least w.requests requests and, given a deadline, keeps
    going until it passes (or the distinct requests run out)."""
    ipsdm, params, vocab = load_predictor(run)
    latencies, correct = [], 0
    start = time.perf_counter()
    for i, (text, label) in enumerate(requests):
        if i >= run.w.requests and (deadline is None or time.perf_counter() >= deadline):
            break
        t0 = time.perf_counter()
        predicted, probs = ipsdm.model.predict(params, vocab, text)
        latencies.append(time.perf_counter() - t0)
        ok = bool(np.isfinite(probs).all()) and abs(float(probs.sum()) - 1.0) < 1e-6
        run.ledger.op(ok)
        correct += predicted.name == label
    wall = time.perf_counter() - start
    return latencies, wall, correct


def requests_for(run: Run, count: int) -> list[tuple[str, str]]:
    texts = corpora.request_mix(run.seed, count, LONG_FRAC)
    return [(t, corpora.keyword_label(t)) for t in texts]


# ---------------------------------------------------------------------------
# environment and determinism records


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError):
        pass
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_state() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "bench"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}  # not a git checkout
    return {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def environment() -> dict:
    import scipy
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git": git_state(),
        "source_sha256": source_digest(),
    }


def check_record(run: Run, kind: str, values: dict, digest: str) -> None:
    """Values that must repeat exactly between runs of the same code and
    seed are compared with the record the first such run left."""
    path = WORK / "records" / f"{run.dir.name.rsplit('-trace', 1)[0]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    if record.get("source_sha256") != digest:
        record = {"source_sha256": digest}
    previous = record.get(kind)
    if previous is None:
        record[kind] = values
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
        run.ledger.check(f"{kind}_repeat", True, "first run of this code and seed")
    else:
        differ = sorted(k for k in values if k in previous and previous[k] != values[k])
        run.ledger.check(f"{kind}_repeat", not differ, differ or "identical to the recorded run")


# ---------------------------------------------------------------------------
# one benchmark run


def median(values):
    return float(statistics.median(values))


def bench(name: str, seed: int, seconds: float, trace: bool, smoke_size: bool):
    w = smoke(WORKLOADS[name]) if smoke_size else WORKLOADS[name]
    run = Run(name, w, seed, trace, smoke_size)
    ledger = run.ledger
    shutil.rmtree(run.dir, ignore_errors=True)
    digest = source_digest()
    details = {"workload": name, "seed": seed, "smoke": smoke_size, "trace": int(trace),
               "run_id": run.run_id, "environment": environment()}

    setups = [run.set_up() for _ in range(SETUP_REPEATS)]
    ledger.check("corpus_separable",
                 all(corpora.keyword_label(t) == label for t, label in run.rows))
    test_texts = run.test_texts()
    # Distinct request texts, none of them in the corpus, generated before
    # the clock starts.
    requests = requests_for(run, min(w.requests, TRACED_REQUESTS) if trace else
                            max(w.requests, int(200 * seconds)))

    measure_start = time.perf_counter()
    stages = run.pipeline(traced=False)
    pipeline_s = sum(c.wall_s for c in stages.values())
    hashes = run.hashes()
    details["artifact_sha256"] = hashes
    check_record(run, "artifacts", hashes, digest)

    report = json.loads((run.out / "report_test.json").read_text())
    accuracy = float(report["accuracy"])
    ledger.check("test_accuracy_floor", accuracy >= w.accuracy_floor,
                 {"accuracy": accuracy, "floor": w.accuracy_floor})
    cli_labels = [json.loads(line)["label"]
                  for line in (run.dir / "logs" / "classify.out").read_text().splitlines()]
    ipsdm, params, vocab = load_predictor(run)
    labels = [ipsdm.model.predict(params, vocab, t)[0].name for t in test_texts]
    ledger.check("predict_matches_cli_classify", labels == cli_labels,
                 {"texts": len(test_texts),
                  "differ": sum(a != b for a, b in zip(labels, cli_labels))})
    details["stages"] = {k: vars(c) for k, c in stages.items()}

    if not trace:
        latencies, loop_wall, correct = predict_loop(run, requests, measure_start + seconds)
        lat_ms = [x * 1e3 for x in latencies]
        details["predict"] = {"requests": len(lat_ms), "per_s": len(lat_ms) / loop_wall,
                              "label_accuracy": correct / len(lat_ms)}
        metrics = {
            "setup_s": (median([s for s, _ in setups]), "s"),
            "pipeline_s": (pipeline_s, "s"),
            "predict_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "predict_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
            "peak_rss_mb": (max(c.rss_mb for c in [*stages.values()] + [c for _, c in setups]), "MB"),
            "test_accuracy": (accuracy, "fraction"),
        }
    else:
        traced = {name: run.stage(name, args, traced=True)
                  for name, args in [("prepare", run.ipsdm("prepare")), *run.stages()]}
        details["traced_stages"] = {k: vars(c) for k, c in traced.items()}
        ledger.check("tracing_leaves_artifacts_identical", run.hashes() == hashes)
        dumps = []
        for stage, child in traced.items():
            dump = json.loads(run.spans_path(stage).read_text())
            ledger.check(f"run_id_{stage}", dump["run_id"] == run.run_id)
            dumps.append({**dump, "wall_s": child.wall_s})

        tracer = tracing.Tracer(run.run_id)
        import_ipsdm()
        tracer.install(tracing.PREDICT_WRAPS)
        try:
            predict_loop(run, requests, None)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(dumps, tracer.dump(), MODEL)

        imports = [run_child([sys.executable, "-c", "import ipsdm.cli"],
                             run.dir / "logs" / "import") for _ in range(IMPORT_REPEATS)]
        for child in imports:
            ledger.op(child.code == 0)
        traced_s = sum(c.wall_s for k, c in traced.items() if k != "prepare")
        layer.update({
            "cli.import_s": (median([c.wall_s for c in imports]), "s"),
            "cli.prepare_s": (median([c.wall_s for _, c in setups]), "s"),
            "trace.overhead_s": (traced_s - pipeline_s, "s"),
            "trace.overhead_frac": ((traced_s - pipeline_s) / pipeline_s, "fraction"),
        })
        for stage, child in stages.items():  # untraced walls: too noisy to bound here
            layer[f"cli.{stage}_s"] = (child.wall_s, "s")
        for stage, child in [("prepare", setups[-1][1]), *stages.items()]:
            layer[f"cli.{stage}.cpu_s"] = (child.cpu_s, "s")
        counts = {k: v for k, (v, unit) in layer.items()
                  if unit in ("count", "bytes", "GFLOP") or k in COUNT_RATIOS}
        details["counts"] = counts
        check_record(run, "counts", counts, digest)
        metrics = layer

    details["checks"] = ledger.checks
    return run, details, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the benchmark's tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ipsdm" / "cli.py").is_file():
        print(f"error: {SRC / 'ipsdm'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    try:
        run, details, metrics = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                                      args.smoke)
    except StageFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    ledger = run.ledger
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    details["result"] = result
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run.dir.name}.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    if result["correct"]:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps({k: v for k, v in details.items() if k != "result"}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
