"""Smoke test of the benchmark harness itself, on the tiny `smoke` workload.

    python3 -m pytest perfbench/test_smoke.py -q

Every metric BENCHMARK.json names must be printed with its unit, the
correctness gate must fire on a damaged or non-repeatable history.tsv,
a run must leave no state behind, tracing must refuse to drop a span,
and the harness must refuse to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from pipeline import Pass, check_history  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HISTORY = (
    "epoch\trecon\tkl\tl1\tbeta\ttotal\tval_micro_f1\tval_cosine\n"
    "0\t0.9\t0.1\t0\t0\t0.9\t0.2\t0.3\n"
    "1\t0.8\t0.2\t0\t4e-06\t0.8\t0.3\t0.4\n"
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(spec, trace, section):
    out = result("--trace", trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    # every stage once per pass, plus the repeated train and nine set-up probes untraced
    assert out["attempted"] == (16 if trace == "1" else 18)
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_gate_fires_on_corrupted_history():
    out = result("--trace", "0", "--corrupt-history")
    assert out["correct"] is False
    # the damaged first call, and the repeat whose history no longer matches it
    assert out["failed"] >= 2


def test_runs_keep_no_state():
    result("--trace", "0")
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-work"))


def test_repeated_train_must_write_the_same_history(tmp_path):
    run = Pass(WORKLOADS["smoke"], 3, str(tmp_path))
    os.makedirs(run.paths["run"])
    with open(run.paths["history"], "w", encoding="utf-8") as fh:
        fh.write(HISTORY)
    assert run.check("train", "trained\n") == ["no checkpoint written"]
    assert run.check_repeat("train", "trained\n", "trained\n") == []
    with open(run.paths["history"], "w", encoding="utf-8") as fh:
        fh.write(HISTORY.replace("0.8", "0.80001"))
    assert any("history.tsv sha256" in p for p in run.check_repeat("train", "trained\n", "trained\n"))
    assert run.check_repeat("embed", "b\n", "a\n")


def test_check_history_rejects_damage():
    assert check_history(HISTORY, 2) == []
    assert check_history(HISTORY, 3)  # a missing epoch
    assert check_history(HISTORY.replace("0.3\t0.4", "nan\t0.4"), 2)
    assert check_history(HISTORY.replace("\n1\t", "\n7\t"), 2)
    assert check_history(HISTORY.replace("0.8", "x"), 2)


def test_trace_refuses_a_binding_it_cannot_wrap(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from somatic_vae import layers, optim, vae

    monkeypatch.setattr(vae, "_kept", (layers.stack_forward,), raising=False)
    with pytest.raises(spans.TraceError, match="container"):
        spans.install(spans.Tracer())
    monkeypatch.undo()
    monkeypatch.delattr(optim, "rmsprop_update")
    with pytest.raises(spans.TraceError, match="rmsprop_update is missing"):
        spans.install(spans.Tracer())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
