"""Tests of the benchmark itself: generator, checker, tracer, output contract.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
from strsolve import cli  # noqa: E402
from strsolve.snfa import set_validation  # noqa: E402
from worker import _outcome  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = gen.generate(workload, 7)
    again = gen.generate(workload, 7)
    other = gen.generate(workload, 8)
    assert [(i.name, i.text) for i in first] == [(i.name, i.text) for i in again]
    assert [i.text for i in first] != [i.text for i in other]
    assert len({i.name for i in first}) == len(first)


def _solve(inst, tmp_path):
    path = tmp_path / inst.name
    path.write_text(inst.text, encoding="utf-8")
    previous = set_validation(False)
    try:
        return _outcome(inst.name, cli.solve_path(path, timeout_ms=inst.deadline_ms))
    finally:
        set_validation(previous)


def test_planted_truth_holds_on_a_sample(tmp_path):
    sample = gen.generate("smt_mix", 3)[:63] + gen.generate("long_models", 3)[:3]
    for inst in sample:
        assert check.outcome_error(inst, _solve(inst, tmp_path)) is None, inst.name


def test_checker_rejects_flipped_verdicts(tmp_path):
    mix = gen.generate("smt_mix", 5)
    by_expect = {}
    for inst in mix:
        by_expect.setdefault(inst.expect, inst)
    for expect, inst in by_expect.items():
        outcome = _solve(inst, tmp_path)
        assert check.outcome_error(inst, outcome) is None
        for other in ("sat", "unsat", "unknown", "resource", "error"):
            if other != expect:
                flipped = dict(outcome, kind=other, model=outcome.get("model") or {})
                assert check.outcome_error(inst, flipped) is not None, (inst.name, other)
    unknown = by_expect["unknown"]
    outcome = _solve(unknown, tmp_path)
    wrong = "cyclic" if outcome["reason"] == "not-tree" else "not-tree"
    assert check.outcome_error(unknown, dict(outcome, reason=wrong)) is not None


def test_checker_rejects_corrupted_models(tmp_path):
    inst = gen.generate("long_models", 1)[0]
    outcome = _solve(inst, tmp_path)
    model = outcome["model"]
    assert check.outcome_error(inst, outcome) is None
    z = next(atom[1] for atom in inst.spec if atom[0] == "eq")
    a = next(atom[1] for atom in inst.spec if atom[0] == "len")
    missing = {k: v for k, v in model.items() if k != z}
    for bad in ({**model, z: model[z] + "x"}, {**model, a: model[a][1:]}, missing):
        assert check.outcome_error(inst, dict(outcome, model=bad)) is not None, bad


def test_checker_rejects_wrong_doubling_sizes(tmp_path):
    inst = gen.generate("doubling", 2)[0]
    outcome = _solve(inst, tmp_path)
    assert check.outcome_error(inst, outcome) is None
    var = inst.sizes[0]
    grown = dict(outcome, sizes={**outcome["sizes"], var: [inst.sizes[1] + 1, inst.sizes[2]]})
    assert check.outcome_error(inst, grown) is not None


def test_tracer_restores_every_binding(tmp_path):
    bindings = [(m, a) for m, a, _ in trace.SPANNED + trace.COUNTED]
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in bindings}
    inst = gen.generate("long_models", 4)[0]
    with pytest.raises(RuntimeError):
        with trace.Tracer() as tracer:
            _solve(inst, tmp_path)
            raise RuntimeError("leave the block by an exception")
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a} not restored"
    names = {span[trace.NAME] for span in tracer.spans}
    assert {"cli.solve_path", "smtlib.parse_smt", "snfa.split_word"} <= names
    assert tracer.counts["snfa.accepts"] > 0
    layers = trace.layer_metrics(tracer.spans, tracer.counts)
    assert layers["snfa.split_word.calls"] == 2
    assert layers["attributed_ms"] >= layers["snfa.split_word.ms"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert spec["paths"] == [BENCH.name]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("traced", [0, 1])
def test_printed_metrics_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "doubling",
                           "--seed", "1", "--seconds", "1", "--trace", str(traced)],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", "smt_mix", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
