"""Tests of the benchmark itself: its oracles, its workloads at a tiny size,
its tracer and its refusal to run without the program's sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from demod import bench, hilbert, nd, syntax, theories  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "ADD_RANGE", range(1, 4))
    monkeypatch.setattr(workloads, "WS_MAX_SIZE", 6)
    monkeypatch.setattr(workloads, "WS_SAMPLE", 20)
    monkeypatch.setattr(workloads, "HILBERT_COUNT", 3)
    monkeypatch.setattr(workloads, "ND_COUNT", 2)
    monkeypatch.setattr(workloads, "REUSE_ROUNDS", (5,))
    monkeypatch.setattr(workloads, "FILE_ADD_NS", (2,))
    monkeypatch.setattr(workloads, "FILE_HILBERT_COUNT", 2)


# ---------------------------------------------------------------------------
# Oracles


def test_numeral_value_and_add_truth():
    for k in (0, 1, 7):
        assert oracles.numeral_value(theories.numeral(k)) == k
    assert oracles.numeral_value(theories.var0("x")) is None
    assert oracles.numeral_value(theories.s_(theories.var0("x"))) is None
    assert oracles.add_holds(2, 3, 5)
    assert not oracles.add_holds(2, 3, 6)


def test_term_count_recurrence():
    # by hand: size 1 is 0, 1^0, nil; size 2 is s and S^0 over the two
    # constants; size 3 adds +, sub^0 and cons^0 over constants
    assert [oracles.term_count(k) for k in (1, 2, 3)] == [3, 4, 16]
    by_size: dict[int, int] = {}
    for term, _, _ in bench.enumerate_probe_terms(6):
        n = syntax.size(term)
        by_size[n] = by_size.get(n, 0) + 1
    assert by_size == {k: oracles.term_count(k) for k in range(1, 7)}


def test_reuse_proof_generator():
    cat = hilbert.zi_axiom_schemata(theories.OrderConfig(2))
    for rounds in (1, 3, 5):
        proof = oracles.reuse_proof(rounds)
        assert len(proof.lines) == oracles.reuse_proof_lines(rounds)
        assert hilbert.check_hilbert(proof, cat).ok
        uses = oracles.hilbert_references(proof)
        results = [1] + [3 * r + 1 for r in range(1, rounds)]
        assert all(uses[k - 1] == 2 for k in results)
        assert uses[-1] == 0


def test_length_formulas():
    axioms = theories.add_compatible_axioms().as_dict()
    for n in (1, 2, 5):
        verdict = nd.check_nd(bench.gen_add_axiomatic_proof(n), assumptions=axioms)
        assert verdict.ok and verdict.length == oracles.add_axiomatic_length(n)


# ---------------------------------------------------------------------------
# Workloads at a tiny size


@pytest.mark.parametrize("name", ["add-sweep", "translate-corpus", "check-files"])
def test_workload_round_is_correct(tiny, tmp_path, name):
    ops = workloads.WORKLOADS[name](3, str(tmp_path / "work"), None)
    result = child.run_rounds(ops, 0.0)
    assert result["correct"], result["problems"]
    assert result["rounds"] == 1 and result["attempted"] == len(ops)
    reuse = 2 * len(workloads.REUSE_ROUNDS) if name == "translate-corpus" else 0
    assert result["failed"] == reuse


def test_translate_failures_are_the_reuse_share(tiny, tmp_path):
    ops = workloads.setup_translate_corpus(5, str(tmp_path), None)
    failing = [op.kind for op in ops if op.check(op.run())[1]]
    assert sorted(failing) == ["fz_modulo/reuse", "hilbert_to_nd/reuse"]


def test_ws_probe_checks_counts_and_boundary(tiny, tmp_path):
    (op,) = workloads.setup_ws_probe(1, str(tmp_path), None)
    correct, failed, problem = op.check(op.run())
    # the term counts agree; below size 9 no stacked substitution exceeds
    # the size, and the check says so
    assert not correct and "stacked substitution" in problem
    assert workloads.ws_sample_problems(1) == []


def test_add_check_rejects_a_wrong_verdict(tiny, tmp_path):
    ops = workloads.setup_add_sweep(1, str(tmp_path), None)
    forged = next(op for op in ops if op.kind == "forged")
    wrong = nd.Verdict(True, 1)
    assert forged.check(wrong)[0] is False


# ---------------------------------------------------------------------------
# Tracing


def test_tracer_sees_calls_between_layers(tiny, tmp_path):
    original = nd.check_nd
    t = tracing.Tracer()
    t.install()
    try:
        assert nd.check_nd is not original
        ops = workloads.setup_check_files(2, str(tmp_path), t)
        setup = t.snapshot()
        result = child.run_rounds(ops, 0.0, t)
        totals = t.snapshot()
    finally:
        t.uninstall()
    assert nd.check_nd is original
    assert result["correct"], result["problems"]
    timed = {k: v - setup.get(k, 0) for k, v in totals.items()}
    layers = tracing.layer_metrics(setup, timed, result["rounds"])
    assert set(layers) == {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                           ["per_layer"]}
    for name in ("sexpr.parse_s", "sexpr.show_s", "fileformat.decode_s", "cli.main_self_s",
                 "rewriting.verify_trace_s", "rewriting.replayed_steps", "nd.obligations"):
        assert layers[name] > 0, name
    # cli calls check_nd through its own imported name; that call is seen too
    assert timed["nd.check.calls"] == len(
        [op for op in ops if op.kind not in ("hilbert",)])
    assert all(parent < span_id for _, _, _, span_id, parent in t.spans)


# ---------------------------------------------------------------------------
# The yardstick


def test_yardstick_chunks_run_inside_an_operation_and_are_taken_out():
    with yardstick.Sampler() as sampler:
        begin, t0, spent = time.perf_counter(), time.thread_time(), sampler.spent
        while time.perf_counter() - begin < 4 * yardstick.QUANTUM_S:
            pass
        end, busy = time.perf_counter(), time.thread_time() - t0
        inside = sampler.spent - spent
    assert inside > 0 and busy - inside < end - begin
    ran = [s for s in sampler.starts if begin <= s <= end]
    assert len(ran) >= 2
    assert sampler.factor_between(begin, end) > 0


def test_yardstick_factor_is_one_at_the_reference_speed():
    assert yardstick.factor([yardstick.REFERENCE_S] * 3) == pytest.approx(1.0)
    assert yardstick.factor([2 * yardstick.REFERENCE_S]) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# The command


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "add-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_result_line(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "translate-corpus", "--seed", "4", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    per_round = 2 * (workloads.HILBERT_COUNT + len(workloads.REUSE_ROUNDS)) + 2 * workloads.ND_COUNT
    # one round in each of the run's processes
    assert result["attempted"] == run.PROCESSES * per_round
    assert result["failed"] == run.PROCESSES * 2 * len(workloads.REUSE_ROUNDS)
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
