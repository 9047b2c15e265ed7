import json
import math
import runpy
from pathlib import Path

import pytest

from demod import bench
from demod.bench import (
    CLAIMS,
    bench_add,
    bench_fragments,
    bench_growth,
    broken_claims,
    enumerate_probe_terms,
    fit_growth,
    gen_add_axiomatic_proof,
    gen_add_modulo_proof,
    probe_hha_nontermination,
    probe_sampled,
    probe_ws_exhaustive,
    random_hilbert_corpus,
    random_nd_corpus,
)
from demod.hilbert import check_hilbert, hilbert_length, zi_axiom_schemata
from demod.nd import check_nd, nd_length
from demod.rewriting import longest_derivation
from demod.syntax import size
from demod.theories import OrderConfig, add_compatible_axioms, add_system, build_HO


def test_gen_add_proofs():
    add = add_system()
    axioms = add_compatible_axioms().as_dict()
    # n = 0: the axiomatic proof is a single instantiation of the base axiom
    zero = gen_add_axiomatic_proof(0)
    v0 = check_nd(zero, assumptions=axioms)
    assert v0.ok and v0.length == 1
    for n in (1, 3, 5):
        vm = check_nd(gen_add_modulo_proof(n), system=add)
        assert vm.ok and vm.length == 1
        va = check_nd(gen_add_axiomatic_proof(n), assumptions=axioms)
        assert va.ok, va.error
        assert va.length == 1 + 5 * n


def test_modulo_add_checks_past_the_recursion_limit():
    # numerals of 200 nested nodes once broke the trace step ordering, and
    # from 248 the recursive size and equality ran out of stack
    for n in (200, 10_000):
        assert check_nd(gen_add_modulo_proof(n), system=add_system()).ok


def _axiomatic_reference(n):
    """The axiomatic Add proof built with fresh numerals in every block."""
    from demod.nd import AndE, Assume, ForallE, ImpE, conclusion_of
    from demod.syntax import And, Forall, Imp
    from demod.theories import ZERO, add_atom, numeral, s_, var0

    axioms = add_compatible_axioms().as_dict()
    y, x, z = var0("y"), var0("x"), var0("z")
    proof = ForallE(
        add_atom(ZERO, numeral(n), numeral(n)),
        var=y,
        body=add_atom(ZERO, y, y),
        term=numeral(n),
        sub=Assume("add-base-ax", axioms["add-base-ax"]),
    )
    step_body = Forall(
        x,
        Forall(
            y,
            Forall(
                z,
                And(
                    Imp(add_atom(s_(x), y, s_(z)), add_atom(x, y, z)),
                    Imp(add_atom(x, y, z), add_atom(s_(x), y, s_(z))),
                ),
            ),
        ),
    )
    for k in range(1, n + 1):
        a, b, c = numeral(k - 1), numeral(n), numeral(n + k - 1)
        fwd = Imp(add_atom(s_(a), b, s_(c)), add_atom(a, b, c))
        bwd = Imp(add_atom(a, b, c), add_atom(s_(a), b, s_(c)))
        e1 = ForallE(
            Forall(y, Forall(z, And(Imp(add_atom(s_(a), y, s_(z)), add_atom(a, y, z)),
                                     Imp(add_atom(a, y, z), add_atom(s_(a), y, s_(z)))))),
            var=x,
            body=step_body.body,
            term=a,
            sub=Assume("add-step-ax", axioms["add-step-ax"]),
        )
        e2 = ForallE(
            Forall(z, And(Imp(add_atom(s_(a), b, s_(z)), add_atom(a, b, z)),
                          Imp(add_atom(a, b, z), add_atom(s_(a), b, s_(z))))),
            var=y,
            body=conclusion_of(e1).body,
            term=b,
            sub=e1,
        )
        e3 = ForallE(And(fwd, bwd), var=z, body=conclusion_of(e2).body, term=c, sub=e2)
        back = AndE(bwd, other=fwd, side="right", sub=e3)
        proof = ImpE(add_atom(s_(a), b, s_(c)), minor=proof, major=back)
    return proof


def test_axiomatic_proof_shares_numerals_and_keeps_its_shape():
    for n in range(0, 13):
        assert gen_add_axiomatic_proof(n) == _axiomatic_reference(n), n


def test_bench_add_report():
    report = bench_add(6)
    modulo = [r for r in report.rows if r["system"] == "modulo"]
    axiomatic = [r for r in report.rows if r["system"] == "axiomatic"]
    assert all(r["length"] == 1 for r in modulo)
    lengths = [r["length"] for r in axiomatic]
    assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)
    fit = report.summary["axiomatic_fit"]
    assert fit["class"] == "linear"
    assert abs(fit["params"]["slope"] - 5.0) < 1e-9
    parsed = json.loads(report.to_json())
    assert parsed["experiment"] == "add-speedup"
    assert report.to_csv().splitlines()[0].startswith("length")


def test_fit_growth_classes():
    xs = list(range(1, 20))
    assert fit_growth(xs, [7.0] * 19)["class"] == "constant"
    assert fit_growth(xs, [3 * x + 1 for x in xs])["class"] == "linear"
    assert fit_growth(xs, [x * x for x in xs])["class"] == "power"
    got = fit_growth(xs, [2.0**x for x in xs])
    assert got["class"] == "exponential"


def test_probe_terms_cover_sizes():
    seen = {}
    for term, has, nested in enumerate_probe_terms(5):
        seen.setdefault(size(term), 0)
        seen[size(term)] += 1
    assert set(seen) == {1, 2, 3, 4, 5}
    assert seen[1] == 3  # 0, 1^0, nil


def test_ws_probe_small():
    report = probe_ws_exhaustive(7)
    assert report.summary["flat_within_size"]
    assert report.summary["nested_over_size"] == 0  # stacking needs size > 8
    report2 = probe_ws_exhaustive(9)
    assert report2.summary["flat_within_size"]
    assert [(r["size"], r["count"], r["max_derivation"]) for r in report2.rows] == [
        (1, 3, 0),
        (2, 4, 0),
        (3, 16, 1),
        (4, 52, 2),
        (5, 204, 3),
        (6, 804, 4),
        (7, 3336, 6),
        (8, 14116, 8),
        (9, 61108, 10),
    ]
    assert report2.summary["nested_over_size"] == 42
    assert report2.summary["worst_nested"] == ("sub^0(sub^0(s(s(s(s(0)))), nil), nil)", 9, 10)


@pytest.mark.parametrize("include_nested", [True, False])
def test_ws_probe_matches_per_term_search(monkeypatch, include_nested):
    # the reference searches every probe term on its own, without known results
    reports = {}
    for max_size in range(1, 9):
        reports[max_size] = probe_ws_exhaustive(max_size, include_nested).to_json()

    def per_term(term, ws, known, table=None):
        return longest_derivation(term, ws)

    monkeypatch.setattr(bench, "longest_derivation", per_term)
    for max_size, report in reports.items():
        assert report == probe_ws_exhaustive(max_size, include_nested).to_json()


@pytest.mark.parametrize(
    "include_nested, digest",
    [
        (True, "1a9271557c5f58fe32d89656d4c99eb3eaa26fd4aacdd9917156ab2c8f4a8687"),
        (False, "39308178c9d4683321c7728bd3a5fad5ec9b38ef08517a8870bde09fa91c7be7"),
    ],
)
def test_ws_probe_report_is_pinned(include_nested, digest):
    # the size-9 report, byte for byte, as the search over every position of
    # every probe term wrote it
    import hashlib

    text = probe_ws_exhaustive(9, include_nested).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_probe_sampled_ho():
    ho = build_HO(OrderConfig(1))
    report = probe_sampled(ho, samples=40, seed=5)
    assert len(report.rows) == 40
    assert report.summary["fit"]["class"] in ("constant", "linear", "power")


def test_probe_hha_nontermination():
    report = probe_hha_nontermination((5, 50))
    assert report.summary["always_exhausts"]


def test_random_corpora_check():
    cat = zi_axiom_schemata(OrderConfig(2))
    for proof in random_hilbert_corpus(10, seed=42):
        assert check_hilbert(proof, cat).ok
    cat1 = zi_axiom_schemata(OrderConfig(1))
    for proof, instances in random_nd_corpus(10, seed=43):
        assumptions = {n: cat1.instantiate(i) for n, i in instances.items()}
        assert check_nd(proof, assumptions=assumptions).ok


def test_bench_fragments_constancy():
    report = bench_fragments(samples=5, seed=11)
    assert report.summary["all_constant"]
    for row in report.rows:
        assert row["min_length"] == row["max_length"]


def test_bench_growth_summary():
    report = bench_growth(hilbert_count=15, nd_count=15, seed=9)
    s = report.summary
    assert s["corpus_size"] == 30
    assert s["hilbert_to_nd"]["max_ratio"] <= CLAIMS["hilbert_to_nd"].constant
    assert s["zi_hilbert_to_fz"]["max_ratio"] <= CLAIMS["zi_hilbert_to_fz"].constant
    assert s["nd_to_hilbert_restricted"]["max_ratio"] <= CLAIMS["nd_to_hilbert_restricted"].constant
    assert s["nd_to_hilbert_general"]["max_log_ratio"] <= math.log(CLAIMS["nd_to_hilbert_general"].constant)
    assert broken_claims(report) == []


@pytest.mark.parametrize(
    "counts, message",
    [((4, 1), "nd_count must be at least 2, got 1"), ((0, 4), "hilbert_count must be at least 1, got 0"),
     ((-2, 4), "hilbert_count must be at least 1, got -2")],
)
def test_bench_growth_rejects_counts_below_the_cli_least(counts, message):
    with pytest.raises(ValueError, match=message):
        bench_growth(*counts, 1)


def test_bench_growth_accepts_the_least_counts():
    report = bench_growth(1, 2, 1)
    assert report.summary["corpus_size"] == 3 and broken_claims(report) == []


def test_the_benchmark_keeps_the_claims_constants():
    # perfbench works its known answers out apart from the program, so it keeps
    # its own copies of criterion 7's constants: they must not drift apart
    oracles = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "oracles.py"))
    assert oracles["C_HILBERT_TO_ND"] == CLAIMS["hilbert_to_nd"].constant
    assert oracles["C_ZI_TO_FZ"] == CLAIMS["zi_hilbert_to_fz"].constant
    for name in ("nd_to_hilbert_restricted", "nd_to_hilbert_general", "nd_to_hilbert_open_hypotheses"):
        assert oracles["K_ABSTRACTION"] == CLAIMS[name].constant


def test_report_rows_recheck_from_serialized_form():
    from demod import fileformat as ff
    from demod.theories import add_signature

    sig = add_signature()
    axioms = add_compatible_axioms().as_dict()
    add = add_system()
    for n in (1, 4, 9):
        for proof, system, assumptions in (
            (gen_add_modulo_proof(n), add, {}),
            (gen_add_axiomatic_proof(n), None, axioms),
        ):
            text = ff.dumps(ff.nd_proof_document(proof))
            back = ff.nd_proof_from_document(ff.loads(text), sig)
            verdict = check_nd(back, assumptions=assumptions, system=system)
            assert verdict.ok, verdict.error
            assert verdict.length == nd_length(proof)
