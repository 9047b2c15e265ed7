import dataclasses
import json

import pytest

from demod import bench, cli
from demod.cli import main
from demod.fileformat import dumps, hilbert_to_sx, nd_proof_document
from demod.hilbert import HilbertProof, instance, schema_line, zi_axiom_schemata
from demod.bench import gen_add_modulo_proof
from demod.nd import TopI
from demod.sexpr import parse, show
from demod.theories import OrderConfig, add_atom, numeral


@pytest.fixture
def add_proof_file(tmp_path):
    path = tmp_path / "proof.sexp"
    path.write_text(dumps(nd_proof_document(gen_add_modulo_proof(2))))
    return path


def test_check_nd_ok(add_proof_file, capsys):
    code = main(["check-nd", str(add_proof_file), "--system", "add"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["length"] == 1


def test_check_nd_failure(tmp_path, capsys):
    bad = TopI(add_atom(numeral(1), numeral(1), numeral(1)))
    path = tmp_path / "bad.sexp"
    path.write_text(dumps(nd_proof_document(bad)))
    assert main(["check-nd", str(path), "--system", "add"]) == 1


def test_check_hilbert_ok(tmp_path, capsys):
    cat = zi_axiom_schemata(OrderConfig(1))
    inst = instance("T")
    proof = HilbertProof((schema_line(inst, cat.instantiate(inst)),))
    path = tmp_path / "h.sexp"
    path.write_text(dumps(hilbert_to_sx(proof)))
    assert main(["check-hilbert", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == 1


def test_normalize_inline(capsys):
    code = main(["normalize", "(Add (s 0) 0 (s 0))", "--system", "add"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["normal_form"] == "true"
    assert out["steps"] == 2


def test_normalize_fuel_exhaustion(capsys):
    code = main(
        ["normalize", "(eps (cons^0 x.0 nil) p.class)", "--system", "hha", "--fuel", "20"]
    )
    assert code == 1


def test_confluence_report(capsys):
    code = main(["confluence", "--system", "ho", "--order", "1", "--fuel", "10"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["left_linear"] and out["all_joinable"]
    assert len(out["critical_pairs"]) == 3
    # a pair that runs out of fuel reports no steps; the others report both sides' steps
    assert main(["confluence", "--system", "hha", "--order", "1", "--fuel", "1"]) == 1
    rows = json.loads(capsys.readouterr().out)["critical_pairs"]
    got = [(row["joinable"], row["steps"]) for row in rows]
    assert got.count((False, None)) == 16 and sorted(set(got) - {(False, None)}) == [(False, 0), (True, 1)]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "garbled.sexp"
    path.write_text("(nd-proof (top-i")
    assert main(["check-nd", str(path), "--system", "add"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "(nd-proof (imp-e))",
        "(nd-proof (top-i (Add 0 0 0) (via (step () r fwd))))",
    ],
    ids=["short-node", "short-step"],
)
def test_malformed_proof_exits_2(tmp_path, capsys, text):
    path = tmp_path / "malformed.sexp"
    path.write_text(text)
    assert main(["check-nd", str(path), "--system", "add"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


ADD_SIG = "(signature (sorts 0) (fun 0 () 0) (fun s (0) 0) (pred Add (0 0 0)))"
TOP_PROOF = "(nd-proof (top-i true))"
ASSUME_PROOF = "(nd-proof (assume a true))"
CHECK_AXIOMS = ["check-nd", "p.sexp", "--system", "add", "--axioms", "a.sexp"]
NORMALIZE_RULES = ["normalize", "0", "--system", "r.rules"]


@pytest.mark.parametrize(
    "files, argv, message",
    [
        ({"h.sexp": "(hilbert-proof (line 1))"}, ["check-hilbert", "h.sexp"], "line needs 3 fields, found 1"),
        ({"h.sexp": "(hilbert-proof (line x (mp 1 2) true))"}, ["check-hilbert", "h.sexp"],
         "expected a line number, found x"),
        ({"h.sexp": "(hilbert-proof (line 1 (mp a 2) true))"}, ["check-hilbert", "h.sexp"],
         "expected a line number, found a"),
        ({"h.sexp": "(hilbert-proof (line 1 () true))"}, ["check-hilbert", "h.sexp"], "unknown justification"),
        ({"p.sexp": TOP_PROOF, "a.sexp": "(axioms add (axiom a))"}, CHECK_AXIOMS, "axiom needs 2 fields"),
        ({"p.sexp": TOP_PROOF, "a.sexp": "(axioms)"}, CHECK_AXIOMS, "axioms needs 1 fields, found 0"),
        ({"r.rules": "(rules R (flags))", "r.rules.sig": "(signature (sorts 0) (fun s))"}, NORMALIZE_RULES,
         "fun needs 3 fields, found 1"),
        ({"r.rules": "(rules Add)", "r.rules.sig": ADD_SIG}, NORMALIZE_RULES, "rules needs 2 fields, found 1"),
        ({"r.rules": "(rules R (flags) (rule r (s x.0) y.0))", "r.rules.sig": ADD_SIG}, NORMALIZE_RULES,
         "r: right side has extra variables y:0\n"),
        ({"r.rules": "(rules R (flags) (rule r (s x.0) x.0) (rule r (s 0) 0))", "r.rules.sig": ADD_SIG},
         NORMALIZE_RULES, "R: duplicate rule name r"),
        ({"r.rules": "(rules R (flags confluant terminating))", "r.rules.sig": ADD_SIG}, NORMALIZE_RULES,
         "unknown flag confluant"),
        ({"p.sexp": TOP_PROOF, "i.sexp": "(instances (r))"},
         ["translate", "nd-hilbert", "p.sexp", "--instances", "i.sexp"], "expected (NAME (schema ...))"),
        ({"p.sexp": TOP_PROOF, "i.sexp": "(instances (r (schema K)))"},
         ["translate", "nd-hilbert", "p.sexp", "--instances", "i.sexp"], "K: missing proposition variable A"),
        ({"r.rules": "(rules R (flags))", "r.rules.sig": "(signature (sorts 0) (fun z () 0) (sorts list))"},
         NORMALIZE_RULES, "unknown signature entry 'sorts'"),
        ({"r.rules": "(rules R (flags))", "r.rules.sig": "(signature (fun z () 0))"}, NORMALIZE_RULES,
         "expected (sorts ...)"),
        ({"r.rules": "(rules R (flags))", "r.rules.sig": "(signature (sorts 0) (fun nil () list))"},
         NORMALIZE_RULES, "nil uses the undeclared sort list"),
        ({"h.sexp": "(hilbert-proof (line 01 (schema T) true))"}, ["check-hilbert", "h.sexp"],
         "expected a line number, found 01"),
        ({"h.sexp": "(hilbert-proof (line \u0661 (schema T) true))"}, ["check-hilbert", "h.sexp"],
         "expected a line number, found \u0661"),
        ({"r.rules": "(rules R (flags))", "r.rules.sig": "(signature (sorts 0 0))"}, NORMALIZE_RULES,
         "duplicate sort declaration in signature"),
        ({}, ["confluence", "--system", "nosuch"],
         "unknown system 'nosuch' (builtins: empty, add, ho, ws, hha, hha-noind)"),
        ({"r.rules": "(rules R (flags) (rule r (s x.01) x.01))", "r.rules.sig": ADD_SIG}, NORMALIZE_RULES,
         "not a sort: '01'"),
        ({"r.rules": "(rules R (flags) (rule r (s x.\u0661) x.\u0661))", "r.rules.sig": ADD_SIG},
         NORMALIZE_RULES, "not a sort: '\u0661'"),
        ({"p.sexp": ASSUME_PROOF, "i.sexp": "(instances (a (schema UI^0 (prop A (template () true)))))"},
         ["translate", "nd-hha", "p.sexp", "--instances", "i.sexp"], "no HHA fragment named 'UI^0'"),
        ({"p.sexp": ASSUME_PROOF, "i.sexp": "(instances (a (schema comp^x (prop A (template () true)))))"},
         ["translate", "nd-hha", "p.sexp", "--instances", "i.sexp"], "no HHA fragment named 'comp^x'"),
        ({"p.sexp": ASSUME_PROOF, "i.sexp": "(instances (a (schema comp^01 (prop A (template () true)))))"},
         ["translate", "nd-hha", "p.sexp", "--instances", "i.sexp"], "no HHA fragment named 'comp^01'"),
        ({}, ["probe", "--system", "ws", "--exhaustive", "--max-size", "0"],
         "--max-size must be at least 1, got 0"),
        ({}, ["probe", "--system", "ws", "--exhaustive", "--max-size", "-1"],
         "--max-size must be at least 1, got -1"),
        ({}, ["probe", "--system", "ws", "--samples", "0"], "--samples must be at least 1, got 0"),
        ({}, ["probe", "--system", "ho", "--samples", "-3"], "--samples must be at least 1, got -3"),
        ({}, ["normalize", "0", "--system", "add", "--fuel", "0"], "--fuel must be at least 1, got 0"),
        ({"p.sexp": TOP_PROOF}, ["check-nd", "p.sexp", "--fuel", "-1"], "--fuel must be at least 1, got -1"),
        ({}, ["confluence", "--system", "add", "--fuel", "0"], "--fuel must be at least 1, got 0"),
        ({}, ["bench-growth", "--count", "1"], "--count must be at least 2, got 1"),
        ({}, ["bench-growth", "--count", "0"], "--count must be at least 2, got 0"),
        ({}, ["bench-growth", "--count", "-3"], "--count must be at least 2, got -3"),
        ({}, ["bench-fragments", "--samples", "0"], "--samples must be at least 1, got 0"),
        ({}, ["bench-fragments", "--samples", "-1"], "--samples must be at least 1, got -1"),
        ({}, ["bench-add", "0"], "n must be at least 1, got 0"),
        ({}, ["bench-add", "-2"], "n must be at least 1, got -2"),
    ],
    ids=["short-line", "line-number", "mp-reference", "empty-justification", "short-axiom", "no-axioms",
         "short-fun", "short-rules", "extra-variable", "duplicate-rule", "misspelt-flag",
         "short-instance", "incomplete-instance", "second-sorts", "no-sorts", "undeclared-sort",
         "leading-zero", "non-ascii-digit", "duplicate-sort", "unknown-system", "sort-leading-zero",
         "sort-non-ascii-digit", "no-hha-fragment", "schema-level", "schema-level-leading-zero",
         "probe-size-zero", "probe-size-negative", "probe-no-samples", "probe-negative-samples",
         "normalize-no-fuel", "check-nd-negative-fuel", "confluence-no-fuel", "growth-one", "growth-zero",
         "growth-negative", "fragments-no-samples", "fragments-negative-samples", "add-zero", "add-negative"],
)
def test_malformed_documents_exit_2(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_confluence_without_fuel_needs_a_terminating_system(tmp_path, monkeypatch, capsys):
    # the default fuel of a system that may not terminate is no bound in
    # practice: HHA's critical pairs once ran past 1.4 GB under it
    def runaway(system):
        raise AssertionError("critical pairs computed without a bound")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "critical_pairs", runaway)
    (tmp_path / "r.rules").write_text("(rules R (flags) (rule r (s x.0) x.0))")
    (tmp_path / "r.rules.sig").write_text(ADD_SIG)
    for system, name in (("hha", "HHA-mod"), ("r.rules", "R")):
        assert main(["confluence", "--system", system]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: system {name} is not declared terminating") and "--fuel" in err
    monkeypatch.undo()
    assert main(["confluence", "--system", "hha", "--fuel", "10"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["system"] == "HHA-mod"


DEEP_IMP = "(imp " * 3000 + "true" + " true)" * 3000


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        ({"p.sexp": "(nd-proof (top-i " + DEEP_IMP + "))"}, ["check-nd", "p.sexp", "--system", "add"], 1,
         "congruence fails"),
        ({"p.sexp": TOP_PROOF, "a.sexp": "(axioms add (axiom a " + DEEP_IMP + "))"}, CHECK_AXIOMS, 0, ""),
        ({"n.sexp": "(and true " * 3000 + "true" + ")" * 3000}, ["normalize", "n.sexp", "--system", "add"], 0,
         ""),
    ],
    ids=["deep-prop", "deep-axiom", "deep-normalize"],
)
def test_deep_documents_are_read(tmp_path, monkeypatch, capsys, files, argv, code, message):
    # well-formed documents 3,000 levels deep, deeper than the interpreter's
    # recursion limit: each gets its real verdict, not a format error
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert message in err and "error: " not in err
    if argv[0] == "normalize":
        report = json.loads(out)
        assert report["steps"] == 0
        assert show(parse(report["normal_form"])) == show(parse(files["n.sexp"]))


def test_order_below_one_exits_2(tmp_path, capsys):
    path = tmp_path / "h.sexp"
    path.write_text("(hilbert-proof)")
    with pytest.raises(SystemExit) as err:
        main(["check-hilbert", str(path), "--order", "0"])
    assert err.value.code == 2
    assert "argument --order: order parameter must be at least 1" in capsys.readouterr().err


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_successive_calls_share_one_parser(add_proof_file, tmp_path, capsys):
    inst = instance("T")
    line = schema_line(inst, zi_axiom_schemata(OrderConfig(1)).instantiate(inst))
    hilbert = tmp_path / "h.sexp"
    hilbert.write_text(dumps(hilbert_to_sx(HilbertProof((line,)))))
    calls = [
        ["check-nd", str(add_proof_file), "--system", "add"],
        ["normalize", "(Add (s 0) 0 (s 0))", "--system", "add"],
        ["frobnicate"],
        ["check-hilbert", str(hilbert), "--order", "0"],
        ["check-hilbert", str(hilbert)],
        ["check-nd", str(add_proof_file), "--system", "add", "--mode", "auto"],
    ]
    cli._parser.cache_clear()
    in_turn = [_outcome(argv, capsys) for argv in calls]
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(_outcome(argv, capsys))
    assert in_turn == first
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 0]


def test_bench_add_cli(tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench-add", "4", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "add-speedup"
    assert len(payload["rows"]) == 8


def test_bench_growth_exits_1_when_a_seeded_claim_breaks_its_bound(monkeypatch, capsys):
    assert main(["bench-growth"]) == 0
    held = capsys.readouterr().out
    claim = bench.CLAIMS["hilbert_to_nd"]
    assert json.loads(held)["summary"][claim.name]["max_ratio"] > 1
    monkeypatch.setitem(bench.CLAIMS, claim.name, dataclasses.replace(claim, constant=1))
    assert main(["bench-growth"]) == 1
    assert capsys.readouterr().out == held


def test_translate_cli(tmp_path, capsys):
    cat = zi_axiom_schemata(OrderConfig(2))
    from demod.syntax import TRUE

    inst = instance("K", templates=[("A", TRUE), ("B", TRUE)])
    proof = HilbertProof((schema_line(inst, cat.instantiate(inst)),))
    path = tmp_path / "k.sexp"
    path.write_text(dumps(hilbert_to_sx(proof)))
    out = tmp_path / "k-nd.sexp"
    code = main(["translate", "hilbert-nd", str(path), "--order", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("(nd-proof")
    report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert report == {"input_length": 1, "output_length": 2, "assumptions": []}


def test_a_builtin_system_is_resolved_to_one_object():
    assert cli._resolve_system("hha", 1)[0] is cli._resolve_system("hha", 1)[0]


def test_translated_reuse_proof_files_check_in_linear_length(tmp_path, capsys):
    # 37 lines, each round's T cited twice: copying shared lines would write
    # about 20,000 inference nodes; cuts keep the files within criterion 7's claims
    from test_translate import _reuse_proof

    proof = _reuse_proof(12)
    assert len(proof.lines) == 37
    path = tmp_path / "reuse.sexp"
    path.write_text(dumps(hilbert_to_sx(proof)))
    for direction, system, claim in (("hilbert-nd", [], "hilbert_to_nd"),
                                     ("hilbert-fz", ["--system", "ho"], "zi_hilbert_to_fz")):
        out = tmp_path / f"{direction}.sexp"
        assert main(["translate", direction, str(path), "--order", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["check-nd", str(out), "--order", "1", *system]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] and bench.CLAIMS[claim].within(verdict["length"], len(proof.lines))


def test_probe_cli(capsys):
    assert main(["probe", "--system", "ws", "--exhaustive", "--max-size", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["flat_within_size"]


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "--system", "ws", "--exhaustive", "--max-size", "6", "--samples", "0"],
        ["probe", "--system", "hha", "--max-size", "0"],
        ["probe", "--system", "hha", "--samples", "-1"],
        ["probe", "--system", "ho", "--samples", "3", "--max-size", "0"],
    ],
    ids=["exhaustive-no-samples", "hha-size-zero", "hha-negative-samples", "sampled-size-zero"],
)
def test_probe_checks_only_the_counts_its_mode_reads(capsys, argv):
    # the probe --max-size and --samples range checks are in test_malformed_documents_exit_2
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["rows"]


def test_python_m_demod_runs_the_command_line(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import demod

    env = {**os.environ, "PYTHONPATH": str(Path(demod.__file__).parent.parent)}
    argv = [sys.executable, "-m", "demod", "normalize", "(Add (s 0) 0 (s 0))", "--system", "add"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"ok": True, "normal_form": "true", "steps": 2}
