import json

import pytest

from demod.cli import main
from demod.fileformat import dumps, hilbert_to_sx, nd_proof_document
from demod.hilbert import HilbertProof, instance, schema_line, zi_axiom_schemata
from demod.bench import gen_add_modulo_proof
from demod.nd import TopI
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
        "(nd-proof (top-i " + "(imp " * 3000 + "true" + " true)" * 3000 + "))",
    ],
    ids=["short-node", "short-step", "deep-prop"],
)
def test_malformed_proof_exits_2(tmp_path, capsys, text):
    path = tmp_path / "malformed.sexp"
    path.write_text(text)
    assert main(["check-nd", str(path), "--system", "add"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_add_cli(tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench-add", "4", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "add-speedup"
    assert len(payload["rows"]) == 8


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


def test_probe_cli(capsys):
    assert main(["probe", "--system", "ws", "--exhaustive", "--max-size", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["summary"]["flat_within_size"]
