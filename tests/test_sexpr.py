import pytest
from hypothesis import given, settings, strategies as st

from demod.fileformat import (
    FormatError,
    dumps,
    hilbert_from_sx,
    hilbert_to_sx,
    instance_from_sx,
    instance_to_sx,
    loads,
    nd_proof_document,
    nd_proof_from_document,
    presentation_from_sx,
    presentation_to_sx,
    prop_from_sx,
    prop_to_sx,
    signature_from_sx,
    signature_to_sx,
    system_from_sx,
    system_to_sx,
    term_from_sx,
    term_to_sx,
    trace_from_sx,
    trace_to_sx,
)
from demod.hilbert import Template, check_hilbert, instance, schema_line, zi_axiom_schemata, HilbertProof
from demod.nd import check_nd, witness_all
from demod.rewriting import connecting_trace, verify_trace
from demod.sexpr import SexprError, parse, parse_many, show, show_pretty
from demod.syntax import Exists, Forall, Imp, Or, TRUE, Var, alpha_equal, arith
from demod.theories import (
    OrderConfig,
    ZERO,
    add_compatible_axioms,
    add_signature,
    add_system,
    add_atom,
    build_HO,
    classes_signature,
    eq,
    fz_axioms,
    hha_signature,
    numeral,
    plus,
    s_,
    var0,
)


def test_sexpr_round_trip():
    text = "(a (b c.0) (d) ; comment\n e)"
    sx = parse(text)
    assert sx == ["a", ["b", "c.0"], ["d"], "e"]
    assert parse(show(sx)) == sx
    with pytest.raises(SexprError):
        parse("(a (b)")
    with pytest.raises(SexprError):
        parse("a b")
    assert parse_many("a b") == ["a", "b"]


def _show_pretty_reference(sx, width=100):
    """The printer that re-renders every subtree at every level."""
    flat = show(sx)
    if len(flat) <= width or isinstance(sx, str):
        return flat
    head, *rest = sx
    lines = [_show_pretty_reference(x, width) for x in rest]
    body = "\n".join("  " + line.replace("\n", "\n  ") for line in lines)
    return f"({show(head) if isinstance(head, str) else _show_pretty_reference(head, width)}\n{body})"


sexprs = st.recursive(
    st.text("abxyz01^.-+", min_size=1, max_size=12),
    lambda inner: st.lists(inner, max_size=6),
    max_leaves=60,
)


@given(sexprs, st.integers(2, 40))
@settings(max_examples=300)
def test_show_pretty_matches_reference(sx, width):
    assert show_pretty(sx, width) == _show_pretty_reference(sx, width)
    assert parse_many(show_pretty(sx, width)) == [sx]


def test_show_pretty_matches_reference_on_a_large_proof():
    from demod.bench import gen_add_axiomatic_proof
    from demod.fileformat import nd_proof_document

    doc = nd_proof_document(gen_add_axiomatic_proof(40))
    assert show_pretty(doc) == _show_pretty_reference(doc)


def test_term_and_prop_round_trip():
    sig = classes_signature(1)
    x = var0("x")
    t = plus(s_(ZERO), x)
    sx = term_to_sx(t)
    assert term_from_sx(sx, sig) == t
    p = Forall(x, Or(eq(x, ZERO), Exists(Var("y", arith(1)), TRUE)))
    assert prop_from_sx(prop_to_sx(p), sig) == p
    from demod.syntax import FALSE

    assert prop_from_sx(["not", prop_to_sx(eq(x, x))], sig) == Imp(eq(x, x), FALSE)


def test_signature_round_trip():
    sig = classes_signature(2, arith_extras=True)
    sx = signature_to_sx(sig)
    back = signature_from_sx(sx)
    assert back == sig
    reparsed = signature_from_sx(loads(dumps(sx)))
    assert reparsed == sig


def test_system_round_trip():
    add = add_system()
    sig = add_signature()
    sx = system_to_sx(add)
    back = system_from_sx(sx, sig)
    assert back.rules == add.rules
    assert back.terminating and back.confluent
    ho = build_HO(OrderConfig(1))
    hsig = classes_signature(1)
    assert system_from_sx(system_to_sx(ho), hsig).rules == ho.rules


def test_presentation_round_trip():
    sig = classes_signature(1)
    fz = fz_axioms()
    back = presentation_from_sx(presentation_to_sx(fz), sig)
    assert back == fz
    add_sig = add_signature()
    pres = add_compatible_axioms()
    assert presentation_from_sx(presentation_to_sx(pres), add_sig) == pres


def test_trace_round_trip():
    add = add_system()
    sig = add_signature()
    tr = connecting_trace(add_atom(numeral(2), numeral(2), numeral(4)), TRUE, add)
    back = trace_from_sx(trace_to_sx(tr), sig)
    assert back.steps == tr.steps
    assert verify_trace(add_atom(numeral(2), numeral(2), numeral(4)), TRUE, back, add)


def test_nd_proof_round_trip_with_traces():
    from demod.fragments import hha_fragment
    from demod.theories import build_HHA

    sig = hha_signature(OrderConfig(1))
    hha = build_HHA(OrderConfig(1))
    frag = hha_fragment("ind")
    doc = nd_proof_document(frag.proof)
    back = nd_proof_from_document(loads(dumps(doc)), sig)
    # trace start/end annotations are not serialized; print-parse-print is stable
    assert dumps(nd_proof_document(back)) == dumps(doc)
    assert check_nd(back, system=hha, mode="mixed").ok


def test_hilbert_proof_round_trip():
    cat = zi_axiom_schemata(OrderConfig(1))
    h = var0("h")
    inst = instance("ind", templates=[("A", Template((h,), eq(h, ZERO)))])
    prop = cat.instantiate(inst)
    proof = HilbertProof((schema_line(inst, prop),))
    sig = add_signature().extend(preds=[])  # minimal: needs =, 0, s
    sig = classes_signature(1)
    back = hilbert_from_sx(hilbert_to_sx(proof), sig)
    assert back == proof
    assert check_hilbert(back, cat).ok


def test_instance_round_trip():
    sig = classes_signature(1)
    h = var0("h")
    inst = instance(
        "UI^0",
        templates=[("A", Template((h,), eq(h, ZERO)))],
        terms=[("tau", s_(ZERO))],
        metavars=[("alpha", var0("w"))],
    )
    back = instance_from_sx(instance_to_sx(inst), sig)
    assert back == inst


def test_bad_inputs_raise():
    from demod.syntax import SortError

    sig = classes_signature(1)
    with pytest.raises(SortError):
        term_from_sx(["nosuch", "x.0"], sig)
    with pytest.raises(FormatError):
        prop_from_sx(["mystery"], sig)
    with pytest.raises(FormatError):
        signature_from_sx(["rules"])
