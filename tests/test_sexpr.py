import gc

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
from demod.sexpr import PRETTY_DEPTH, SexprError, parse, parse_many, show, show_pretty, tokenize
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



def _reference_tokenize(text):
    """The tokenizer as a character loop: whitespace is space, tab, carriage
    return and newline, and a comment runs from ``;`` to the end of the line."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c
            i += 1
        else:
            start = i
            while i < n and text[i] not in " \t\r\n();":
                i += 1
            yield text[start:i]


def _reference_parse_many(text):
    stack = [[]]
    for tok in _reference_tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SexprError("unbalanced closing parenthesis")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SexprError("unclosed parenthesis")
    return stack[0]


def _outcome(read, *args):
    """What ``read`` gives: its value, or its error's type and text."""
    try:
        return "value", read(*args)
    except SexprError as exc:
        return type(exc), str(exc)


# comments, parentheses next to atoms and comments, the four whitespace
# characters, and characters that Python counts as whitespace but the format
# reads as part of an atom (form feed, vertical tab, the C1 next line, a
# no-break space, the ASCII separators, a line separator)
_PIECES = ["(", ")", ";", "; c (d)\n", "\n", " ", "\t", "\r", "\f", "\v", "\x85", "\xa0",
           "\x1c", "\x1f", "\u2028", "a", "b.0", "x1", "é", "Add", "s"]


@given(st.lists(st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=40))
@settings(max_examples=600)
def test_tokenizer_matches_the_character_loop(pieces):
    text = "".join(pieces)
    assert tokenize(text) == list(_reference_tokenize(text))
    assert _outcome(parse_many, text) == _outcome(_reference_parse_many, text)


def test_tokenizer_cases():
    for text, tokens in [
        ("(a b)", ["(", "a", "b", ")"]),
        ("a;c (d)\n(e)", ["a", "(", "e", ")"]),
        ("a\fb\vc\x85d\xa0e f", ["a\fb\vc\x85d\xa0e", "f"]),
        ("(a\fb\x1fc)", ["(", "a\fb\x1fc", ")"]),
        ("(a;)\r\n)", ["(", "a", ")"]),
        ("; only a comment", []),
    ]:
        assert tokenize(text) == list(_reference_tokenize(text)) == tokens
    for text, message in [(")", "unbalanced closing parenthesis"), ("(a ;)", "unclosed parenthesis"),
                          ("\f)", "unbalanced closing parenthesis")]:
        with pytest.raises(SexprError, match=message):
            parse_many(text)

def _show_pretty_reference(sx, width=100, depth=PRETTY_DEPTH):
    """The printer that re-renders every subtree at every level."""
    flat = show(sx)
    if len(flat) <= width or isinstance(sx, str) or depth == 0:
        return flat
    head, *rest = sx
    lines = [_show_pretty_reference(x, width, depth - 1) for x in rest]
    body = "\n".join("  " + line.replace("\n", "\n  ") for line in lines)
    return f"({show(head) if isinstance(head, str) else _show_pretty_reference(head, width, depth)}\n{body})"


sexprs = st.recursive(
    st.text("abxyz01^.-+", min_size=1, max_size=12),
    lambda inner: st.lists(inner, max_size=6),
    max_leaves=60,
)


@given(sexprs, st.integers(2, 40), st.integers(0, 8))
@settings(max_examples=300)
def test_show_pretty_matches_reference(sx, width, depth):
    text = show_pretty(sx, width, depth)
    assert text == _show_pretty_reference(sx, width, depth)
    assert parse_many(text) == [sx]
    # every line is indented at most depth levels
    assert len(text) <= (depth + 1) * len(show(sx))


def test_show_pretty_matches_reference_on_a_large_proof():
    from demod.bench import gen_add_axiomatic_proof
    from demod.fileformat import nd_proof_document

    doc = nd_proof_document(gen_add_axiomatic_proof(40))
    assert show_pretty(doc) == _show_pretty_reference(doc)


def test_dumps_is_linear_in_the_flat_text():
    # Indented to its full depth, this document printed 32 MB against 1.25 MB
    # flat; PRETTY_DEPTH bounds the indentation, so the ratio is a constant.
    from demod.bench import gen_add_axiomatic_proof

    C = 4
    doc = nd_proof_document(gen_add_axiomatic_proof(80))
    text, flat = dumps(doc), show(doc)
    assert len(text) <= C * len(flat)
    assert max(len(line) - len(line.lstrip(" ")) for line in text.splitlines()) == 2 * PRETTY_DEPTH
    assert show(parse(text)) == flat


def test_deep_documents_write_flat():
    # The axiomatic n = 2,000 proof has numerals 4,000 deep under 10,001
    # proof nodes, but its flat text grows as n^2 (about 750 MB there), so
    # each depth is written on its own: the numerals in the modulo proof,
    # the proof depth in a deeper proof over small propositions.
    from demod.bench import gen_add_modulo_proof
    from demod.nd import AndE, AndI, TopI
    from demod.syntax import And

    # the n = 2,000 modulo proof holds a numeral 4,000 deep
    assert show(term_to_sx(numeral(4000))) == "(s " * 4000 + "0" + ")" * 4000
    text = show(nd_proof_document(gen_add_modulo_proof(2000)))
    assert text.count("(s ") == 8000 and show(parse(text)) == text

    # 20,001 proof levels (30,001 nodes): each AndE over AndI prints as the first does
    def chain(levels):
        p = TopI(TRUE)
        for _ in range(levels):
            p = AndE(TRUE, other=TRUE, side="left", sub=AndI(And(TRUE, TRUE), p, TopI(TRUE)))
        return nd_proof_document(p)

    def body(doc):
        return show(doc)[len("(nd-proof "):-1]

    leaf = body(chain(0))
    before, _, after = body(chain(1)).partition(leaf)
    deep = chain(10_000)
    text = show(deep)
    assert text == "(nd-proof " + before * 10_000 + leaf + after * 10_000 + ")"
    assert show(parse(dumps(deep))) == text


# Run in a fresh interpreter whose recursion limit is far below every depth
# read here: a reader that recursed on the input's depth would fail.
DEEP_READS = """
import sys

from demod import cli
from demod.fileformat import (
    dumps, hilbert_from_sx, hilbert_to_sx, instance_from_sx, instance_to_sx, loads, nd_proof_document,
    nd_proof_from_document, presentation_from_sx, presentation_to_sx, system_from_sx, system_to_sx,
    trace_from_sx, trace_to_sx,
)
from demod.hilbert import HilbertProof, HypLine, Line, Template, instance
from demod.nd import AndE, AndI, TopI
from demod.rewriting import RewriteStep, RewriteSystem, Rule, Trace
from demod.sexpr import show
from demod.syntax import TRUE, And, Forall, Imp, Or
from demod.theories import Presentation, ZERO, add_atom, add_signature, numeral, var0

sys.setrecursionlimit(120)

def read_back(doc, decode):
    return decode(loads(dumps(doc)), sig)

assert cli.main(["check-nd", sys.argv[1], "--system", "add"]) == 0

sig = add_signature()
p = TopI(TRUE)
for _ in range(10_000):
    p = AndE(TRUE, other=TRUE, side="left", sub=AndI(And(TRUE, TRUE), p, TopI(TRUE)))
doc = nd_proof_document(p)
assert show(nd_proof_document(read_back(doc, nd_proof_from_document))) == show(doc)
assert read_back(doc, nd_proof_from_document) == p

x, y = var0("x"), var0("y")
deep = add_atom(x, ZERO, x)
for i in range(5_000):
    deep = (Imp(deep, TRUE), Forall(x, deep), Or(TRUE, deep))[i % 3]
axioms = Presentation("deep", (("a", deep),))
assert read_back(presentation_to_sx(axioms), presentation_from_sx) == axioms
rules = RewriteSystem("deep", (Rule("r", add_atom(x, y, x), deep),))
assert read_back(system_to_sx(rules), system_from_sx).rules == rules.rules
inst = instance("A", templates=[("A", Template((x,), deep))])
assert read_back(instance_to_sx(inst), instance_from_sx) == inst
trace = Trace((RewriteStep((1,), "r", ((x, numeral(5_000)),), True),))
assert read_back(trace_to_sx(trace), trace_from_sx).steps == trace.steps
hilbert = HilbertProof((Line(HypLine("h"), deep),))
assert read_back(hilbert_to_sx(hilbert), hilbert_from_sx) == hilbert
print("read")
"""


def test_deep_documents_read_back(tmp_path):
    # the one-node modulo proof of Add(n, n, 2n) at n = 10,000 holds numerals
    # 20,000 deep; the chain is the one written above, 20,001 proof levels
    import os
    import subprocess
    import sys

    from demod.bench import gen_add_modulo_proof

    path = tmp_path / "add-10000.sexp"
    path.write_text(dumps(nd_proof_document(gen_add_modulo_proof(10_000))))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", DEEP_READS, str(path)], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines()[-1] == "read"


@pytest.fixture
def collections():
    """The generations of the cyclic collections started while the test runs."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    enabled = gc.isenabled()
    try:
        yield started
    finally:
        gc.callbacks.remove(note)
        (gc.enable if enabled else gc.disable)()


def test_encoders_pause_the_collector(collections):
    from demod.bench import gen_add_axiomatic_proof
    from demod.theories import Presentation

    proof = gen_add_axiomatic_proof(40)
    gc.enable()
    nd_proof_document.__wrapped__(proof)  # unpaused, encoding this proof collects
    assert collections
    collections.clear()
    nd_proof_document(proof)
    assert not collections and gc.isenabled()

    bad = Presentation("bad", (("a", numeral(1)),))  # a term where an axiom belongs
    with pytest.raises(FormatError):
        presentation_to_sx(bad)
    assert gc.isenabled()
    gc.disable()
    nd_proof_document(proof)
    with pytest.raises(FormatError):
        presentation_to_sx(bad)
    assert not gc.isenabled()


def test_readers_pause_the_collector(collections, monkeypatch):
    from demod import fileformat
    from demod.bench import gen_add_axiomatic_proof
    from demod.fileformat import instances_from_sx, term_or_prop_from_sx

    sig, csig = add_signature(), classes_signature(1)
    doc = nd_proof_document(gen_add_axiomatic_proof(40))
    gc.enable()
    nd_proof_from_document.__wrapped__(doc, sig)  # unpaused, reading this proof collects
    assert collections
    collections.clear()
    nd_proof_from_document(doc, sig)
    assert not collections and gc.isenabled()

    # each reader, on a document it reads and on one it rejects; every reader
    # works through the parser, _form or _read, which note the collector's state
    inst = instance_to_sx(instance("T"))
    readers = [
        (loads, ("(a (b))",), ("(a",)),
        (signature_from_sx, (signature_to_sx(sig),), (["signature", ["fun"]],)),
        (system_from_sx, (system_to_sx(add_system()), sig), (["rules"], sig)),
        (presentation_from_sx, (presentation_to_sx(add_compatible_axioms()), sig), (["axioms"], sig)),
        (nd_proof_from_document, (doc, sig), (["nd-proof", ["imp-e"]], sig)),
        (instance_from_sx, (inst, csig), (["schema"], csig)),
        (instances_from_sx, (["instances", ["r", inst]], csig), (["instances", ["r"]], csig)),
        (hilbert_from_sx, (hilbert_to_sx(HilbertProof(())), csig), (["hilbert-proof", ["line"]], csig)),
        (term_or_prop_from_sx, (["Add", "0", "0", "0"], sig), (["and", "true"], sig)),
    ]
    seen = []
    for name in ("parse", "_form", "_read"):
        inner = getattr(fileformat, name)
        monkeypatch.setattr(fileformat, name,
                            lambda *args, inner=inner, **kwargs: seen.append(gc.isenabled()) or inner(*args, **kwargs))
    for read, good, bad in readers:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            read(*good)
            with pytest.raises((FormatError, SexprError)):
                read(*bad)
            assert seen and not any(seen), read.__name__
            assert gc.isenabled() == enabled, read.__name__


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


# One node of each proof-node kind and its exact s-expression: the file layout
# (field order, atoms, trailing via forms) is pinned here, kind by kind.
def _codec_cases():
    from demod import nd
    from demod.rewriting import RewriteStep, Trace
    from demod.syntax import CLASS, FALSE, And
    from demod.theories import member

    x, y, k = var0("x"), var0("y"), var0("k")
    c = Var("c", CLASS)
    A, B = eq(x, ZERO), eq(ZERO, ZERO)
    sA, sB = "(= x.0 0)", "(= 0 0)"
    via = Trace((RewriteStep((1, 2), "r", ((x, ZERO),), True),))
    via2 = Trace((RewriteStep((), "q", (), False), RewriteStep((2,), "r", (), True)))
    sv = "(via (step (1 2) r fwd ((x.0 0))))"
    sv2 = "(via2 (step () q bwd ()) (step (2) r fwd ()))"
    hA, hB = nd.Hyp("a", A), nd.Hyp("b", B)
    shA, shB = f"(hyp a {sA})", f"(hyp b {sB})"
    return [
        (hA, shA),
        (nd.Assume("ax", B), f"(assume ax {sB})"),
        (nd.ImpI(Imp(A, A), A, "a", hA, via=via), f"(imp-i (imp {sA} {sA}) {sA} a {shA} {sv})"),
        (nd.ImpE(B, hA, nd.Hyp("f", Imp(A, B)), via=via),
         f"(imp-e {sB} {shA} (hyp f (imp {sA} {sB})) {sv})"),
        (nd.AndI(And(A, B), hA, hB, via=via), f"(and-i (and {sA} {sB}) {shA} {shB} {sv})"),
        (nd.AndE(A, other=B, side="left", sub=nd.Hyp("p", And(A, B)), via=via),
         f"(and-e {sA} left {sB} (hyp p (and {sA} {sB})) {sv})"),
        (nd.OrI(Or(A, B), other=B, side="left", sub=hA, via=via),
         f"(or-i (or {sA} {sB}) left {sB} {shA} {sv})"),
        (nd.OrE(B, A, B, "l", "r", nd.Hyp("d", Or(A, B)), nd.Hyp("m", B), hB, via=via),
         f"(or-e {sB} {sA} {sB} l r (hyp d (or {sA} {sB})) (hyp m {sB}) {shB} {sv})"),
        (nd.ForallI(Forall(x, A), var=x, body=A, eigen=y, sub=nd.Hyp("g", eq(y, ZERO)), via=via),
         f"(forall-i (forall x.0 {sA}) x.0 {sA} y.0 (hyp g (= y.0 0)) {sv})"),
        (nd.ForallE(eq(s_(ZERO), ZERO), var=x, body=A, term=s_(ZERO), sub=nd.Hyp("u", Forall(x, A)),
                    via=via, via2=via2),
         f"(forall-e (= (s 0) 0) x.0 {sA} (s 0) (hyp u (forall x.0 {sA})) {sv} {sv2})"),
        (nd.ExistsI(Exists(x, A), var=x, body=A, term=ZERO, sub=hB, via=via, via2=via2),
         f"(exists-i (exists x.0 {sA}) x.0 {sA} 0 {shB} {sv} {sv2})"),
        (nd.ExistsE(B, var=x, body=A, eigen=k, label="w", major=nd.Hyp("e", Exists(x, A)), sub=hB,
                    via=via),
         f"(exists-e {sB} x.0 {sA} k.0 w (hyp e (exists x.0 {sA})) {shB} {sv})"),
        (nd.TopI(TRUE, via=via), f"(top-i true {sv})"),
        (nd.BotE(A, nd.Hyp("n", FALSE), via=via), f"(bot-e {sA} (hyp n false) {sv})"),
        (nd.Tnd(Or(A, Imp(A, FALSE)), A, via=via), f"(tnd (or {sA} (imp {sA} false)) {sA} {sv})"),
        (nd.IndI(member([x], c), cls=c, term=x, eigen=k, label="h",
                 base=nd.Hyp("z", member([ZERO], c)), step=nd.Hyp("t", member([s_(k)], c))),
         "(ind-i (eps (cons^0 x.0 nil) c.class) c.class x.0 k.0 h"
         " (hyp z (eps (cons^0 0 nil) c.class)) (hyp t (eps (cons^0 (s k.0) nil) c.class)))"),
    ]


def test_proof_codec_pins_every_node_kind():
    from demod.fileformat import proof_from_sx, proof_to_sx

    sig = classes_signature(1)
    cases = _codec_cases()
    assert len({type(node) for node, _ in cases}) == 16
    for node, text in cases:
        assert show(proof_to_sx(node)) == text
        assert proof_from_sx(parse(text), sig) == node


def test_each_table_is_the_declaration_of_its_classes():
    # every proof-node and justification class has the fields its table entry
    # lays out, in file order, then the node's trace slots; built positionally
    # from distinct values in that order, it is written as (TAG FORM ...) and
    # read back equal
    from dataclasses import fields

    from demod.fileformat import proof_from_sx, proof_to_sx, show_var
    from demod.hilbert import JUSTIFICATIONS, Line
    from demod.nd import KINDS, Hyp

    sig = classes_signature(1)

    def prop(i):
        return eq(var0("x"), numeral(i))

    values = {
        "prop": (prop, prop_to_sx),
        "term": (numeral, term_to_sx),
        "var": (lambda i: var0(f"v{i}"), show_var),
        "label": (lambda i: f"l{i}", str),
        "line": (lambda i: i + 1, str),
        "proof": (lambda i: Hyp(f"h{i}", prop(i)), proof_to_sx),
        "instance": (lambda i: instance("I", templates=[("A", prop(i))]), instance_to_sx),
    }

    def built(cls, kind):
        args = [values[field_kind][0](i) for i, (_, field_kind) in enumerate(kind.layout)]
        forms = [values[field_kind][1](x) for x, (_, field_kind) in zip(args, kind.layout)]
        return cls(*args), forms

    assert len(KINDS) == 16 and len(JUSTIFICATIONS) == 5
    for cls, kind in KINDS.items():
        declared = fields(cls)
        assert [f.name for f in declared] == [name for name, _ in kind.layout] + list(kind.vias)
        assert all(f.default is None for f in declared[len(kind.layout):])
        node, forms = built(cls, kind)
        assert proof_to_sx(node) == [kind.tag, *forms]
        assert proof_from_sx(proof_to_sx(node), sig) == node
    for cls, kind in JUSTIFICATIONS.items():
        assert [f.name for f in fields(cls)] == [name for name, _ in kind.layout]
        just, forms = built(cls, kind)
        doc = hilbert_to_sx(HilbertProof((Line(just, TRUE),)))
        # a schema justification is written as its instance's own form
        assert doc[1][2] == (forms[0] if kind.tag == "schema" else [kind.tag, *forms])
        assert hilbert_from_sx(doc, sig).lines[0].just == just


def _atom_paths(sx, path=()):
    if isinstance(sx, str):
        yield path
        return
    for i, x in enumerate(sx):
        yield from _atom_paths(x, path + (i,))


def _at(sx, path):
    for i in path:
        sx = sx[i]
    return sx


def _table_cases():
    """Objects of every field kind of the file format's table, and the one
    signature that reads them all."""
    from demod.fileformat import FLAGS
    from demod.hilbert import GenLine, HypLine, Line, MpLine, PartLine
    from demod.rewriting import RewriteStep, Trace
    from demod.syntax import CLASS, FALSE, LIST, And, FunDecl, PredDecl

    sig = classes_signature(1).extend(preds=[PredDecl("Add", (arith(0),) * 3)])
    h, w, x = var0("h"), var0("w"), var0("x")
    template = Template((h,), eq(h, ZERO))
    inst = instance("UI^0", templates=[("A", template)], terms=[("tau", s_(ZERO))], metavars=[("alpha", w)])
    lines = (schema_line(inst, TRUE), Line(MpLine(1, 1), TRUE), Line(GenLine(2, w), TRUE),
             Line(PartLine(3, w), TRUE), Line(HypLine("k"), eq(w, ZERO)))
    trace = Trace((RewriteStep((1, 2), "r", ((x, ZERO), (w, s_(x))), True), RewriteStep((), "q", (), False)))
    prop = Forall(x, Or(eq(x, ZERO), Exists(Var("y", arith(1)), Imp(And(TRUE, FALSE), TRUE))))
    ho = build_HO(OrderConfig(1))
    nodes = [node for node, _ in _codec_cases()]
    cases = {
        "label": ["a", "comp^0"],
        "line": [1, 12],
        "index": [0, 12],
        "var": [x, Var("c", CLASS)],
        "sort": [arith(0), arith(1), LIST, CLASS],
        "flag": list(FLAGS),
        "direction": [True, False],
        "term": [x, ZERO, plus(s_(ZERO), x)],
        "prop": [TRUE, FALSE, eq(x, ZERO), prop],
        "expr": [plus(s_(ZERO), x), prop],
        "signature": [sig, add_signature(), classes_signature(2, True)],
        "sorts": [(), (arith(0), LIST)],
        "decl": [FunDecl("f", (arith(0), LIST), CLASS), PredDecl("P", ())],
        "arity": [(), (arith(0), CLASS)],
        "rules": [add_system(), ho],
        "flags": [(), FLAGS],
        "rule": list(add_system().rules) + list(ho.rules[:2]),
        "axioms": [add_compatible_axioms(), fz_axioms()],
        "axiom": [("a", prop)],
        "trace": [Trace(()), trace],
        "step": list(trace.steps),
        "position": [(), (1, 2)],
        "binds": [(), trace.steps[0].subst],
        "bind": list(trace.steps[0].subst),
        "nd-proof": nodes,
        "proof": nodes,
        "via": [("via", trace), ("via2", Trace(()))],
        "template": [template, Template((), TRUE)],
        "params": [(), (h, w)],
        "instance": [inst, instance("T")],
        "entry": [("prop", "A", template), ("term", "tau", s_(ZERO)), ("var", "alpha", w)],
        "instances": [{}, {"r": inst, "t": instance("T")}],
        "named-instance": [("r", inst)],
        "hilbert-proof": [HilbertProof(()), HilbertProof(lines)],
        "hilbert-line": list(enumerate(lines, start=1)),
        "just": [line.just for line in lines],
    }
    return cases, sig


def test_every_kind_of_the_table_round_trips():
    # a kind added to the table without a case here fails the first assertion
    from demod.fileformat import CODECS, _read, _write

    cases, sig = _table_cases()
    assert set(cases) == set(CODECS)
    for kind, objects in cases.items():
        for obj in objects:
            text = dumps(_write(obj, kind))
            back = _read(loads(text), kind, sig)
            assert back == obj, (kind, text)
            assert dumps(_write(back, kind)) == text, (kind, text)


def _documents_by_kind():
    """Well-formed documents of every kind of the table whose form is a list,
    each with the decoder that reads it."""
    from demod.fileformat import _read, _write

    cases, sig = _table_cases()
    out: dict = {}
    for kind, objects in cases.items():
        for obj in objects:
            doc = _write(obj, kind)
            if isinstance(doc, list) and doc:
                out.setdefault(kind, []).append((doc, lambda sx, kind=kind: _read(sx, kind, sig)))
    return out


@settings(max_examples=700, deadline=None)
@given(st.data())
def test_mutated_proof_documents_decode_or_raise_format_errors(data):
    # every document kind, not only proofs; SortError is the reader's error for
    # ill-sorted terms and, like FormatError, the CLI reports it and exits 2
    import copy

    from demod.syntax import SortError

    cases = _documents_by_kind()
    kind = data.draw(st.sampled_from(sorted(cases)))
    document, decode = data.draw(st.sampled_from(cases[kind]))
    doc = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_atom_paths(doc))
        if not paths:  # every atom dropped: nothing left to mutate
            break
        path = data.draw(st.sampled_from(paths))
        parent, i = _at(doc, path[:-1]), path[-1]
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if op == "drop":
            del parent[i]
        elif op == "duplicate":
            parent.insert(i, parent[i])
        else:
            other = data.draw(st.sampled_from(paths))
            other_parent, j = _at(doc, other[:-1]), other[-1]
            parent[i], other_parent[j] = other_parent[j], parent[i]

    def outcome(sx):
        try:
            got = decode(sx)
        except (FormatError, SortError) as exc:
            return type(exc), str(exc)
        return got, repr(got)

    # the parsed text shares its equal sub-forms, and the reader reads each
    # once: the outcome is the unshared copy's, object or error
    assert outcome(loads(show(doc))) == outcome(doc)


def _dataclass_repr(x):
    """The repr the dataclass decorator derives for a proof node."""
    from dataclasses import fields

    from demod import nd

    if type(x) not in nd.KINDS:
        return repr(x)
    inner = ", ".join(f"{f.name}={_dataclass_repr(getattr(x, f.name))}" for f in fields(x))
    return f"{type(x).__qualname__}({inner})"


def test_proof_nodes_print_compare_and_hash_as_dataclasses():
    import copy
    from dataclasses import replace

    from demod.bench import gen_add_axiomatic_proof
    from demod.syntax import FALSE

    for node in [node for node, _ in _codec_cases()] + [gen_add_axiomatic_proof(3)]:
        assert repr(node) == _dataclass_repr(node)
        other = copy.deepcopy(node)
        assert other == node and hash(other) == hash(node)
        wrong = replace(node, conclusion=FALSE)
        assert wrong != node and node != wrong and node != repr(node)


def _sub_forms(sx):
    stack, out = [sx], []
    while stack:
        x = stack.pop()
        out.append(x)
        if isinstance(x, list):
            stack += x
    return out


def test_parsing_shares_equal_sub_forms():
    from demod.bench import gen_add_axiomatic_proof

    f, g, e = parse_many("(f (g x.0) (g x.0) ()) (g x.0) ()")
    assert f[1] is f[2] is g and f[3] is e and f[1][1] is g[1] and f is not g
    first, second = parse("(a ())"), parse("(a ())")  # each parse shares within itself only
    assert first == second and first is not second and first[1] is not second[1]

    text = dumps(nd_proof_document(gen_add_axiomatic_proof(10)))
    forms = _sub_forms(parse(text))
    ids: dict[str, set] = {}
    for x in forms:
        ids.setdefault(show(x), set()).add(id(x))
    assert all(len(found) == 1 for found in ids.values())
    assert len(ids) < len(forms) / 10


def test_equal_terms_of_a_document_read_as_one_node():
    # every term, proposition and proof node equal to another of the same
    # document is the same object, a variable read as a bound variable and
    # as a term included
    from demod import nd
    from demod.bench import gen_add_axiomatic_proof
    from demod.syntax import App, Proposition

    proof = nd_proof_from_document(loads(dumps(nd_proof_document(gen_add_axiomatic_proof(10)))),
                                   add_signature())
    ids: dict[object, set] = {}
    nodes, stack = 0, [proof]
    while stack:
        x = stack.pop()
        if type(x) in nd.KINDS:
            stack += [getattr(x, name) for name in vars(x)]
        elif isinstance(x, (Var, App, Proposition)):
            stack += x.shape.children(x)
            if x.shape.binder:
                stack.append(getattr(x, x.shape.binder))
        else:
            continue
        nodes += 1
        ids.setdefault(x, set()).add(id(x))
    assert all(len(found) == 1 for found in ids.values())
    assert len(ids) < nodes / 10
    assert sum(type(x) is Var for x in ids) >= 3


def test_variables_are_interned_through_pickle_and_copy():
    import copy
    import pickle

    v = Var("x", arith(0))
    assert Var("x", arith(0)) is v and Var("x", arith(1)) is not v and Var("y", arith(0)) is not v
    t = plus(v, s_(v))
    p = Forall(v, eq(t, v))
    for clone in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        assert clone(v) is v
        got = clone(t)
        assert got == t and got.args[0] is v and got.args[1].args[0] is v
        got = clone(p)
        assert got == p and got.var is v and got.body.args[1] is v


def test_a_witnessed_document_read_again_and_again_is_one_proof():
    # each read has its own memo: ids freed by one read and reused by the
    # next must not bring back what the first read stored
    from demod.fragments import hha_fragment
    from demod.theories import build_HHA

    hha = build_HHA(OrderConfig(1))
    sig = hha_signature(OrderConfig(1))
    text = dumps(nd_proof_document(witness_all(hha_fragment("plus-s").proof, hha)))
    first = nd_proof_from_document(loads(text), sig)
    assert check_nd(first, system=hha, mode="witnessed").ok
    for _ in range(50):
        again = nd_proof_from_document(loads(text), sig)
        assert again == first and repr(again) == repr(first)
    assert dumps(nd_proof_document(first)) == text


def test_every_witnessed_hha_fragment_reads_back_equal():
    # a trace is its steps, so a witnessed proof read from its file is the proof
    from demod.fragments import HHA_LIBRARY, hha_fragment
    from demod.theories import build_HHA

    hha = build_HHA(OrderConfig(1))
    sig = hha_signature(OrderConfig(1))
    for name in HHA_LIBRARY:
        proof = witness_all(hha_fragment(name).proof, hha)
        back = nd_proof_from_document(loads(dumps(nd_proof_document(proof))), sig)
        assert back == proof and hash(back) == hash(proof), name


def test_reading_the_axiomatic_add_document_is_linear_in_its_distinct_terms(monkeypatch):
    # the flat text of this proof grows as n^2, its distinct terms as n: the
    # reader builds each distinct term once, so it calls Signature.app at
    # most C*n times (2n + 1 at these sizes, once per numeral 0 .. 2n); a
    # reader that reads each written term anew calls it about 47 n^2 times
    # (76,526 at n = 40)
    from demod.bench import gen_add_axiomatic_proof
    from demod.syntax import Signature

    C = 3
    calls = []
    app = Signature.app
    monkeypatch.setattr(Signature, "app", lambda sig, *args: calls.append(1) or app(sig, *args))
    sig = add_signature()
    for n in (40, 80, 160):
        doc = loads(show(nd_proof_document(gen_add_axiomatic_proof(n))))
        calls.clear()
        nd_proof_from_document(doc, sig)
        assert len(calls) <= C * n, (n, len(calls))
