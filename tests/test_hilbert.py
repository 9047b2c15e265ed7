import pytest

from demod.hilbert import (
    Catalogue,
    GenLine,
    HilbertProof,
    HypLine,
    Line,
    MpLine,
    SCHEMATA,
    SchemaError,
    Template,
    check_hilbert,
    closed_template,
    gen,
    hilbert_length,
    instance,
    mp,
    part,
    schema_line,
    split_schema_id,
    zi_axiom_schemata,
)
from demod.nd import check_nd
from demod.syntax import (
    Exists,
    FALSE,
    Forall,
    Imp,
    TRUE,
    Var,
    alpha_equal,
    arith,
    iff,
)
from demod.theories import (
    OrderConfig,
    ZERO,
    build_HHA,
    build_HO,
    classes_signature,
    eq,
    mem,
    numeral,
    plus,
    s_,
    var0,
)
from demod.translate import hilbert_to_nd, zi_hilbert_to_fz_modulo, zi_nd_to_hha

CAT2 = zi_axiom_schemata(OrderConfig(2))  # sorts 0, 1
x, y = var0("x"), var0("y")


def test_catalogue_counts():
    for i in (1, 2, 3):
        cat = zi_axiom_schemata(OrderConfig(i))
        assert len(cat.axiom_schema_ids()) == 15 + 2 * i + 2 + 7 + 1 + (i - 1)
    intuitionistic = zi_axiom_schemata(OrderConfig(1), classical=False)
    assert "TND" not in intuitionistic.axiom_schema_ids()
    assert "TND" in zi_axiom_schemata(OrderConfig(1)).axiom_schema_ids()
    # the ids and their order, as the catalogue gave them before its table
    propositional = ("I", "K", "W", "C", "B", "proj-l", "proj-r", "pair", "inj-l", "inj-r", "case",
                     "contradiction", "efsq", "T")
    arithmetic = ("refl", "leibniz", "zero-ne-s", "inj-s", "onto-s", "plus-zero", "plus-s",
                  "times-zero", "times-s", "ind")
    quantifiers = {1: ("UI^0", "EI^0"), 2: ("UI^0", "EI^0", "UI^1", "EI^1"),
                   3: ("UI^0", "EI^0", "UI^1", "EI^1", "UI^2", "EI^2")}
    comprehension = {1: (), 2: ("comp^0",), 3: ("comp^0", "comp^1")}
    for i in (1, 2, 3):
        for classical in (True, False):
            want = (propositional + ("TND",) * classical + quantifiers[i] + arithmetic
                    + comprehension[i])
            assert zi_axiom_schemata(OrderConfig(i), classical).axiom_schema_ids() == want


def test_instantiate_k():
    inst = instance("K", templates=[("A", TRUE), ("B", FALSE)])
    assert CAT2.instantiate(inst) == Imp(TRUE, Imp(FALSE, TRUE))


def test_instantiate_refl():
    got = CAT2.instantiate(instance("refl"))
    a = var0("a")
    assert alpha_equal(got, Forall(a, eq(a, a)))


def test_instantiate_ind_example():
    # A(.) := (. = 0 or not . = 0)
    h = var0("h")
    from demod.syntax import Or, neg

    tmpl = Template((h,), Or(eq(h, ZERO), neg(eq(h, ZERO))))
    got = CAT2.instantiate(instance("ind", templates=[("A", tmpl)]))
    a, b = var0("a"), var0("b")

    def A(t):
        return Or(eq(t, ZERO), neg(eq(t, ZERO)))

    want = Imp(A(ZERO), Imp(Forall(b, Imp(A(b), A(s_(b)))), Forall(a, A(a))))
    assert alpha_equal(got, want)


def _one_line_proofs(cat: Catalogue):
    """Each schema id of ``cat`` with a one-line proof of an instance drawn
    from the table entry's arities and sorts; metavariables keep their defaults."""
    closed = {"A": TRUE, "B": FALSE, "C": eq(ZERO, ZERO)}
    for name in cat.axiom_schema_ids():
        family, j = split_schema_id(name)
        schema = SCHEMATA[family]
        templates = []
        for var, arity in schema.props:
            params = tuple(Var(f"h{n}", arith(j + k)) for n, k in enumerate(arity))
            body = eq(params[0], ZERO) if params and params[0].sort == arith(0) else closed[var]
            templates.append((var, Template(params, body)))
        terms = [(var, Var("w", arith(j + k))) for var, k in schema.terms]
        inst = instance(name, templates=templates, terms=terms)
        yield name, HilbertProof((schema_line(inst, cat.instantiate(inst)),))


def test_every_schema_generates_a_checkable_one_line_proof():
    # each one-line proof checks, and so does each of its translations: to
    # natural deduction, to FZ modulo the class system under HO1 and HO2,
    # and on to the axiom-free HHA2
    cat = zi_axiom_schemata(OrderConfig(2))
    ho = [build_HO(OrderConfig(i)) for i in (1, 2)]
    hha = build_HHA(OrderConfig(2))
    names = []
    for name, proof in _one_line_proofs(cat):
        verdict = check_hilbert(proof, cat)
        assert (verdict.ok, verdict.length) == (True, 1), f"{name}: {verdict.error}"
        nd = hilbert_to_nd(proof, cat)
        verdict = check_nd(nd.proof, assumptions=nd.assumption_dict())
        assert verdict.ok, f"{name} to ND: {verdict.error}"
        fz = zi_hilbert_to_fz_modulo(proof, cat)
        for system in ho:
            verdict = check_nd(fz.proof, assumptions=fz.assumption_dict(), system=system)
            assert verdict.ok, f"{name} to FZ under {system.name}: {verdict.error}"
        verdict = check_nd(zi_nd_to_hha(nd.proof, dict(nd.instances)), system=hha, mode="mixed")
        assert verdict.ok, f"{name} to HHA2: {verdict.error}"
        names.append(name)
    assert len(names) == 30


def test_metavariable_sorts_are_checked():
    # comp^0 binds alpha at sort 1: at sort 0 it once built the ill-sorted
    # ex a:0. all b:0. (in^0(b, a) <> b = 0), and a one-line proof of it checked
    h, a, b = var0("h"), var0("a"), var0("b")
    inst = instance("comp^0", templates=[("A", Template((h,), eq(h, ZERO)))],
                    metavars=[("alpha", a), ("beta", b)])
    with pytest.raises(SchemaError) as err:
        CAT2.instantiate(inst)
    assert str(err.value) == "comp^0: metavariable alpha has sort 0, wants 1"
    ill_sorted = Exists(a, Forall(b, iff(mem(0, b, a), eq(b, ZERO))))
    assert not classes_signature(2, True).well_sorted(ill_sorted)
    verdict = check_hilbert(HilbertProof((schema_line(inst, ill_sorted),)), CAT2)
    assert (verdict.ok, verdict.error) == (False, "line 1: comp^0: metavariable alpha has sort 0, wants 1")


def test_one_line_proofs():
    t_inst = instance("T")
    proof = HilbertProof((schema_line(t_inst, TRUE),))
    v = check_hilbert(proof, CAT2)
    assert v.ok and v.length == 1

    i_inst = instance("I", templates=[("A", eq(x, x))])
    proof2 = HilbertProof((schema_line(i_inst, Imp(eq(x, x), eq(x, x))),))
    assert check_hilbert(proof2, CAT2).ok


def test_mp_chain_and_dangling_reference():
    a = eq(ZERO, ZERO)
    k_inst = instance("K", templates=[("A", TRUE), ("B", a)])
    lines = (
        schema_line(instance("T"), TRUE),
        schema_line(k_inst, Imp(TRUE, Imp(a, TRUE))),
        mp(1, 2, Imp(a, TRUE)),
    )
    assert check_hilbert(HilbertProof(lines), CAT2).ok
    forward_ref = (
        schema_line(instance("T"), TRUE),
        mp(1, 3, Imp(TRUE, TRUE)),  # references a later line
        schema_line(k_inst, Imp(TRUE, Imp(a, TRUE))),
    )
    v = check_hilbert(HilbertProof(forward_ref), CAT2)
    assert not v.ok and "earlier" in v.error


def test_gen_rule():
    # T > (b = b), then generalize to T > all a. a = a
    b = var0("b")
    refl_inst = instance("refl")
    ui_inst = instance(
        "UI^0",
        templates=[("A", Template((var0("h"),), eq(var0("h"), var0("h"))))],
        terms=[("tau", b)],
    )
    a = var0("a")
    lines = (
        schema_line(refl_inst, Forall(a, eq(a, a))),
        schema_line(ui_inst, Imp(Forall(a, eq(a, a)), eq(b, b))),
        mp(1, 2, eq(b, b)),
        schema_line(instance("K", templates=[("A", eq(b, b)), ("B", TRUE)]), Imp(eq(b, b), Imp(TRUE, eq(b, b)))),
        mp(3, 4, Imp(TRUE, eq(b, b))),
        gen(5, b, Imp(TRUE, Forall(a, eq(a, a)))),
    )
    v = check_hilbert(HilbertProof(lines), CAT2)
    assert v.ok, v.error
    assert hilbert_length(HilbertProof(lines)) == 6


def test_gen_rejects_eigen_free_in_conclusion():
    b = var0("b")
    lines = (
        Line(HypLine("h"), Imp(eq(b, b), eq(b, b))),
        gen(1, b, Imp(eq(b, b), Forall(var0("a"), eq(var0("a"), var0("a"))))),
    )
    v = check_hilbert(HilbertProof(lines), CAT2, open_hypotheses=True)
    assert not v.ok and "free in the conclusion" in v.error


def test_part_rule():
    b = var0("b")
    a = var0("a")
    # (b = b) > T, then (ex a. a = a) > T
    lines = (
        schema_line(instance("T"), TRUE),
        schema_line(
            instance("K", templates=[("A", TRUE), ("B", eq(b, b))]),
            Imp(TRUE, Imp(eq(b, b), TRUE)),
        ),
        mp(1, 2, Imp(eq(b, b), TRUE)),
        part(3, b, Imp(Exists(a, eq(a, a)), TRUE)),
    )
    v = check_hilbert(HilbertProof(lines), CAT2)
    assert v.ok, v.error


def test_ui_freely_substitutable_side_condition():
    # A(h) := all y. h = y; substituting s(y) for h would capture y
    h = var0("h")
    tmpl = Template((h,), Forall(y, eq(h, y)))
    with pytest.raises(SchemaError):
        CAT2.instantiate(instance("UI^0", templates=[("A", tmpl)], terms=[("tau", s_(y))]))
    # a closed term is fine
    got = CAT2.instantiate(instance("UI^0", templates=[("A", tmpl)], terms=[("tau", ZERO)]))
    a = var0("a")
    assert alpha_equal(got, Imp(Forall(a, Forall(y, eq(a, y))), Forall(y, eq(ZERO, y))))


def test_bound_metavar_capture_rejected():
    # instance body mentions the chosen bound metavariable: rejected
    h = var0("h")
    tmpl = Template((h,), eq(h, var0("a")))
    with pytest.raises(SchemaError):
        CAT2.instantiate(instance("leibniz", templates=[("A", tmpl)]))
    # distinct metavariable choices repair it
    got = CAT2.instantiate(
        instance("leibniz", templates=[("A", tmpl)], metavars=[("alpha", var0("u")), ("beta", var0("v"))])
    )
    assert isinstance(got, Forall)


def test_comp_outside_order_rejected():
    cat1 = zi_axiom_schemata(OrderConfig(1))
    h = var0("h")
    with pytest.raises(SchemaError):
        cat1.instantiate(instance("comp^0", templates=[("A", Template((h,), eq(h, h)))]))
    assert "comp^0" not in cat1.axiom_schema_ids()


def test_empty_proof_fails():
    v = check_hilbert(HilbertProof(()), CAT2)
    assert not v.ok and v.length == 0


def test_hypothesis_lines_only_when_allowed():
    lines = (Line(HypLine("h"), TRUE),)
    assert not check_hilbert(HilbertProof(lines), CAT2).ok
    assert check_hilbert(HilbertProof(lines), CAT2, open_hypotheses=True).ok


def test_robinson_instances_are_built_once():
    inst = instance("zero-ne-s")
    assert CAT2.instantiate(inst) is CAT2.instantiate(inst)


def _quantifier_proof(rule, eigen, conclusion, ref=None):
    """A proof whose last line is gen or part from K(true, b = b) : true > (b = b > true)."""
    b = var0("b")
    k = schema_line(instance("K", templates=[("A", TRUE), ("B", eq(b, b))]),
                    Imp(TRUE, Imp(eq(b, b), TRUE)))
    if rule is gen:
        return HilbertProof((k, gen(ref or 1, eigen, conclusion)))
    lines = (k, schema_line(instance("T"), TRUE), mp(2, 1, Imp(eq(b, b), TRUE)))
    return HilbertProof(lines + (part(ref or 3, eigen, conclusion),))


_a, _b = var0("a"), var0("b")
_GEN_OK = Imp(TRUE, Forall(_a, Imp(eq(_a, _a), TRUE)))
_PART_OK = Imp(Exists(_a, eq(_a, _a)), TRUE)


@pytest.mark.parametrize(
    "rule, eigen, conclusion, ref, error",
    [
        (gen, _b, _GEN_OK, None, None),
        (gen, _b, _GEN_OK, 2, "line 2: generalization must reference an earlier line"),
        (gen, _b, Imp(Forall(_a, eq(_a, _a)), TRUE), None,
         "line 2: generalization concludes A > all x. B"),
        (gen, Var("b", arith(1)), _GEN_OK, None,
         "line 2: generalization eigenvariable has the wrong sort"),
        (gen, _b, Imp(eq(_b, _b), Forall(_a, Imp(eq(_a, _a), TRUE))), None,
         "line 2: eigenvariable b:0 is free in the conclusion"),
        (gen, var0("c"), _GEN_OK, None,
         "line 2: generalization premise should be (true > (=(c:0, c:0) > true))"),
        (part, _b, _PART_OK, None, None),
        (part, _b, _PART_OK, 4, "line 4: particularization must reference an earlier line"),
        (part, _b, Imp(TRUE, Exists(_a, eq(_a, _a))), None,
         "line 4: particularization concludes (ex x. B) > A"),
        (part, Var("b", arith(1)), _PART_OK, None,
         "line 4: particularization eigenvariable has the wrong sort"),
        (part, _b, Imp(Exists(_a, eq(_a, _a)), eq(_b, _b)), None,
         "line 4: eigenvariable b:0 is free in the conclusion"),
        (part, var0("c"), _PART_OK, None,
         "line 4: particularization premise should be (=(c:0, c:0) > true)"),
    ],
    ids=["gen-ok", "gen-ref", "gen-shape", "gen-sort", "gen-free", "gen-premise",
         "part-ok", "part-ref", "part-shape", "part-sort", "part-free", "part-premise"],
)
def test_gen_and_part_errors(rule, eigen, conclusion, ref, error):
    proof = _quantifier_proof(rule, eigen, conclusion, ref)
    v = check_hilbert(proof, CAT2)
    assert (v.ok, v.length, v.error) == (error is None, len(proof.lines), error)
