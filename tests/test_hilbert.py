import pytest

from demod.hilbert import (
    Catalogue,
    GenLine,
    HilbertProof,
    HypLine,
    Line,
    MpLine,
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
    zi_axiom_schemata,
)
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
from demod.theories import OrderConfig, ZERO, eq, mem, numeral, plus, s_, var0

CAT2 = zi_axiom_schemata(OrderConfig(2))  # sorts 0, 1
x, y = var0("x"), var0("y")


def test_catalogue_counts():
    for i in (1, 2, 3):
        cat = zi_axiom_schemata(OrderConfig(i))
        assert len(cat.axiom_schema_ids()) == 15 + 2 * i + 2 + 7 + 1 + (i - 1)
    intuitionistic = zi_axiom_schemata(OrderConfig(1), classical=False)
    assert "TND" not in intuitionistic.axiom_schema_ids()
    assert "TND" in zi_axiom_schemata(OrderConfig(1)).axiom_schema_ids()


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


def test_every_schema_generates_a_checkable_one_line_proof():
    cat = zi_axiom_schemata(OrderConfig(2))
    h0 = var0("h")
    h1 = Var("h", arith(1))
    for name in cat.axiom_schema_ids():
        if name.startswith("UI^") or name.startswith("EI^"):
            j = int(name[3:])
            hj = Var("h", arith(j))
            inst = instance(
                name,
                templates=[("A", Template((hj,), eq(ZERO, ZERO)))],
                terms=[("tau", Var("w", arith(j)))],
            )
        elif name == "leibniz" or name == "ind":
            inst = instance(name, templates=[("A", Template((h0,), eq(h0, ZERO)))])
        elif name.startswith("comp^"):
            j = int(name[5:])
            hj = Var("h", arith(j))
            body = eq(ZERO, ZERO) if j > 0 else eq(hj, hj)
            inst = instance(name, templates=[("A", Template((hj,), body))])
        elif name in ("I", "TND"):
            inst = instance(name, templates=[("A", TRUE)])
        elif name in ("K", "W", "proj-l", "proj-r", "inj-l", "inj-r", "efsq", "contradiction"):
            inst = instance(name, templates=[("A", TRUE), ("B", FALSE)])
        elif name in ("C", "B", "pair", "case"):
            inst = instance(name, templates=[("A", TRUE), ("B", FALSE), ("C", eq(ZERO, ZERO))])
        else:
            inst = instance(name)
        prop = cat.instantiate(inst)
        proof = HilbertProof((schema_line(inst, prop),))
        verdict = check_hilbert(proof, cat)
        assert verdict.ok, f"{name}: {verdict.error}"
        assert verdict.length == 1


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
