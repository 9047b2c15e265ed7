import hashlib

import pytest

from demod import fileformat as ff
from demod.bench import random_nd_corpus
from demod.hilbert import (
    HilbertProof,
    Line,
    MpLine,
    SchemaLine,
    Template,
    check_hilbert,
    gen,
    hilbert_length,
    instance,
    mp,
    part,
    schema_line,
    zi_axiom_schemata,
)
from demod.nd import (
    AndE,
    AndI,
    Assume,
    ExistsE,
    ExistsI,
    ForallE,
    OrE,
    ForallI,
    Hyp,
    ImpE,
    ImpI,
    KINDS,
    OrI,
    TopI,
    check_nd,
    conclusion_of,
    fold_proof,
    nd_length,
)
from demod.rewriting import RewriteSystem, Rule
from demod.syntax import (
    And,
    Atom,
    Exists,
    FALSE,
    Forall,
    Imp,
    Or,
    TRUE,
    Var,
    alpha_equal,
    apply_substitution,
    arith,
    iff,
)
from demod.theories import (
    OrderConfig,
    Presentation,
    ZERO,
    add_atom,
    add_compatible_axioms,
    add_system,
    build_HHA,
    build_HO,
    eq,
    fz_axioms,
    mem,
    numeral,
    plus,
    s_,
    var0,
)
from demod.translate import (
    CompatibilityCertificate,
    TranslationError,
    _pi2,
    _Buf,
    eliminate_axioms,
    expand_congruences,
    hilbert_to_nd,
    nd_to_hilbert,
    verify_certificate,
    zi_hilbert_to_fz_modulo,
    zi_nd_to_hha,
)

CFG = OrderConfig(1)
CAT = zi_axiom_schemata(OrderConfig(1))  # sorts {0}
CAT_Z1 = zi_axiom_schemata(OrderConfig(2))  # sorts {0,1}: the system paired with HO_1
HO = build_HO(CFG)
HHA = build_HHA(CFG)
FZ = dict(fz_axioms().axioms)


def one_line(inst, cat=CAT):
    prop = cat.instantiate(inst)
    return HilbertProof((schema_line(inst, prop),)), prop


def test_pinned_propositional_lemmas():
    a, b, c = eq(ZERO, ZERO), TRUE, FALSE
    buf2 = _Buf()
    idx2 = _pi2(buf2, a, b, c)
    proof2 = HilbertProof(tuple(buf2.lines))
    assert idx2 == 17
    assert check_hilbert(proof2, CAT).ok


def test_c_schema_template_is_the_displayed_tree():
    inst = instance("C", templates=[("A", TRUE), ("B", FALSE), ("C", eq(ZERO, ZERO))])
    proof, prop = one_line(inst)
    out = hilbert_to_nd(proof, CAT)
    assert alpha_equal(conclusion_of(out.proof), prop)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok, verdict.error
    # five inferences plus three hypothesis leaves: the displayed eight-node tree
    assert verdict.length == 5
    assert out.assumptions == ()


def test_refl_instance_kept_as_assumption():
    proof, prop = one_line(instance("refl"))
    out = hilbert_to_nd(proof, CAT)
    assert nd_length(out.proof) == 0
    assert len(out.assumptions) == 1
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok


def test_three_line_proof_k_a_mp():
    a = eq(ZERO, ZERO)
    refl_i = instance("refl")
    refl_prop = CAT.instantiate(refl_i)
    k_inst = instance("K", templates=[("A", refl_prop), ("B", a)])
    lines = (
        schema_line(refl_i, refl_prop),
        schema_line(k_inst, Imp(refl_prop, Imp(a, refl_prop))),
        mp(1, 2, Imp(a, refl_prop)),
    )
    proof = HilbertProof(lines)
    assert check_hilbert(proof, CAT).ok
    out = hilbert_to_nd(proof, CAT)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok, verdict.error
    # one assumption leaf, the K template (2) and the joining imp-elim (1)
    assert verdict.length == 3
    assert alpha_equal(conclusion_of(out.proof), Imp(a, refl_prop))


def test_gen_translation():
    b = var0("b")
    a = var0("a")
    refl_i = instance("refl")
    refl_prop = CAT.instantiate(refl_i)
    ui_inst = instance(
        "UI^0",
        templates=[("A", Template((var0("h"),), eq(var0("h"), var0("h"))))],
        terms=[("tau", b)],
    )
    lines = (
        schema_line(refl_i, refl_prop),
        schema_line(ui_inst, Imp(refl_prop, eq(b, b))),
        mp(1, 2, eq(b, b)),
        schema_line(
            instance("K", templates=[("A", eq(b, b)), ("B", TRUE)]),
            Imp(eq(b, b), Imp(TRUE, eq(b, b))),
        ),
        mp(3, 4, Imp(TRUE, eq(b, b))),
        gen(5, b, Imp(TRUE, Forall(a, eq(a, a)))),
    )
    proof = HilbertProof(lines)
    assert check_hilbert(proof, CAT).ok
    out = hilbert_to_nd(proof, CAT)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok, verdict.error


def test_part_translation():
    b = var0("b")
    a = var0("a")
    lines = (
        schema_line(instance("T"), TRUE),
        schema_line(
            instance("K", templates=[("A", TRUE), ("B", eq(b, b))]),
            Imp(TRUE, Imp(eq(b, b), TRUE)),
        ),
        mp(1, 2, Imp(eq(b, b), TRUE)),
        part(3, b, Imp(Exists(a, eq(a, a)), TRUE)),
    )
    proof = HilbertProof(lines)
    assert check_hilbert(proof, CAT).ok
    out = hilbert_to_nd(proof, CAT)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok, verdict.error


# ---------------------------------------------------------------------------
# nd_to_hilbert


def test_t_on_hypothesis_imp_intro():
    a = eq(ZERO, ZERO)
    proof = ImpI(Imp(a, a), hyp=a, label="h", sub=Hyp("h", a))
    out = nd_to_hilbert(proof, CAT)
    assert hilbert_length(out) == 1
    line = out.lines[0]
    assert isinstance(line.just, SchemaLine) and line.just.instance.schema == "I"
    assert check_hilbert(out, CAT).ok


def test_t_on_tnd():
    from demod.nd import Tnd

    a = eq(ZERO, ZERO)
    proof = Tnd(Or(a, Imp(a, FALSE)), disjunct=a)
    out = nd_to_hilbert(proof, CAT)
    assert hilbert_length(out) == 1
    assert out.lines[0].just.instance.schema == "TND"
    assert check_hilbert(out, CAT).ok


def test_t_abs_imp_elim_case_block():
    # prove A > (A>B) > B by two abstractions over an elimination; the inner
    # abstraction replays the seven-line modus ponens block
    a = eq(ZERO, ZERO)
    b = eq(s_(ZERO), s_(ZERO))
    k_b = Imp(a, b)
    h1, h2 = "x", "f"
    inner = ImpE(b, minor=Hyp(h1, a), major=Hyp(h2, k_b))
    proof = ImpI(
        Imp(a, Imp(k_b, b)),
        hyp=a,
        label=h1,
        sub=ImpI(Imp(k_b, b), hyp=k_b, label=h2, sub=inner),
    )
    assert check_nd(proof).ok
    out = nd_to_hilbert(proof, CAT)
    v = check_hilbert(out, CAT)
    assert v.ok, v.error
    assert alpha_equal(out.conclusion(), Imp(a, Imp(k_b, b)))


def test_nd_to_hilbert_quantifiers():
    a = var0("a")
    y = var0("y")
    refl_inst = instance("refl")
    refl_prop = CAT.instantiate(refl_inst)
    # from the reflexivity axiom, prove all y. y = y by elim/intro
    proof = ForallI(
        Forall(y, eq(y, y)),
        var=y,
        body=eq(y, y),
        eigen=y,
        sub=ForallE(
            eq(y, y),
            var=a,
            body=eq(a, a),
            term=y,
            sub=Assume("r", refl_prop),
        ),
    )
    out = nd_to_hilbert(proof, CAT, instances={"r": refl_inst})
    v = check_hilbert(out, CAT)
    assert v.ok, v.error
    assert alpha_equal(out.conclusion(), Forall(y, eq(y, y)))


_A, _B = eq(ZERO, ZERO), eq(s_(ZERO), s_(ZERO))
_X = var0("x")
_REFL = CAT.instantiate(instance("refl"))


@pytest.mark.parametrize(
    "schema, proof",
    [
        ("proj-l", ImpI(Imp(And(_A, _B), _A), And(_A, _B), "h",
                        AndE(_A, other=_B, side="left", sub=Hyp("h", And(_A, _B))))),
        ("proj-r", ImpI(Imp(And(_A, _B), _B), And(_A, _B), "h",
                        AndE(_B, other=_A, side="right", sub=Hyp("h", And(_A, _B))))),
        ("inj-l", ImpI(Imp(_A, Or(_A, _B)), _A, "h",
                       OrI(Or(_A, _B), other=_B, side="left", sub=Hyp("h", _A)))),
        ("inj-r", ImpI(Imp(_B, Or(_A, _B)), _B, "h",
                       OrI(Or(_A, _B), other=_A, side="right", sub=Hyp("h", _B)))),
        ("UI^0", ForallE(_B, var=_X, body=eq(_X, _X), term=s_(ZERO), sub=Assume("r", _REFL))),
        ("EI^0", ImpI(Imp(_A, Exists(_X, eq(_X, _X))), _A, "h",
                      ExistsI(Exists(_X, eq(_X, _X)), var=_X, body=eq(_X, _X), term=ZERO,
                              sub=Hyp("h", _A)))),
    ],
)
def test_one_premise_rules_round_trip(schema, proof):
    # each one-premise rule becomes its schema, and the schema becomes the rule again
    assert check_nd(proof, assumptions={"r": _REFL}).ok
    out = nd_to_hilbert(proof, CAT, instances={"r": instance("refl")})
    v = check_hilbert(out, CAT)
    assert v.ok, v.error
    assert schema in [line.just.instance.schema for line in out.lines if isinstance(line.just, SchemaLine)]
    assert alpha_equal(out.conclusion(), conclusion_of(proof))
    back = hilbert_to_nd(out, CAT)
    w = check_nd(back.proof, assumptions=back.assumption_dict())
    assert w.ok, w.error
    assert alpha_equal(conclusion_of(back.proof), conclusion_of(proof))


def test_nd_to_hilbert_rejects_modulo_proofs():
    proof = TopI(add_atom(numeral(1), numeral(1), numeral(2)))
    with pytest.raises(TranslationError):
        nd_to_hilbert(proof, CAT)


def test_nd_to_hilbert_exists():
    # from a = a (axiom refl, eliminated at 0) conclude ex b. b = b? use:
    # T > things get complicated; here: prove (ex x. x = x) from refl
    a = var0("a")
    x = var0("x")
    refl_inst = instance("refl")
    refl_prop = CAT.instantiate(refl_inst)
    from demod.nd import ExistsI, ForallE

    proof = ExistsI(
        Exists(x, eq(x, x)),
        var=x,
        body=eq(x, x),
        term=ZERO,
        sub=ForallE(eq(ZERO, ZERO), var=a, body=eq(a, a), term=ZERO, sub=Assume("r", refl_prop)),
    )
    out = nd_to_hilbert(proof, CAT, instances={"r": refl_inst})
    assert check_hilbert(out, CAT).ok
    assert alpha_equal(out.conclusion(), Exists(x, eq(x, x)))


def test_nd_to_hilbert_or_elim_abstraction():
    # case split under an abstraction: (A | A) > A
    a = eq(ZERO, ZERO)
    dis = Or(a, a)
    proof = ImpI(
        Imp(dis, a),
        hyp=dis,
        label="d",
        sub=OrE(
            a,
            left=a,
            right=a,
            label_left="l",
            label_right="r",
            major=Hyp("d", dis),
            sub_left=Hyp("l", a),
            sub_right=Hyp("r", a),
        ),
    )
    assert check_nd(proof).ok
    out = nd_to_hilbert(proof, CAT)
    v = check_hilbert(out, CAT)
    assert v.ok, v.error
    assert alpha_equal(out.conclusion(), Imp(dis, a))


def _most_open_hypotheses(proof):
    """The most hypotheses open in any node's subtree, counted by label as the
    checker discharges them: a binder closes its label in its own premise."""
    most = 0

    def open_labels(p, results):
        nonlocal most
        if isinstance(p, Hyp):
            labels = {p.label}
        else:
            closed = {b.scope: getattr(p, b.label) for b in KINDS[type(p)].binds}
            labels = set()
            for name, below in zip(KINDS[type(p)].premises, results):
                labels |= below - {closed.get(name)}
        most = max(most, len(labels))
        return labels

    fold_proof(proof, open_labels)
    return most


def _nested(k):
    """k nested implication introductions over the left-nested conjunction of
    their k hypotheses: 2k - 1 inferences, and k hypotheses open at the root
    of the conjunction."""
    hyps = [eq(var0(f"x{i}"), var0(f"x{i}")) for i in range(k)]
    body = Hyp("u0", hyps[0])
    for i in range(1, k):
        body = AndI(And(conclusion_of(body), hyps[i]), body, Hyp(f"u{i}", hyps[i]))
    for i in reversed(range(k)):
        body = ImpI(Imp(hyps[i], conclusion_of(body)), hyp=hyps[i], label=f"u{i}", sub=body)
    return body


_E, _Y = var0("e"), var0("y")
_SOME = Exists(_Y, eq(_Y, _Y))


def _eigen_in_major_hypothesis():
    # the major premise of the case on e holds h : e = e & ex y. y = y open,
    # with e free in it; the branch holds nothing open
    h = And(eq(_E, _E), _SOME)
    major = AndE(_SOME, other=eq(_E, _E), side="right", sub=Hyp("h", h))
    case = ExistsE(TRUE, var=_Y, body=eq(_Y, _Y), eigen=_E, label="w", major=major, sub=TopI(TRUE))
    return ImpI(Imp(h, TRUE), hyp=h, label="h", sub=case)


def _eigen_in_outer_hypothesis():
    # e is generalized below h : e = 0, in a subtree where h is not open
    every = ForallI(Forall(_E, eq(_E, _E)), var=_E, body=eq(_E, _E), eigen=_E,
                    sub=ForallE(eq(_E, _E), var=_X, body=eq(_X, _X), term=_E, sub=Assume("r", _REFL)))
    h = eq(_E, ZERO)
    both = AndI(And(conclusion_of(every), h), every, Hyp("h", h))
    inner = ImpI(Imp(TRUE, conclusion_of(both)), hyp=TRUE, label="k", sub=both)
    return ImpI(Imp(h, conclusion_of(inner)), hyp=h, label="h", sub=inner)


def _imp_chain_over(hyps, labels, body):
    for h, label in zip(reversed(hyps), reversed(labels)):
        body = ImpI(Imp(h, conclusion_of(body)), hyp=h, label=label, sub=body)
    return body


_C = eq(s_(s_(ZERO)), s_(s_(ZERO)))
_XYZ = AndI(And(And(_A, _B), _C), AndI(And(_A, _B), Hyp("x", _A), Hyp("y", _B)), Hyp("z", _C))

# inputs the seeded corpus does not draw
HYPOTHESIS_CASES = {
    "eigen-in-major-hypothesis": _eigen_in_major_hypothesis(),
    "eigen-in-outer-hypothesis": _eigen_in_outer_hypothesis(),
    # an inner binder reuses the outer label u: each leaf is the nearest binder's
    "label-reused-in-a-branch": ImpI(Imp(_A, And(_A, Imp(_B, _B))), hyp=_A, label="u", sub=AndI(
        And(_A, Imp(_B, _B)), Hyp("u", _A), ImpI(Imp(_B, _B), hyp=_B, label="u", sub=Hyp("u", _B)))),
    "label-reused-below-another": _imp_chain_over(
        [_A, _C, _B], ["u", "v", "u"], AndI(And(_C, _B), Hyp("v", _C), Hyp("u", _B))),
    # proj-r and inj-r with two and three hypotheses open at the node
    "proj-r-under-two": _imp_chain_over(
        [_A, _B, _C], ["x", "y", "z"], AndE(_B, other=_A, side="right", sub=AndI(
            And(_A, _B), Hyp("x", _A), Hyp("y", _B)))),
    "proj-r-under-three": _imp_chain_over(
        [_A, _B, _C], ["x", "y", "z"], AndE(_C, other=And(_A, _B), side="right", sub=_XYZ)),
    "inj-r-under-two": _imp_chain_over(
        [_A, _B], ["x", "y"], OrI(Or(_A, _B), other=_A, side="right", sub=AndE(
            _B, other=_A, side="right", sub=AndI(And(_A, _B), Hyp("x", _A), Hyp("y", _B))))),
    "inj-r-under-three": _imp_chain_over(
        [_A, _B, _C], ["x", "y", "z"], OrI(Or(_A, _C), other=_A, side="right", sub=AndE(
            _C, other=And(_A, _B), side="right", sub=_XYZ))),
}


@pytest.mark.parametrize("name", HYPOTHESIS_CASES)
def test_nd_to_hilbert_under_open_hypotheses(name):
    # the first two once came out as Hilbert proofs that generalized over a
    # hypothesis holding the eigenvariable free
    proof = HYPOTHESIS_CASES[name]
    assert check_nd(proof, assumptions={"r": _REFL}).ok
    out = nd_to_hilbert(proof, CAT, instances={"r": instance("refl")})
    v = check_hilbert(out, CAT)
    assert v.ok, v.error
    assert alpha_equal(out.conclusion(), conclusion_of(proof))
    schemas = {line.just.instance.schema for line in out.lines if isinstance(line.just, SchemaLine)}
    for rule in ("proj-r", "inj-r"):
        assert rule not in name or rule in schemas


@pytest.mark.parametrize("depth", [1500, 10_000])
def test_nd_to_hilbert_reaches_any_depth(depth):
    proof = TopI(TRUE)
    for _ in range(depth):
        proof = OrI(Or(conclusion_of(proof), TRUE), other=TRUE, side="left", sub=proof)
    out = nd_to_hilbert(proof, CAT)
    assert hilbert_length(out) == 2 * depth + 1
    assert check_hilbert(out, CAT).ok
    assert out.conclusion() is conclusion_of(proof)


def test_nd_to_hilbert_is_linear_in_open_hypotheses():
    # each node is translated once, as one line under the conjunction of the
    # hypotheses open in its subtree, which costs O(h + 1) lines: the bound's
    # constant is criterion 7's
    from test_acceptance import K_ABSTRACTION

    def length(proof, instances=(), check=True):
        out = nd_to_hilbert(proof, CAT, instances)
        if check:
            v = check_hilbert(out, CAT)
            assert v.ok, v.error
            assert alpha_equal(out.conclusion(), conclusion_of(proof))
        n, h = nd_length(proof), _most_open_hypotheses(proof)
        assert hilbert_length(out) <= K_ABSTRACTION * n * (h + 1)
        return hilbert_length(out)

    nested = {k: length(_nested(k), check=k <= 12 or k % 50 == 0) for k in range(1, 201)}
    assert [nested[k] for k in range(1, 7)] == [1, 23, 49, 75, 101, 127]
    assert nested[200] == 5171
    for seed, restricted in ((2025, True), (2026, False)):  # criterion 7's corpora
        for proof, instances in random_nd_corpus(60, seed, restricted):
            length(proof, instances)
    for proof in HYPOTHESIS_CASES.values():
        length(proof, {"r": instance("refl")})


def test_translation_without_open_hypotheses_is_pinned():
    # restricted proofs discharge no hypothesis, so each node is translated
    # with no context: these are the lines of the rules themselves
    digest = hashlib.sha256()
    for proof, instances in random_nd_corpus(60, 2025, restricted=True):
        digest.update(ff.dumps(ff.hilbert_to_sx(nd_to_hilbert(proof, CAT, instances))).encode() + b"\n")
    assert digest.hexdigest() == "b031143d80a93e4aa76f86916094bf9c9d803b3fa3811bc277126a7c42a1bbe6"


# ---------------------------------------------------------------------------
# the modulo translations


def test_zi_hilbert_to_fz_fragments():
    h = var0("h")
    leib = instance("leibniz", templates=[("A", Template((h,), eq(h, ZERO)))])
    proof, prop = one_line(leib, CAT_Z1)
    out = zi_hilbert_to_fz_modulo(proof, CAT_Z1)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict(), system=HO)
    assert verdict.ok, verdict.error
    assert verdict.length == 1
    assert set(out.assumption_dict()) == {"leibniz-ax"}
    assert alpha_equal(conclusion_of(out.proof), prop)

    ind = instance("ind", templates=[("A", Template((h,), eq(h, h)))])
    proof2, prop2 = one_line(ind, CAT_Z1)
    out2 = zi_hilbert_to_fz_modulo(proof2, CAT_Z1)
    assert check_nd(out2.proof, assumptions=out2.assumption_dict(), system=HO).ok
    assert nd_length(out2.proof) == 1

    h1 = Var("h", arith(0))
    comp0 = instance("comp^0", templates=[("A", Template((h1,), eq(h1, ZERO)))])
    proof3, prop3 = one_line(comp0, CAT_Z1)
    out3 = zi_hilbert_to_fz_modulo(proof3, CAT_Z1)
    v3 = check_nd(out3.proof, assumptions=out3.assumption_dict(), system=HO)
    assert v3.ok, v3.error
    assert v3.length == 5
    assert out3.assumptions == ()  # comprehension is all congruence


def test_zi_hilbert_to_fz_propositional_passthrough():
    inst = instance("K", templates=[("A", TRUE), ("B", eq(ZERO, ZERO))])
    proof, prop = one_line(inst, CAT_Z1)
    out = zi_hilbert_to_fz_modulo(proof, CAT_Z1)
    assert out.assumptions == ()
    assert check_nd(out.proof, system=HO).ok


def test_zi_nd_to_hha_removes_assumptions():
    h = var0("h")
    refl_inst = instance("refl")
    leib_inst = instance("leibniz", templates=[("A", Template((h,), eq(h, ZERO)))])
    a_prop = CAT.instantiate(refl_inst)
    b_prop = CAT.instantiate(leib_inst)
    from demod.nd import AndI

    proof = AndI(
        And(a_prop, b_prop),
        Assume("r", a_prop),
        Assume("l", b_prop),
    )
    assert check_nd(proof, assumptions={"r": a_prop, "l": b_prop}).ok
    out = zi_nd_to_hha(proof, {"r": refl_inst, "l": leib_inst})
    verdict = check_nd(out, system=HHA, mode="mixed")
    assert verdict.ok, verdict.error
    assert alpha_equal(conclusion_of(out), conclusion_of(proof))
    # assumption-free: checking with no assumptions succeeded, and lengths add up
    assert verdict.length == 1 + 3 + 6


def test_zi_nd_to_hha_unknown_assumption():
    proof = Assume("mystery", TRUE)
    with pytest.raises(TranslationError):
        zi_nd_to_hha(proof, {})


# ---------------------------------------------------------------------------
# compatibility certificates and axiom elimination

ADD = add_system()
GAMMA_STD = add_compatible_axioms()
GAMMA_EQ = Presentation(
    "Add-equiv",
    (
        ("add-base-eq", Forall(var0("y"), iff(add_atom(ZERO, var0("y"), var0("y")), TRUE))),
        ("add-step-eq", GAMMA_STD.axioms[1][1]),
    ),
)


def _std_axiom_proofs():
    y = var0("y")
    base = ForallI(
        Forall(y, add_atom(ZERO, y, y)),
        var=y,
        body=add_atom(ZERO, y, y),
        eigen=y,
        sub=TopI(add_atom(ZERO, y, y)),
    )
    x, z = var0("x"), var0("z")
    lhs = add_atom(s_(x), y, s_(z))
    rhs = add_atom(x, y, z)
    fwd = ImpI(Imp(lhs, rhs), hyp=lhs, label="f", sub=Hyp("f", lhs))
    bwd = ImpI(Imp(rhs, lhs), hyp=rhs, label="b", sub=Hyp("b", rhs))
    both = AndI(iff(lhs, rhs), fwd, bwd)
    step = both
    for v in (z, y, x):
        step = ForallI(
            Forall(v, conclusion_of(step)), var=v, body=conclusion_of(step), eigen=v, sub=step
        )
    return (("add-base-ax", base), ("add-step-ax", step))


def _eq_axiom_proofs():
    y = var0("y")
    add0 = add_atom(ZERO, y, y)
    fwd = ImpI(Imp(add0, TRUE), hyp=add0, label="f", sub=TopI(TRUE))
    bwd = ImpI(Imp(TRUE, add0), hyp=TRUE, label="b", sub=TopI(add0))
    from demod.nd import AndI

    both = AndI(iff(add0, TRUE), fwd, bwd)
    base = ForallI(Forall(y, iff(add0, TRUE)), var=y, body=iff(add0, TRUE), eigen=y, sub=both)
    step = _std_axiom_proofs()[1][1]
    return (("add-base-eq", base), ("add-step-eq", step))


def _rules_from_std():
    y = var0("y")
    add0 = add_atom(ZERO, y, y)
    fwd = ImpI(Imp(add0, TRUE), hyp=add0, label="f", sub=TopI(TRUE))
    base_ax = Assume("add-base-ax", GAMMA_STD.as_dict()["add-base-ax"])
    from demod.nd import ForallE, AndI

    inst = ForallE(add0, var=y, body=add_atom(ZERO, y, y), term=y, sub=base_ax)
    bwd = ImpI(Imp(TRUE, add0), hyp=TRUE, label="b", sub=inst)
    both = AndI(iff(add0, TRUE), fwd, bwd)
    closed = ForallI(Forall(y, iff(add0, TRUE)), var=y, body=iff(add0, TRUE), eigen=y, sub=both)
    return (
        ("add-base", closed),
        ("add-step", Assume("add-step-ax", GAMMA_STD.as_dict()["add-step-ax"])),
    )


def _rules_from_eq():
    return (
        ("add-base", Assume("add-base-eq", GAMMA_EQ.as_dict()["add-base-eq"])),
        ("add-step", Assume("add-step-eq", GAMMA_EQ.as_dict()["add-step-eq"])),
    )


CERT_STD_TO_EQ = CompatibilityCertificate(ADD, GAMMA_STD, GAMMA_EQ, _std_axiom_proofs(), _rules_from_eq())
CERT_EQ_TO_STD = CompatibilityCertificate(ADD, GAMMA_EQ, GAMMA_STD, _eq_axiom_proofs(), _rules_from_std())


def test_certificates_verify():
    assert verify_certificate(CERT_STD_TO_EQ)
    assert verify_certificate(CERT_EQ_TO_STD)


def test_expand_congruences_gives_pure_proof():
    proof = CERT_STD_TO_EQ.axiom_proof("add-base-ax")
    pure = expand_congruences(proof, CERT_STD_TO_EQ)
    v = check_nd(pure, assumptions=GAMMA_EQ.as_dict())
    assert v.ok, v.error
    assert alpha_equal(conclusion_of(pure), GAMMA_STD.as_dict()["add-base-ax"])


def test_eliminate_axioms_round_trip():
    # a two-step proof using the standard axioms: Add(1, 0, 1)
    y, x, z = var0("y"), var0("x"), var0("z")
    from demod.nd import AndE, ForallE

    base_inst = ForallE(
        add_atom(ZERO, ZERO, ZERO),
        var=y,
        body=add_atom(ZERO, y, y),
        term=ZERO,
        sub=Assume("add-base-ax", GAMMA_STD.as_dict()["add-base-ax"]),
    )
    step_ax = Assume("add-step-ax", GAMMA_STD.as_dict()["add-step-ax"])
    e1 = ForallE(
        Forall(y, Forall(z, iff(add_atom(s_(ZERO), y, s_(z)), add_atom(ZERO, y, z)))),
        var=x,
        body=Forall(y, Forall(z, iff(add_atom(s_(x), y, s_(z)), add_atom(x, y, z)))),
        term=ZERO,
        sub=step_ax,
    )
    e2 = ForallE(
        Forall(z, iff(add_atom(s_(ZERO), ZERO, s_(z)), add_atom(ZERO, ZERO, z))),
        var=y,
        body=Forall(z, iff(add_atom(s_(ZERO), y, s_(z)), add_atom(ZERO, y, z))),
        term=ZERO,
        sub=e1,
    )
    e3 = ForallE(
        iff(add_atom(s_(ZERO), ZERO, s_(ZERO)), add_atom(ZERO, ZERO, ZERO)),
        var=z,
        body=iff(add_atom(s_(ZERO), ZERO, s_(z)), add_atom(ZERO, ZERO, z)),
        term=ZERO,
        sub=e2,
    )
    back = AndE(
        Imp(add_atom(ZERO, ZERO, ZERO), add_atom(s_(ZERO), ZERO, s_(ZERO))),
        other=Imp(add_atom(s_(ZERO), ZERO, s_(ZERO)), add_atom(ZERO, ZERO, ZERO)),
        side="right",
        sub=e3,
    )
    proof = ImpE(add_atom(s_(ZERO), ZERO, s_(ZERO)), minor=base_inst, major=back)
    assert check_nd(proof, assumptions=GAMMA_STD.as_dict()).ok

    translated = eliminate_axioms(proof, CERT_STD_TO_EQ)
    v = check_nd(translated, assumptions=GAMMA_EQ.as_dict())
    assert v.ok, v.error
    assert alpha_equal(conclusion_of(translated), conclusion_of(proof))

    back_again = eliminate_axioms(translated, CERT_EQ_TO_STD)
    v2 = check_nd(back_again, assumptions=GAMMA_STD.as_dict())
    assert v2.ok, v2.error


def test_eliminate_axioms_no_axioms_unchanged():
    a = eq(ZERO, ZERO)
    proof = ImpI(Imp(a, a), hyp=a, label="h", sub=Hyp("h", a))
    out = eliminate_axioms(proof, CERT_STD_TO_EQ)
    assert out == proof


def test_eliminate_axioms_reaches_induction_premises():
    from demod.nd import IndI, premises
    from demod.syntax import CLASS
    from demod.theories import member

    n, k, c = var0("n"), var0("k"), Var("c", CLASS)
    ax = GAMMA_STD.as_dict()["add-base-ax"]
    proof = IndI(member([n], c), cls=c, term=n, eigen=k, label="h",
                 base=Assume("add-base-ax", ax), step=Assume("add-base-ax", ax))
    out = eliminate_axioms(proof, CERT_STD_TO_EQ)
    source = GAMMA_STD.as_dict()
    stack, left = [out], []
    while stack:
        node = stack.pop()
        if isinstance(node, Assume) and node.name in source:
            left.append(node.name)
        stack.extend(premises(node))
    assert left == []
    with pytest.raises(TranslationError):
        expand_congruences(proof, CERT_STD_TO_EQ)


# ---------------------------------------------------------------------------
# Congruence expansion: linear in steps and depth, and certificates that fit it

ADD_ONLY = CompatibilityCertificate(ADD, Presentation("none", ()), GAMMA_STD, (), _rules_from_std())


def _closure_free_base():
    # the add-base equivalence of _rules_from_std without its closing quantifier: y stays free
    (_, base), step = _rules_from_std()
    return (("add-base", base.sub), step)


@pytest.mark.parametrize("equivalences", [
    (("add-base", TopI(TRUE)), ("add-step", TopI(TRUE))),
    _closure_free_base(),
], ids=["proves-true", "not-closed"])
def test_a_rule_equivalence_must_state_the_rule_closed_over_its_left_side(equivalences):
    for _, proof in equivalences:
        assert check_nd(proof, assumptions=GAMMA_STD.as_dict()).ok
    cert = CompatibilityCertificate(ADD, Presentation("none", ()), GAMMA_STD, (), equivalences)
    assert not verify_certificate(cert)
    with pytest.raises(TranslationError, match="add-base"):
        expand_congruences(TopI(add_atom(ZERO, ZERO, ZERO)), cert)


def test_expanded_add_proofs_are_linear_in_n():
    from demod.bench import gen_add_modulo_proof

    # 7n + 10 inferences: one trace step per unfolding, and one cut
    axioms = GAMMA_STD.as_dict()
    for n in (0, 1, 2, 3, 5, 10, 50, 100, 200):
        pure = expand_congruences(gen_add_modulo_proof(n), ADD_ONLY)
        assert nd_length(pure) <= 10 * (n + 1)
        v = check_nd(pure, assumptions=axioms)
        assert v.ok, v.error
        assert conclusion_of(pure) == add_atom(numeral(n), numeral(n), numeral(2 * n))


def _under(layers, hole):
    """``hole`` under ``layers``, innermost first; the quantifiers bind y, a
    name the add rules use too."""
    y, other = var0("y"), eq(ZERO, ZERO)
    wrap = {"and-left": lambda p: And(p, other), "and-right": lambda p: And(other, p),
            "or-left": lambda p: Or(p, other), "or-right": lambda p: Or(other, p),
            "imp-left": lambda p: Imp(p, other), "imp-right": lambda p: Imp(other, p),
            "forall": lambda p: Forall(y, p), "exists": lambda p: Exists(y, p)}
    for layer in layers:
        hole = wrap[layer](hole)
    return hole


def _unfolding(k):
    """Add(s^k(y), 0, s^k(y)), which the add rules take to Add(y, 0, y) in k steps."""
    t = var0("y")
    for _ in range(k):
        t = s_(t)
    return add_atom(t, ZERO, t)


def test_each_step_costs_at_most_eight_inferences_per_layer():
    import random

    from demod.rewriting import connecting_trace

    # a > b proved modulo by its hypothesis leaves one obligation, (a > b) against (a > a), whose
    # trace runs through the common normal form, so it has backward steps.  With k steps at depth
    # d, the expansion has at most C k (d + 1) inferences, C = 8.  The first context puts the
    # backward steps under an implication's premise and a quantifier; the others are random.
    rng = random.Random(24)
    kinds = ("and-left", "and-right", "or-left", "or-right", "imp-left", "imp-right", "forall", "exists")
    contexts = [("forall", "imp-left")]
    contexts += [[rng.choice(kinds) for _ in range(depth)] for depth in (0, 1, 2, 3, 5, 8, 13, 21, 34, 50)]
    for layers in contexts:
        start, end = _under(layers, _unfolding(3)), _under(layers, _unfolding(2))
        for a, b in ((start, end), (end, start)):
            proof = ImpI(Imp(a, b), hyp=a, label="h", sub=Hyp("h", a))
            assert check_nd(proof, system=ADD, mode="mixed").ok
            trace = connecting_trace(Imp(a, b), Imp(a, a), ADD)
            assert not all(step.forward for step in trace.steps)
            pure = expand_congruences(proof, ADD_ONLY)
            depth = len(layers) + 1  # of the rewritten atoms in a > b
            assert nd_length(pure) <= 8 * len(trace) * (depth + 1)
            v = check_nd(pure, assumptions=GAMMA_STD.as_dict())
            assert v.ok, v.error
            assert conclusion_of(pure) == Imp(a, b)


def test_a_rewrite_at_a_term_position_is_refused():
    x = var0("x")
    system = RewriteSystem("plus-zero", (Rule("plus-zero", plus(ZERO, x), x),), terminating=True, confluent=True)
    cert = CompatibilityCertificate(system, Presentation("none", ()), Presentation("none", ()), (),
                                    (("plus-zero", TopI(TRUE)),))
    a, b = eq(plus(ZERO, ZERO), ZERO), eq(ZERO, ZERO)
    proof = ImpI(Imp(a, b), hyp=a, label="h", sub=Hyp("h", a))
    assert check_nd(proof, system=system, mode="mixed").ok
    with pytest.raises(TranslationError, match="term position"):
        expand_congruences(proof, cert)


# ---------------------------------------------------------------------------
# The forward pass: each used line built once, with its own eigenvariable


def test_gen_keeps_its_eigenvariable_beside_a_variable_named_e1():
    # the eigenvariable b used to be renamed e1, the name of a variable the
    # line's own hypothesis holds free
    b, a, e1 = var0("b"), var0("a"), var0("e1")
    refl_i = instance("refl")
    refl_prop = CAT.instantiate(refl_i)
    ui_inst = instance("UI^0", templates=[("A", Template((a,), eq(a, a)))], terms=[("tau", b)])
    k_inst = instance("K", templates=[("A", eq(b, b)), ("B", eq(e1, e1))])
    proof = HilbertProof((
        schema_line(refl_i, refl_prop),
        schema_line(ui_inst, Imp(refl_prop, eq(b, b))),
        mp(1, 2, eq(b, b)),
        schema_line(k_inst, Imp(eq(b, b), Imp(eq(e1, e1), eq(b, b)))),
        mp(3, 4, Imp(eq(e1, e1), eq(b, b))),
        gen(5, b, Imp(eq(e1, e1), Forall(a, eq(a, a)))),
    ))
    assert check_hilbert(proof, CAT_Z1).ok
    out = hilbert_to_nd(proof, CAT_Z1)
    verdict = check_nd(out.proof, assumptions=out.assumption_dict())
    assert verdict.ok, verdict.error
    fz = zi_hilbert_to_fz_modulo(proof, CAT_Z1)
    verdict = check_nd(fz.proof, assumptions=fz.assumption_dict(), system=HO)
    assert verdict.ok, verdict.error


def _chain(length: int) -> HilbertProof:
    """T, K(T, T), then modus ponens lines that alternate T > T and T, each
    citing the line before it once: a derivation ``length`` lines deep."""
    k_inst = instance("K", templates=[("A", TRUE), ("B", TRUE)])
    lines = [schema_line(instance("T"), TRUE), schema_line(k_inst, Imp(TRUE, Imp(TRUE, TRUE))),
             mp(1, 2, Imp(TRUE, TRUE))]
    while len(lines) < length:
        k = len(lines)
        lines.append(mp(k, 2, Imp(TRUE, TRUE)) if lines[-1].prop == TRUE else mp(1, k, TRUE))
    return HilbertProof(tuple(lines))


def test_a_4001_line_chain_translates_and_checks(tmp_path, capsys):
    from demod.cli import main
    from demod.fileformat import dumps, hilbert_to_sx

    proof = _chain(4001)
    assert len(proof.lines) == 4001 and check_hilbert(proof, CAT_Z1).ok
    for translate in (hilbert_to_nd, zi_hilbert_to_fz_modulo):
        out = translate(proof, CAT_Z1)
        verdict = check_nd(out.proof, assumptions=out.assumption_dict())
        assert verdict.ok, verdict.error
    path = tmp_path / "chain.sexp"
    path.write_text(dumps(hilbert_to_sx(proof)))
    assert main(["translate", "hilbert-nd", str(path), "--order", "1", "--out", str(tmp_path / "nd.sexp")]) == 0
    capsys.readouterr()


def _reuse_proof(rounds: int) -> HilbertProof:
    """T, then per round K(T, T), T > T and T, where the round's T is cited
    twice: 1 + 3 * rounds lines."""
    k_inst = instance("K", templates=[("A", TRUE), ("B", TRUE)])
    lines, last = [schema_line(instance("T"), TRUE)], 1
    for _ in range(rounds):
        lines.append(schema_line(k_inst, Imp(TRUE, Imp(TRUE, TRUE))))
        lines.append(mp(last, len(lines), Imp(TRUE, TRUE)))
        lines.append(mp(last, len(lines), TRUE))
        last = len(lines)
    return HilbertProof(tuple(lines))


def _length_within(proof, budget: int) -> int:
    """``nd_length(proof)``, or ``budget + 1`` as soon as the walk passes the
    budget: a translation that copies shared lines stops here, not after 2^r nodes."""
    from demod.nd import LEAVES, premises

    count, stack = 0, [proof]
    while stack and count <= budget:
        node = stack.pop()
        count += not isinstance(node, LEAVES)
        stack.extend(premises(node))
    return count


# criterion 7's constants, not raised for shared lines
C_HILBERT_TO_ND, C_ZI_TO_FZ = 6, 8
TRANSLATIONS = ((hilbert_to_nd, None, C_HILBERT_TO_ND), (zi_hilbert_to_fz_modulo, HO, C_ZI_TO_FZ))


def _assert_linear(proof: HilbertProof) -> None:
    n = len(proof.lines)
    for translate, system, bound in TRANSLATIONS:
        out = translate(proof, CAT_Z1)
        length = _length_within(out.proof, bound * n)  # a local, so a failure does not print the proof
        assert length <= bound * n, (translate.__name__, n)
        verdict = check_nd(out.proof, assumptions=out.assumption_dict(), system=system)
        assert verdict.ok, verdict.error
        assert alpha_equal(conclusion_of(out.proof), proof.conclusion())


def test_a_line_used_twice_is_built_once():
    # each round's T is cited twice: copied at each use, the output would
    # double every round (2^r); proved once and cut, it stays within
    # C * lines, with C = 6 (pure ND) and 8 (FZ modulo), up to 3,001 lines
    for rounds in (*range(31), 1000):
        _assert_linear(_reuse_proof(rounds))


def _cuts(proof):
    """The lemmas a translation cut in at the root, outermost first, as the
    proofs that stand for their hypotheses."""
    while (isinstance(proof, ImpE) and isinstance(proof.major, ImpI)
           and proof.major.conclusion.right == proof.conclusion):
        yield proof.minor
        proof = proof.major.sub


def test_shared_lemmas_closed_over_eigenvariables_stay_linear():
    from demod.bench import random_shared_hilbert_corpus

    closed = 0
    for proof in random_shared_hilbert_corpus(80, 21):
        _assert_linear(proof)
        closed += sum(isinstance(p, ForallI) for p in _cuts(hilbert_to_nd(proof, CAT_Z1).proof))
    assert closed > 0  # some lemma held a dependent eigenvariable free


def test_a_shared_lemma_still_keeps_its_axiom_instances_clear_of_the_eigenvariable():
    # line 1, a Leibniz instance with c free, is cited by lines 3 and 7; the
    # gen line 4 over c depends on it, so c cannot be generalized
    c, h, w = var0("c"), var0("h"), var0("w")
    leib = instance("leibniz", templates=[("A", Template((h,), eq(h, c)))])
    p = CAT_Z1.instantiate(leib)
    top = Imp(TRUE, Forall(w, apply_substitution(p, {c: w})))
    proof = HilbertProof((
        schema_line(leib, p),
        schema_line(instance("K", templates=[("A", p), ("B", TRUE)]), Imp(p, Imp(TRUE, p))),
        mp(1, 2, Imp(TRUE, p)),
        gen(3, c, top),
        schema_line(instance("K", templates=[("A", top), ("B", p)]), Imp(top, Imp(p, top))),
        mp(4, 5, Imp(p, top)),
        mp(1, 6, top),
    ))
    assert check_hilbert(proof, CAT_Z1).ok
    with pytest.raises(TranslationError, match="generalized variable"):
        hilbert_to_nd(proof, CAT_Z1)


def test_translation_lengths_on_a_seeded_corpus_are_pinned():
    from demod.bench import random_hilbert_corpus

    corpus = random_hilbert_corpus(60, 2024)
    to_nd = [nd_length(hilbert_to_nd(p, CAT_Z1).proof) for p in corpus]
    to_fz = [nd_length(zi_hilbert_to_fz_modulo(p, CAT_Z1).proof) for p in corpus]
    assert to_nd == [7, 7, 0, 7, 0, 9, 0, 0, 7, 9, 7, 9, 7, 7, 2, 0, 9, 0, 7, 0, 9, 0, 2, 9, 0, 7, 0, 7, 4, 4,
                     4, 0, 4, 9, 10, 8, 2, 0, 0, 9, 0, 9, 4, 3, 0, 0, 7, 9, 5, 0, 5, 10, 0, 2, 9, 2, 2, 0, 7, 5]
    assert to_fz == [7, 7, 5, 7, 5, 9, 1, 5, 7, 9, 7, 9, 7, 7, 2, 5, 9, 5, 7, 1, 9, 1, 2, 9, 5, 7, 1, 7, 4, 4,
                     4, 5, 4, 9, 10, 8, 2, 5, 1, 9, 5, 9, 4, 4, 1, 5, 7, 9, 5, 5, 5, 10, 5, 2, 9, 2, 2, 1, 7, 5]
    assert (sum(to_nd), sum(to_fz)) == (261, 329)
