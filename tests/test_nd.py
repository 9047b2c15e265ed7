import pytest

from demod.nd import (
    AndE,
    AndI,
    Assume,
    BotE,
    ExistsE,
    ExistsI,
    ForallE,
    ForallI,
    Hyp,
    ImpE,
    ImpI,
    IndI,
    OrE,
    OrI,
    Tnd,
    TopI,
    Verdict,
    check_nd,
    conclusion_of,
    nd_length,
    proof_size,
)
from demod.rewriting import Rule, RewriteSystem, Trace, RewriteStep, connecting_trace
from demod.syntax import (
    And,
    Atom,
    FALSE,
    Forall,
    Imp,
    Or,
    PredDecl,
    Signature,
    TRUE,
    Var,
    arith,
    iff,
)
from demod.theories import (
    OrderConfig,
    ZERO,
    add_atom,
    add_system,
    build_HHA,
    encode_prop,
    eq,
    member,
    numeral,
    s_,
    var0,
)

A = Atom("A", ())
B = Atom("B", ())
ADD = add_system()

# A -> A | B rewrites an atom to a proposition containing it, so the system
# self-embeds and congruences under it are certified by traces
AB_SYSTEM = RewriteSystem("AorB", (Rule("a-to-or", A, Or(A, B)),))


def test_modulo_proof_of_b_imp_a():
    # hypothesis B, then or-intro concluding A (A rewrites to A | B), then imp-intro
    unfold = Trace((RewriteStep((), "a-to-or", ()),))
    proof = ImpI(
        Imp(B, A),
        hyp=B,
        label="i",
        sub=OrI(A, other=A, side="right", sub=Hyp("i", B), via=unfold),
    )
    verdict = check_nd(proof, system=AB_SYSTEM, mode="mixed")
    assert verdict.ok, verdict.error
    assert verdict.length == 2


def test_compatibility_proof_of_a_iff_a_or_b():
    # proof of A <=> A | B assuming B > A, in pure natural deduction
    left = ImpI(Imp(A, Or(A, B)), hyp=A, label="i",
                sub=OrI(Or(A, B), other=B, side="left", sub=Hyp("i", A)))
    right = ImpI(
        Imp(Or(A, B), A),
        hyp=Or(A, B),
        label="ii",
        sub=OrE(
            A,
            left=A,
            right=B,
            label_left="iii",
            label_right="iv",
            major=Hyp("ii", Or(A, B)),
            sub_left=Hyp("iii", A),
            sub_right=ImpE(A, minor=Hyp("iv", B), major=Assume("b-imp-a", Imp(B, A))),
        ),
    )
    proof = AndI(iff(A, Or(A, B)), left, right)
    verdict = check_nd(proof, assumptions={"b-imp-a": Imp(B, A)})
    assert verdict.ok, verdict.error
    assert verdict.length == 6
    assert proof_size(proof) == 11


def test_add_speedup_fixture():
    # single top-intro node concluding Add(n, n, 2n) modulo Add
    n = 2
    proof = TopI(add_atom(numeral(n), numeral(n), numeral(2 * n)))
    verdict = check_nd(proof, system=ADD)
    assert verdict.ok and verdict.length == 1
    assert verdict.rewrite_steps == n + 1


def test_forged_congruence_rejected():
    proof = TopI(add_atom(numeral(1), numeral(1), numeral(1)))
    verdict = check_nd(proof, system=ADD)
    assert not verdict.ok
    assert "congruence fails" in verdict.error


def test_undischarged_hypothesis_rejected():
    verdict = check_nd(Hyp("i", A))
    assert not verdict.ok and "undischarged" in verdict.error
    assert verdict.length == 0


def test_unknown_assumption_rejected():
    verdict = check_nd(Assume("nope", A))
    assert not verdict.ok and "nope" in verdict.error


def test_hypothesis_mismatch_rejected():
    proof = ImpI(Imp(A, B), hyp=A, label="i", sub=Hyp("i", B))
    verdict = check_nd(proof)
    assert not verdict.ok and "hypothesis" in verdict.error


def test_forall_intro_and_elim():
    x, y = var0("x"), var0("y")
    sig = Signature((arith(0),), (), (PredDecl("P", (arith(0),)),))
    Px = sig.atom("P", x)
    # from assumption all x. P(x) conclude all y. P(y) via elim/intro
    proof = ForallI(
        Forall(x, Px),
        var=x,
        body=Px,
        eigen=y,
        sub=ForallE(
            sig.atom("P", y), var=x, body=Px, term=y, sub=Assume("ax", Forall(x, Px))
        ),
    )
    verdict = check_nd(proof, assumptions={"ax": Forall(x, Px)})
    assert verdict.ok, verdict.error


def test_forall_intro_freshness_violation():
    x = var0("x")
    sig = Signature((arith(0),), (), (PredDecl("P", (arith(0),)),))
    Px = sig.atom("P", x)
    # eigenvariable x occurs free in an open hypothesis: must be rejected
    inner = ForallI(Forall(x, Px), var=x, body=Px, eigen=x, sub=Hyp("h", Px))
    proof = ImpI(Imp(Px, Forall(x, Px)), hyp=Px, label="h", sub=inner)
    verdict = check_nd(proof)
    assert not verdict.ok and "eigenvariable" in verdict.error


def test_exists_elim_freshness():
    from demod.syntax import Exists

    x, y = var0("x"), var0("y")
    sig = Signature((arith(0),), (), (PredDecl("P", (arith(0),)), PredDecl("Q", ())))
    Px = sig.atom("P", x)
    Q = sig.atom("Q")
    proof = ExistsE(
        Q,
        var=x,
        body=Px,
        eigen=y,
        label="w",
        major=Assume("e", Exists(x, Px)),
        sub=ImpE(Q, minor=Hyp("w", sig.atom("P", y)), major=Assume("k", Imp(sig.atom("P", y), Q))),
    )
    # eigen y occurs free in assumption k: rejected
    verdict = check_nd(proof, assumptions={"e": Exists(x, Px), "k": Imp(sig.atom("P", y), Q)})
    assert not verdict.ok and "eigenvariable" in verdict.error


def test_monotonicity_unused_assumptions():
    proof = TopI(add_atom(numeral(2), numeral(2), numeral(4)))
    v1 = check_nd(proof, system=ADD)
    v2 = check_nd(proof, assumptions={"junk": FALSE, "junk2": A}, system=ADD)
    assert (v1.ok, v1.length) == (v2.ok, v2.length)


def test_witnessed_mode_requires_traces():
    proof = TopI(add_atom(numeral(1), numeral(0), numeral(1)))
    assert check_nd(proof, system=ADD, mode="auto").ok
    v = check_nd(proof, system=ADD, mode="witnessed")
    assert not v.ok and "missing trace" in v.error
    tr = connecting_trace(add_atom(numeral(1), numeral(0), numeral(1)), TRUE, ADD)
    witnessed = TopI(add_atom(numeral(1), numeral(0), numeral(1)), via=tr)
    assert check_nd(witnessed, system=ADD, mode="witnessed").ok


def test_length_invariant_under_witnessing():
    bare = TopI(add_atom(numeral(3), numeral(3), numeral(6)))
    tr = connecting_trace(conclusion_of(bare), TRUE, ADD)
    witnessed = TopI(conclusion_of(bare), via=tr)
    assert nd_length(bare) == nd_length(witnessed) == 1
    assert check_nd(witnessed, system=ADD, mode="mixed").ok


def test_bad_trace_rejected():
    bad = Trace((RewriteStep((3, 3), "add-base", ()),))
    proof = TopI(add_atom(numeral(0), numeral(0), numeral(0)), via=bad)
    v = check_nd(proof, system=ADD, mode="witnessed")
    assert not v.ok


def test_ind_rule_well_formed_instance():
    cfg = OrderConfig(1)
    hha = build_HHA(cfg)
    x = var0("x")
    p = encode_prop(eq(x, x), [x]).cls
    tau = var0("t")
    beta = var0("b")

    def refl_member(t):
        # <t> eps E_{x=x} via the = unfolding, cf. the reflexivity pattern
        q = Var("q", p.sort)
        inner = ImpI(
            Imp(member([t], q), member([t], q)),
            hyp=member([t], q),
            label="r",
            sub=Hyp("r", member([t], q)),
        )
        return ForallI(member([t], p), var=q, body=Imp(member([t], q), member([t], q)), eigen=q, sub=inner)

    proof = IndI(
        member([tau], p),
        cls=p,
        term=tau,
        eigen=beta,
        label="ih",
        base=refl_member(ZERO),
        step=refl_member(s_(beta)),
    )
    verdict = check_nd(proof, system=hha, mode="mixed")
    assert verdict.ok, verdict.error

    # eigenvariable occurring in the conclusion term is rejected
    bad = IndI(
        member([beta], p),
        cls=p,
        term=beta,
        eigen=beta,
        label="ih",
        base=refl_member(ZERO),
        step=refl_member(s_(beta)),
    )
    v = check_nd(bad, system=hha, mode="mixed")
    assert not v.ok

    # base premise of the wrong shape is rejected
    bad2 = IndI(
        member([tau], p),
        cls=p,
        term=tau,
        eigen=beta,
        label="ih",
        base=refl_member(s_(ZERO)),
        step=refl_member(s_(beta)),
    )
    assert not check_nd(bad2, system=hha, mode="mixed").ok


def test_nd_length_counts_inferences_only():
    assert nd_length(TopI(TRUE)) == 1
    assert nd_length(Hyp("i", A)) == 0
    two = ImpI(Imp(B, A), hyp=B, label="i", sub=OrI(A, other=A, side="right", sub=Hyp("i", B)))
    assert nd_length(two) == 2


def test_axiomatic_add_checks_at_n_2000_in_linear_time():
    # Substitution used to walk the ground numerals of every ForallE body, so
    # this check took 58 s; skipping ground subterms makes it about 1 s.
    import time

    from demod.bench import gen_add_axiomatic_proof
    from demod.theories import add_compatible_axioms

    proof = gen_add_axiomatic_proof(2000)
    start = time.monotonic()
    v = check_nd(proof, assumptions=add_compatible_axioms().as_dict())
    elapsed = time.monotonic() - start
    assert v.ok, v.error
    assert v.length == 5 * 2000 + 1
    assert elapsed <= 10.0, f"{elapsed:.2f} s"


def test_deep_proof_checks_without_recursion():
    # a chain of 10,000 and-introductions, each taken apart again, over true
    p = TopI(TRUE)
    for _ in range(10_000):
        p = AndE(TRUE, other=TRUE, side="left", sub=AndI(And(TRUE, TRUE), p, TopI(TRUE)))
    v = check_nd(p)
    assert v.ok, v.error
    assert v.length == 3 * 10_000 + 1


def test_deep_proofs_compare_hash_and_print():
    # ==, hash and repr walk the premises with their own stacks: on two
    # copies of this chain the dataclass ones each raised RecursionError
    def chain(levels):
        p = TopI(TRUE)
        for _ in range(levels):
            p = AndE(TRUE, other=TRUE, side="left", sub=AndI(And(TRUE, TRUE), p, TopI(TRUE)))
        return p

    a, b = chain(10_000), chain(10_000)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != chain(9_999) and a != AndE(TRUE, other=FALSE, side="left", sub=b.sub)
    leaf = repr(TopI(TRUE))
    before, _, after = repr(chain(1)).partition(leaf)
    assert repr(a) == before * 10_000 + leaf + after * 10_000


def test_verdicts_are_the_same_on_a_fresh_and_a_warm_normal_form_table(monkeypatch):
    # each congruence system keeps a table of the normal forms it reached; a
    # hit must give the verdict, and the rewrite steps, a fresh run would
    import demod.rewriting as rw
    from demod.bench import random_hilbert_corpus
    from demod.fragments import FZ_LIBRARY, HHA_LIBRARY, fz_fragment, hha_fragment
    from demod.hilbert import zi_axiom_schemata
    from demod.nd import witness_all
    from demod.theories import build_HO, fz_axioms
    from demod.translate import zi_hilbert_to_fz_modulo

    ho, hha = build_HO(OrderConfig(1)), build_HHA(OrderConfig(1))
    fz = dict(fz_axioms().axioms)
    cat2 = zi_axiom_schemata(OrderConfig(2))
    checks = []
    for proof in random_hilbert_corpus(120, seed=2024):  # criterion 7's FZ outputs
        out = zi_hilbert_to_fz_modulo(proof, cat2)
        checks.append((out.proof, dict(out.assumption_dict()), ho, "auto"))
    for name in FZ_LIBRARY:
        proof = fz_fragment(name).proof
        checks.append((proof, fz, ho, "mixed"))
        checks.append((witness_all(proof, ho), fz, ho, "witnessed"))
    for name in HHA_LIBRARY:
        proof = hha_fragment(name).proof
        checks.append((proof, {}, hha, "mixed"))
        checks.append((witness_all(proof, hha), {}, hha, "witnessed"))
    forged = TopI(add_atom(numeral(1), numeral(1), numeral(1)))
    checks.append((forged, {}, ADD, "auto"))
    systems = {ho.congruence_system(), hha.congruence_system(), ADD}

    def verdicts():
        return [check_nd(p, assumptions=a, system=s, mode=m) for p, a, s, m in checks]

    cold = []
    for check in checks:
        for system in systems:
            system.__dict__.pop("_normal_form_table", None)
        p, a, s, m = check
        cold.append(check_nd(p, assumptions=a, system=s, mode=m))
    assert verdicts() == cold  # warm with the obligations of the checks before each
    calls = []
    plain = rw.normalize
    monkeypatch.setattr(rw, "normalize", lambda *a: calls.append(a[0]) or plain(*a))
    assert verdicts() == cold  # warm with every obligation
    steps = sum(v.rewrite_steps for v in cold)
    assert not calls and steps > 500 and sum(len(s._normal_form_table) for s in systems) > 100
    assert not cold[-1].ok and sum(not v.ok for v in cold) == 2  # forged, and witnessed onto-s
