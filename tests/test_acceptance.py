"""The acceptance gate: one test per criterion, each printing a verdict line.

Pinned tolerances live next to the assertions; measured constants for the
translation bounds are fixed here, not recalibrated.
"""

import math
import time

import pytest

from demod.bench import (
    bench_add,
    gen_add_axiomatic_proof,
    gen_add_modulo_proof,
    probe_ws_exhaustive,
    random_hilbert_corpus,
    random_nd_corpus,
)
from demod.fragments import hha_fragment, fz_fragment
from demod.hilbert import (
    HilbertProof,
    Line,
    HypLine,
    SchemaError,
    Template,
    check_hilbert,
    gen,
    hilbert_length,
    instance,
    schema_line,
    zi_axiom_schemata,
)
from demod.nd import (
    AndI,
    Assume,
    ForallI,
    Hyp,
    ImpE,
    ImpI,
    OrE,
    OrI,
    TopI,
    check_nd,
    conclusion_of,
    nd_length,
    witness_all,
)
from demod.rewriting import (
    FuelExhausted,
    check_left_linear,
    critical_pairs,
    joinable,
    normalize,
)
from demod.syntax import (
    And,
    App,
    Exists,
    Forall,
    Imp,
    Or,
    TRUE,
    Var,
    alpha_equal,
    apply_substitution,
    arith,
    free_variables,
    size,
)
from demod.theories import (
    CLASS,
    OrderConfig,
    ZERO,
    add_atom,
    add_compatible_axioms,
    add_system,
    build_HHA,
    build_HO,
    classes_signature,
    encode_prop,
    eq,
    fz_axioms,
    member,
    mem,
    numeral,
    plus,
    s_,
    var0,
)
from demod.translate import hilbert_to_nd, nd_to_hilbert, zi_hilbert_to_fz_modulo

import random

ADD = add_system()
CFG1 = OrderConfig(1)
HO1 = build_HO(CFG1)
HHA1 = build_HHA(CFG1)
FZ = dict(fz_axioms().axioms)


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_add_speedup():
    t0 = time.monotonic()
    axioms = add_compatible_axioms().as_dict()
    lengths = []
    for n in range(1, 65):
        vm = check_nd(gen_add_modulo_proof(n), system=ADD)
        assert vm.ok and vm.length == 1, f"n={n}: {vm.error}"
        va = check_nd(gen_add_axiomatic_proof(n), assumptions=axioms)
        assert va.ok, f"n={n}: {va.error}"
        assert va.length >= n
        lengths.append(va.length)
    slopes = {b - a for a, b in zip(lengths, lengths[1:])}
    elapsed = time.monotonic() - t0
    report(
        1,
        slopes == {5} and elapsed < 5.0,
        f"modulo all 1, axiomatic affine slope {slopes}, {elapsed:.2f}s",
    )


def test_criterion_2_worked_example():
    x = var0("x")
    y1 = Var("y", arith(1))
    p = Or(eq(x, ZERO), Exists(y1, mem(0, x, y1)))
    enc = encode_prop(p, [x])
    t = var0("t")
    t0 = time.monotonic()
    nf, trace = normalize(member([t], enc.cls), HO1)
    elapsed = time.monotonic() - t0
    want = Or(eq(t, ZERO), Exists(y1, mem(0, t, y1)))
    report(
        2,
        len(trace) == 10 and alpha_equal(nf, want) and elapsed < 0.1,
        f"{len(trace)} steps in {elapsed * 1000:.1f}ms",
    )


def test_criterion_3_ho_structure():
    ok = True
    details = []
    for i in (1, 2, 3):
        ho = build_HO(OrderConfig(i))
        ok &= check_left_linear(ho)
        pairs = critical_pairs(ho)
        heads = set()
        for pair in pairs:
            ok &= isinstance(pair.peak, App) and pair.peak.fn == "sub^0"
            ok &= pair.peak.args[1].fn == "nil"
            heads.add(pair.peak.args[0].fn)
            ok &= joinable(pair, ho, fuel=10)
        ok &= heads == {"+", "*", "s"}
        details.append(f"i={i}: {len(pairs)} pairs")
    report(3, ok, "; ".join(details))


def _random_round_trip_case(rng):
    top = rng.randrange(1, 4)
    n_alpha = rng.randrange(0, 3)
    alphas = tuple(Var(f"a{k}", arith(rng.randrange(top + 1))) for k in range(n_alpha))
    bound = [0]

    def rand_term(level, avail, d):
        choices = [v for v in avail if v.sort.level == level]
        if level == 0:
            if d <= 0 or rng.random() < 0.4:
                return rng.choice(choices) if choices and rng.random() < 0.5 else numeral(rng.randrange(2))
            if rng.random() < 0.5:
                return s_(rand_term(0, avail, d - 1))
            return plus(rand_term(0, avail, d - 1), rand_term(0, avail, d - 1))
        return rng.choice(choices) if choices else None

    def atom(avail):
        if top > 0 and rng.random() < 0.5:
            j = rng.randrange(top)
            a = rand_term(j, avail, 1)
            b = rand_term(j + 1, avail, 1)
            if a is not None and b is not None:
                return mem(j, a, b)
        return eq(rand_term(0, avail, 2), rand_term(0, avail, 2))

    def go(avail, d):
        if d <= 0:
            return atom(avail)
        pick = rng.randrange(7)
        if pick == 0:
            from demod.syntax import FALSE

            return FALSE
        if pick <= 2:
            ctor = [And, Or, Imp][rng.randrange(3)]
            return ctor(go(avail, d - 1), go(avail, d - 1))
        if pick <= 4:
            bound[0] += 1
            v = Var(f"b{bound[0]}", arith(rng.randrange(top + 1)))
            ctor = Forall if pick == 3 else Exists
            return ctor(v, go(avail + [v], d - 1))
        return atom(avail)

    prop = go(list(alphas), rng.randrange(1, 5))
    terms = tuple(
        numeral(rng.randrange(3)) if v.sort.level == 0 else Var(f"t{k}", v.sort)
        for k, v in enumerate(alphas)
    )
    return top, alphas, prop, terms


def test_criterion_4_encoder_round_trip():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    systems = {i: build_HO(OrderConfig(i)) for i in (1, 2, 3)}
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        top, alphas, prop, terms = _random_round_trip_case(rng)
        if size(prop) > 30:
            continue
        if not all(v in alphas or v.name.startswith("b") for v in free_variables(prop)):
            continue
        enc = encode_prop(prop, alphas)
        start = member(terms, enc.cls)
        nf, _ = normalize(start, systems[top])
        want = apply_substitution(prop, dict(zip(alphas, terms)))
        assert alpha_equal(nf, want), f"case {attempts}: {prop}"
        checked += 1
    elapsed = time.monotonic() - t0
    report(4, elapsed < 30.0, f"{checked} round trips in {elapsed:.1f}s")


def test_criterion_5_ws_linearity():
    t0 = time.monotonic()
    result = probe_ws_exhaustive(10)
    elapsed = time.monotonic() - t0
    # single substitution applications (the decoding shapes) stay within the
    # term size; stacked substitutions are a documented boundary: they can
    # exceed the size while observing the per-application bound
    ok = result.summary["flat_within_size"]
    boundary = result.summary["worst_nested"]
    assert result.summary["nested_over_size"] > 0 and boundary is not None
    report(
        5,
        ok,
        f"{result.summary['total_terms']} terms in {elapsed:.0f}s; "
        f"stacked-substitution boundary e.g. {boundary}",
    )


def _fixture_corpus():
    from demod.syntax import Atom as SAtom
    from demod.rewriting import Rule, RewriteSystem, RewriteStep, Trace

    a = SAtom("A", ())
    b = SAtom("B", ())
    ab_system = RewriteSystem("AorB", (Rule("a-to-or", a, Or(a, b)),))
    unfold = Trace((RewriteStep((), "a-to-or", ()),))
    modulo_proof = ImpI(
        Imp(b, a), hyp=b, label="i", sub=OrI(a, other=a, side="right", sub=Hyp("i", b), via=unfold)
    )
    yield "2.2 modulo", modulo_proof, {}, ab_system, "mixed", 2

    compat = AndI(
        And(Imp(a, Or(a, b)), Imp(Or(a, b), a)),
        ImpI(Imp(a, Or(a, b)), hyp=a, label="i", sub=OrI(Or(a, b), other=b, side="left", sub=Hyp("i", a))),
        ImpI(
            Imp(Or(a, b), a),
            hyp=Or(a, b),
            label="ii",
            sub=OrE(
                a, a, b, "iii", "iv",
                major=Hyp("ii", Or(a, b)),
                sub_left=Hyp("iii", a),
                sub_right=ImpE(a, minor=Hyp("iv", b), major=Assume("b-imp-a", Imp(b, a))),
            ),
        ),
    )
    yield "2.2 compatibility", compat, {"b-imp-a": Imp(b, a)}, None, "auto", 6

    yield "2.4 addition", gen_add_modulo_proof(2), {}, ADD, "auto", 1

    h = var0("h")
    tmpl = Template((h,), eq(h, ZERO))
    for name, length in (("leibniz", 1), ("ind", 1), ("comp^0", 5)):
        frag = fz_fragment(name, tmpl)
        yield f"transc {name}", frag.proof, FZ, HO1, "auto", length

    pinned = {
        "refl": 3,
        "leibniz-ax": 5,
        "zero-ne-s": 5,
        "inj-s": 7,
        "onto-s": 14,
        "ind": 5,
        "comp^0": 5,
        "plus-zero": 11,
        "plus-s": 12,
        "times-zero": 11,
        "times-s": 152,
    }
    for name, length in pinned.items():
        frag = hha_fragment(name, tmpl)
        yield f"4.6 {name}", frag.proof, {}, HHA1, "mixed", length


def test_criterion_6_fixture_corpus():
    lines = []
    ok = True
    for name, proof, assumptions, system, mode, want in _fixture_corpus():
        verdict = check_nd(proof, assumptions=assumptions, system=system, mode=mode)
        good = verdict.ok and verdict.length == want
        ok &= good
        lines.append(f"{name}={verdict.length}{'' if good else '!'}")
        assert verdict.ok, f"{name}: {verdict.error}"
        assert verdict.length == want, f"{name}: length {verdict.length}, pinned {want}"
    report(6, ok, "; ".join(lines))


# measured on the release corpus and pinned; the crux is instance-independent
# fragment length, so the ratios stay put under reruns
C_HILBERT_TO_ND = 6
C_ZI_TO_FZ = 8
K_ABSTRACTION = 37


def test_criterion_7_translation_bounds():
    cat2 = zi_axiom_schemata(OrderConfig(2))
    cat1 = zi_axiom_schemata(OrderConfig(1))
    ratios_nd, ratios_fz = [], []
    for proof in random_hilbert_corpus(120, seed=2024):
        n = hilbert_length(proof)
        out = hilbert_to_nd(proof, cat2)
        v = check_nd(out.proof, assumptions=out.assumption_dict())
        assert v.ok, v.error
        assert alpha_equal(conclusion_of(out.proof), proof.conclusion())
        ratios_nd.append(v.length / n)
        out2 = zi_hilbert_to_fz_modulo(proof, cat2)
        v2 = check_nd(out2.proof, assumptions=out2.assumption_dict(), system=HO1)
        assert v2.ok, v2.error
        assert alpha_equal(conclusion_of(out2.proof), proof.conclusion())
        assert set(dict(out2.assumptions)) <= set(FZ)
        ratios_fz.append(v2.length / n)

    restr, general = [], []
    for proof, instances in random_nd_corpus(60, seed=2025, restricted=True):
        out = nd_to_hilbert(proof, cat1, instances)
        assert check_hilbert(out, cat1).ok
        assert alpha_equal(out.conclusion(), conclusion_of(proof))
        restr.append(hilbert_length(out) / nd_length(proof))
    for proof, instances in random_nd_corpus(60, seed=2026, restricted=False):
        out = nd_to_hilbert(proof, cat1, instances)
        assert check_hilbert(out, cat1).ok
        assert alpha_equal(out.conclusion(), conclusion_of(proof))
        general.append(math.log(hilbert_length(out)) / nd_length(proof))

    corpus = 120 + 60 + 60
    ok = (
        corpus >= 200
        and max(ratios_nd) <= C_HILBERT_TO_ND
        and max(ratios_fz) <= C_ZI_TO_FZ
        and max(restr) <= K_ABSTRACTION
        and max(general) <= math.log(K_ABSTRACTION)
    )
    report(
        7,
        ok,
        f"corpus {corpus}; nd<= {max(ratios_nd):.2f}*n, fz<= {max(ratios_fz):.2f}*n, "
        f"restricted<= {max(restr):.2f}*n, general log-ratio {max(general):.2f}",
    )


def test_criterion_8_fragment_constancy():
    rng = random.Random(88)
    ok = True
    details = []
    from demod.bench import _random_template

    for library, name in [("fz", "leibniz"), ("fz", "ind"), ("fz", "comp^0"),
                          ("hha", "leibniz"), ("hha", "ind"), ("hha", "comp^0"),
                          ("hha", "refl"), ("hha", "plus-s")]:
        lengths = set()
        for _ in range(100):
            tmpl = _random_template(rng, 0)
            if library == "fz":
                frag = fz_fragment(name, tmpl)
                verdict = check_nd(frag.proof, assumptions=FZ, system=HO1)
            else:
                frag = hha_fragment(name, tmpl)
                verdict = check_nd(frag.proof, system=HHA1, mode="mixed")
            assert verdict.ok, f"{library}/{name}: {verdict.error}"
            lengths.add(verdict.length)
        constant = len(lengths) == 1
        ok &= constant
        details.append(f"{library}/{name}={min(lengths)}")
    report(8, ok, "; ".join(details))


def test_criterion_9_nontermination_guard():
    x, p = var0("x"), Var("p", CLASS)
    atom = member([x], p)
    exhausted = []
    for fuel in (10, 100, 1000):
        try:
            normalize(atom, HHA1, fuel=fuel)
            exhausted.append(False)
        except FuelExhausted:
            exhausted.append(True)
    frag = hha_fragment("ind")
    witnessed = witness_all(frag.proof, HHA1)
    verdict = check_nd(witnessed, system=HHA1, mode="witnessed")
    report(
        9,
        all(exhausted) and verdict.ok,
        f"fuel guard at 10/100/1000; witnessed induction fragment length {verdict.length}",
    )


def test_criterion_10_negative_tests():
    from demod.syntax import PredDecl, Signature

    failures = []

    # non-fresh eigenvariable in universal introduction
    sig = Signature((arith(0),), (), (PredDecl("P", (arith(0),)),))
    x = var0("x")
    px = sig.atom("P", x)
    bad_forall = ImpI(
        Imp(px, Forall(x, px)),
        hyp=px,
        label="h",
        sub=ForallI(Forall(x, px), var=x, body=px, eigen=x, sub=Hyp("h", px)),
    )
    failures.append(not check_nd(bad_forall).ok)

    # generalization with the eigenvariable free in the conclusion
    b = var0("b")
    cat = zi_axiom_schemata(OrderConfig(1))
    bad_gen = HilbertProof(
        (
            Line(HypLine("h"), Imp(eq(b, b), eq(b, b))),
            gen(1, b, Imp(eq(b, b), Forall(var0("a"), eq(var0("a"), var0("a"))))),
        )
    )
    failures.append(not check_hilbert(bad_gen, cat, open_hypotheses=True).ok)

    # universal instantiation with a capturing term
    h = var0("h")
    tmpl = Template((h,), Forall(var0("y"), eq(h, var0("y"))))
    try:
        cat.instantiate(instance("UI^0", templates=[("A", tmpl)], terms=[("tau", s_(var0("y")))]))
        failures.append(False)
    except SchemaError:
        failures.append(True)

    # forged congruence
    forged = TopI(add_atom(numeral(1), numeral(1), numeral(1)))
    failures.append(not check_nd(forged, system=ADD).ok)

    report(10, all(failures), f"{sum(failures)}/4 rejections")
