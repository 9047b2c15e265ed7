import collections
import random

import pytest

from demod.rewriting import (
    CongruenceError,
    FuelExhausted,
    Rule,
    RuleError,
    RewriteStep,
    RewriteSystem,
    Trace,
    _normal_form,
    apply_redex,
    check_left_linear,
    congruent,
    congruent_auto,
    connecting_trace,
    critical_pairs,
    joinable,
    longest_derivation,
    match,
    normalize,
    rewrite_redexes,
    unify,
    verify_trace,
)
from demod.syntax import TRUE, App, Atom, Var, alpha_equal, arith, positions, size
from demod.theories import (
    ZERO,
    add_atom,
    add_system,
    numeral,
    s_,
    var0,
)

ADD = add_system()
x, y, z = var0("x"), var0("y"), var0("z")


def test_rule_format_enforced():
    with pytest.raises(RuleError):
        Rule("bad", x, ZERO)  # bare variable left side
    with pytest.raises(RuleError):
        Rule("bad", s_(x), add_atom(x, x, x))  # term lhs, prop rhs
    with pytest.raises(RuleError):
        Rule("bad", s_(x), y)  # extra variable on the right


def test_match_examples():
    got = match(add_atom(s_(x), y, s_(z)), add_atom(s_(ZERO), ZERO, s_(ZERO)))
    assert got == {x: ZERO, y: ZERO, z: ZERO}
    # nonlinear left side: repeated variable needs equal images
    assert match(add_atom(ZERO, y, y), add_atom(ZERO, ZERO, s_(ZERO))) is None
    assert match(add_atom(ZERO, y, y), add_atom(ZERO, s_(ZERO), s_(ZERO))) == {y: s_(ZERO)}


def test_match_respects_sorts():
    l = Var("l", arith(1))
    assert match(x, l) is None


def test_redex_order_and_single_root_redex():
    subject = add_atom(s_(ZERO), y, s_(y))
    redexes = rewrite_redexes(subject, ADD)
    assert len(redexes) == 1
    pos, rule, sigma = redexes[0]
    assert pos == () and rule.name == "add-step"
    nf, trace = normalize(add_atom(ZERO, y, y), ADD)
    assert nf == TRUE and len(trace) == 1
    assert rewrite_redexes(nf, ADD) == []


def test_normalize_add_example():
    # Add(2,2,4) -> Add(1,2,3) -> Add(0,2,2) -> true, three steps
    start = add_atom(numeral(2), numeral(2), numeral(4))
    nf, trace = normalize(start, ADD)
    assert nf == TRUE
    assert len(trace) == 3
    assert verify_trace(start, TRUE, trace, ADD)


def test_normalize_fuel_guard():
    start = add_atom(numeral(5), numeral(5), numeral(10))
    with pytest.raises(FuelExhausted):
        normalize(start, ADD, fuel=3)


def test_congruent_auto():
    assert congruent_auto(add_atom(numeral(2), numeral(2), numeral(4)), TRUE, ADD)
    assert congruent_auto(add_atom(x, y, z), add_atom(x, y, z), ADD)
    # Add(1,1,1) normalizes to Add(0,1,0), not true
    assert not congruent_auto(add_atom(numeral(1), numeral(1), numeral(1)), TRUE, ADD)


def test_congruent_auto_requires_flags():
    weak = RewriteSystem("weak", ADD.rules, terminating=False, confluent=False)
    with pytest.raises(CongruenceError):
        congruent_auto(TRUE, TRUE, weak)
    with pytest.raises(CongruenceError):
        congruent(add_atom(ZERO, y, y), TRUE, weak)


def test_verify_trace_empty_and_bad_position():
    assert verify_trace(add_atom(x, y, z), add_atom(x, y, z), Trace(), ADD)
    bad = Trace((RewriteStep((2, 9), "add-base", ()),))
    assert not verify_trace(add_atom(ZERO, y, y), TRUE, bad, ADD)
    wrong_rule = Trace((RewriteStep((), "no-such", ()),))
    assert not verify_trace(add_atom(ZERO, y, y), TRUE, wrong_rule, ADD)


def test_verify_trace_backward():
    start = add_atom(ZERO, y, y)
    fwd = connecting_trace(start, TRUE, ADD)
    assert verify_trace(start, TRUE, fwd, ADD)
    back = fwd.reversed()
    assert verify_trace(TRUE, start, back, ADD)


def test_unify_occurs_check_and_sorts():
    assert unify(s_(x), s_(ZERO)) == {x: ZERO}
    assert unify(x, s_(x)) is None
    got = unify(add_atom(s_(x), y, s_(z)), add_atom(s_(ZERO), z, s_(y)))
    assert got is not None


def test_term_rule_headed_like_an_atom_never_rewrites_the_atom():
    # a function symbol "@P" shares its index key with the predicate P
    P, Q = Atom("P", (ZERO,)), Atom("Q", (ZERO,))
    at_p = Rule("at-p", App("@P", (x,), x.sort), ZERO)
    at_q = Rule("at-q", App("@Q", (x,), x.sort), ZERO)
    system = RewriteSystem("clash", (at_p, at_q), terminating=True, confluent=True)
    assert match(at_p.lhs, P) is None
    assert unify(at_p.lhs, P) is None and unify(P, at_p.lhs) is None
    assert rewrite_redexes(P, system) == []
    assert not congruent_auto(P, Q, system)
    atom_rule = Rule("p-true", Atom("P", (x,)), TRUE)
    assert critical_pairs(RewriteSystem("mixed", (at_p, atom_rule))) == []


def test_critical_pairs_add_and_empty():
    assert critical_pairs(ADD) == []
    empty = RewriteSystem("empty", ())
    assert critical_pairs(empty) == []
    assert check_left_linear(empty)


def test_left_linear():
    assert not check_left_linear(ADD)  # add-base repeats y
    linear = RewriteSystem("lin", (Rule("r", s_(x), x),), terminating=True, confluent=True)
    assert check_left_linear(linear)


def test_longest_derivation():
    assert longest_derivation(TRUE, ADD) == 0
    assert longest_derivation(add_atom(numeral(1), ZERO, numeral(1)), ADD) == 2
    assert longest_derivation(add_atom(numeral(3), numeral(3), numeral(6)), ADD) == 4


def test_congruence_properties_reflexive_symmetric_transitive():
    a = add_atom(numeral(2), numeral(2), numeral(4))
    b = add_atom(numeral(1), numeral(2), numeral(3))
    c = TRUE
    for p in (a, b, c):
        assert congruent_auto(p, p, ADD)
    assert congruent_auto(a, b, ADD) and congruent_auto(b, a, ADD)
    assert congruent_auto(a, b, ADD) and congruent_auto(b, c, ADD) and congruent_auto(a, c, ADD)


def _normalize_choosing(x, system, choose):
    """Reference normalizer: rewrite at the redex ``choose`` picks among all of them."""
    while True:
        redexes = rewrite_redexes(x, system)
        if not redexes:
            return x
        x = apply_redex(x, choose(redexes))


def _innermost(redexes):
    # negating indices makes "deeper along the leftmost spine" compare greater
    return max(redexes, key=lambda r: tuple(-i for i in r[0]))


def test_strategies_agree_on_confluent_system():
    start = add_atom(numeral(3), numeral(1), numeral(4))
    nf_lo, _ = normalize(start, ADD)
    nf_li = _normalize_choosing(start, ADD, _innermost)
    nf_rand = _normalize_choosing(start, ADD, random.Random(7).choice)
    assert alpha_equal(nf_lo, nf_li) and alpha_equal(nf_lo, nf_rand)


def test_first_redex_matches_listing():
    subject = add_atom(s_(ZERO), ZERO, s_(ZERO))
    assert first_redex(subject, ADD) == rewrite_redexes(subject, ADD)[0]
    assert first_redex(TRUE, ADD) is None


def test_strategy_independence_on_flagged_systems():
    # confluent + terminating built-in systems: the normal form is the same
    # under outermost, innermost and random redex choice
    import random as _r

    from demod.bench import enumerate_probe_terms
    from demod.syntax import alpha_equal as aeq
    from demod.theories import (
        OrderConfig,
        build_HO,
        build_WS,
        encode_prop,
        eq as eq_,
        member,
        plus,
    )

    rng = _r.Random(99)
    cases = []
    for n in range(400):
        a, b = rng.randrange(6), rng.randrange(6)
        cases.append((ADD, add_atom(numeral(a), numeral(b), numeral(rng.randrange(12)))))
    ws = build_WS(OrderConfig(1))
    fragment = [t for t, has, _ in enumerate_probe_terms(7) if has]
    for t in rng.sample(fragment, 400):
        cases.append((ws, t))
    ho = build_HO(OrderConfig(1))
    hole = var0("h")
    for n in range(300):
        prop = eq_(plus(hole, numeral(rng.randrange(2))), hole)
        enc = encode_prop(prop, (hole,))
        cases.append((ho, member([numeral(rng.randrange(3))], enc.cls)))
    assert len(cases) >= 1000
    for system, subject in cases:
        nf_lo, _ = normalize(subject, system)
        nf_li = _normalize_choosing(subject, system, _innermost)
        nf_rand = _normalize_choosing(subject, system, random.Random(rng.randrange(1 << 30)).choice)
        assert aeq(nf_lo, nf_li) and aeq(nf_lo, nf_rand), subject


def _longest_reference(x, system):
    """Plain exhaustive memoized search over every rule at every position."""
    memo = {}

    def go(t):
        if t not in memo:
            steps = [
                (pos, rule, sigma)
                for pos, sub in positions(t)
                for rule in system.rules
                if (sigma := match(rule.lhs, sub)) is not None
            ]
            memo[t] = max((1 + go(apply_redex(t, r)) for r in steps), default=0)
        return memo[t]

    return go(x)


def test_longest_derivation_frees_its_tables_on_return():
    # The search's two helpers refer to each other.  Left linked, they kept
    # the memo and ``known`` alive until a collection of the oldest
    # generation, which with interned nodes came rarely enough that the
    # exhaustive probe's resident memory grew by 0.3 MB a round.
    import gc
    import weakref

    class Known(dict):  # a plain dict cannot be weakly referenced
        pass

    known = Known()
    gone = weakref.ref(known)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert longest_derivation(add_atom(numeral(3), numeral(3), numeral(6)), ADD, known=known) == 4
        del known
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_longest_derivation_agrees_with_plain_search():
    from demod.bench import enumerate_probe_terms
    from demod.syntax import And, Forall
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))
    for t, _, _ in enumerate_probe_terms(7):
        assert longest_derivation(t, ws) == _longest_reference(t, ws), t
    atoms = [
        add_atom(numeral(a), numeral(b), numeral(c))
        for a in range(3)
        for b in range(3)
        for c in range(5)
    ] + [add_atom(s_(x), y, s_(z)), add_atom(ZERO, y, y), add_atom(s_(ZERO), x, x)]
    props = atoms + [And(p, q) for p, q in zip(atoms, atoms[5:])]
    props += [Forall(x, And(p, Forall(y, p))) for p in atoms[::4]]
    for p in props:
        assert longest_derivation(p, ADD) == _longest_reference(p, ADD), p


def test_longest_derivation_splits_on_head_not_argument_shape():
    # no rule matches the outer sub^0 until its first argument is rewritten
    from demod.syntax import App, LIST
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))
    nil = App("nil", (), LIST)
    one = App("1^0", (), arith(0))
    inner = App("sub^0", (one, nil), arith(0))
    outer = App("sub^0", (inner, App("cons^0", (ZERO, nil), LIST)), arith(0))
    term = App("S^0", (outer,), arith(0))
    assert longest_derivation(term, ws) == 2 == _longest_reference(term, ws)


def test_known_results_do_not_change_the_longest_derivation():
    import random as _r

    from demod.bench import PROBE_FUNS, enumerate_probe_terms
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))

    class Counted(dict):
        hits = 0

        def get(self, key, default=None):
            got = super().get(key, default)
            self.hits += got is not None
            return got

    known = Counted((t, longest_derivation(t, ws)) for t, _, _ in enumerate_probe_terms(7))
    rng = _r.Random(10)

    def build(sort, budget):
        fits = [f for f in PROBE_FUNS if str(f[2]) == sort and len(f[1]) < budget]
        name, args, result = rng.choice(fits)
        share = (budget - 1) // max(len(args), 1)
        return App(name, tuple(build(str(a), share) for a in args), result)

    for _ in range(300):
        t = build("0", rng.randrange(2, 14))
        assert longest_derivation(t, ws, known=known) == longest_derivation(t, ws), t
    assert known.hits > 100

    # a hit is the answer: it spends none of the search budget
    slow = next(t for t, _, _ in enumerate_probe_terms(7) if known[t] >= 4)
    with pytest.raises(FuelExhausted):
        longest_derivation(App("S^0", (slow,), arith(0)), ws, fuel=2)
    assert longest_derivation(App("S^0", (slow,), arith(0)), ws, fuel=0, known=known) == known[slow]


def test_longest_derivation_outlasts_the_recursion_limit():
    # 3,000 steps in a row, each with its redex a level deeper than the last
    # (WS) or the same atom a level shallower (Add); the recursive search ran
    # out of stack at about 600
    from demod.syntax import LIST
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))
    deep = App("sub^0", (numeral(3000), App("nil", (), LIST)), arith(0))
    assert longest_derivation(deep, ws) == 3001
    assert longest_derivation(add_atom(numeral(3000), ZERO, numeral(3000)), ADD) == 3001


def test_longest_derivation_walks_each_headless_prefix_once(monkeypatch):
    # each sub-nil reduct s^k(0) of the chain from sub^0(s^d(0), nil) holds
    # the last one's, so splitting each of them from its root walked d^2 / 2
    # nodes in all: 4.5 million at d = 3,000.  A normal form is not walked,
    # so each level now walks one node, the s above the next sub^0
    from demod import rewriting
    from demod.syntax import LIST
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))
    real_split, real_children = rewriting._split, rewriting.children
    splitting, visits = [False], [0]

    def split(*args):
        splitting[0] = True
        try:
            return real_split(*args)
        finally:
            splitting[0] = False

    def children(x):
        visits[0] += splitting[0]
        return real_children(x)

    monkeypatch.setattr(rewriting, "_split", split)
    monkeypatch.setattr(rewriting, "children", children)
    d = 3000
    deep = App("sub^0", (numeral(d), App("nil", (), LIST)), arith(0))
    assert longest_derivation(deep, ws) == d + 1
    assert visits[0] <= 2 * d


# The least fuel at which each search succeeds, as the recursive search over
# every position spent it: one unit per searched term and redex of that term.
SEARCH_FUEL = [
    ("(sub^0 (s 0) nil)", 2, 3),
    ("(sub^0 1^0 (cons^0 0 nil))", 1, 1),
    ("(S^0 (sub^0 (+ 1^0 1^0) (cons^0 (s 0) nil)))", 3, 2),
    ("(sub^0 (sub^0 (s (s (s (s 0)))) nil) nil)", 10, 59),
    ("(+ (sub^0 1^0 (cons^0 0 nil)) (sub^0 (S^0 1^0) (cons^0 0 nil)))", 3, 3),
    ("(sub^0 (+ (s 1^0) (S^0 1^0)) (cons^0 0 nil))", 5, 5),
    ("(sub^0 (S^0 (S^0 1^0)) (cons^0 (s 0) (cons^0 0 nil)))", 3, 3),
    ("(sub^0 (sub^0 1^0 (cons^0 1^0 nil)) (cons^0 (s 0) nil))", 2, 2),
    ("(s (sub^0 (sub^0 (+ 1^0 0) nil) (cons^0 0 nil)))", 5, 13),
    ("(sub^0 (S^0 (sub^0 1^0 (cons^0 1^0 nil))) (cons^0 0 nil))", 3, 7),
    ((0, 0, 0), 1, 1),
    ((1, 0, 1), 2, 2),
    ((3, 3, 6), 4, 4),
    ((4, 2, 6), 5, 5),
    ((5, 0, 5), 6, 6),
    ((2, 2, 3), 2, 2),
    (((1, 0, 1), (2, 2, 4)), 5, 5),
    (((2, 0, 2), (s_(x), y, s_(z))), 4, 4),
]


@pytest.mark.parametrize("case, longest, fuel", SEARCH_FUEL)
def test_longest_derivation_spends_the_pinned_fuel(case, longest, fuel):
    from demod import fileformat as ff
    from demod.syntax import And
    from demod.theories import OrderConfig, build_WS, classes_signature

    if isinstance(case, str):
        start = ff.term_or_prop_from_sx(ff.loads(case), classes_signature(1))
        system = build_WS(OrderConfig(1))
    elif isinstance(case[0], int):
        start, system = add_atom(*map(numeral, case)), ADD
    else:
        atoms = [add_atom(*(numeral(a) if isinstance(a, int) else a for a in args)) for args in case]
        start, system = And(*atoms), ADD
    assert longest_derivation(start, system, fuel=fuel) == longest
    with pytest.raises(FuelExhausted) as exc:
        longest_derivation(start, system, fuel=fuel - 1)
    assert str(exc.value) == "longest_derivation search budget exhausted"


def test_candidates_keep_every_matching_rule_in_order():
    import random as _r

    from demod.bench import _random_template, enumerate_probe_terms
    from demod.theories import (
        OrderConfig,
        build_HHA,
        build_HO,
        build_WS,
        encode_prop,
        eq as eq_,
        member,
        null,
        plus,
        pred_,
        times,
    )

    rng = _r.Random(4)
    cfg = OrderConfig(1)
    ws, ho, hha = build_WS(cfg), build_HO(cfg), build_HHA(cfg)

    def arith_term(depth):
        if depth == 0:
            return rng.choice([ZERO, x, y])
        op = rng.choice([s_, pred_, plus, times])
        if op in (s_, pred_):
            return op(arith_term(depth - 1))
        return op(arith_term(depth - 1), arith_term(depth - 1))

    subjects = {ADD: [], ws: [], ho: [], hha: []}
    for _ in range(60):
        a, b, c = (rng.choice([numeral(rng.randrange(3)), x, y, s_(z)]) for _ in range(3))
        subjects[ADD].append(add_atom(a, b, c))
    probe = [t for t, has, _ in enumerate_probe_terms(7) if has]
    subjects[ws] += rng.sample(probe, 200)
    for _ in range(60):
        tmpl = _random_template(rng)
        enc = encode_prop(tmpl.body, tmpl.params)
        subjects[ho].append(member([rng.choice([numeral(rng.randrange(3)), x])], enc.cls))
    subjects[hha] += subjects[ho][:30]
    for _ in range(60):
        u, v = arith_term(rng.randrange(3)), arith_term(rng.randrange(3))
        subjects[hha] += [eq_(u, v), null(u), member([u], encode_prop(eq_(x, v), (x,)).cls)]

    checked = 0
    for system, starts in subjects.items():
        walk = system.congruence_system()
        for start in starts:
            cur = start
            for _ in range(8):  # the start and a few objects along a random derivation
                for _, sub in positions(cur):
                    cands = system.candidates(sub)
                    assert list(cands) == [r for r in system.rules if r in cands]
                    hits = [r for r in system.rules if match(r.lhs, sub) is not None]
                    assert set(hits) <= set(cands), (system.name, sub)
                    checked += bool(hits)
                redexes = rewrite_redexes(cur, walk)
                if not redexes:
                    break
                cur = apply_redex(cur, rng.choice(redexes))
    assert checked > 1000


def first_redex(x, system):
    """The leftmost-outermost redex; rule order breaks ties."""
    for pos, sub in positions(x):
        for rule in system.candidates(sub):
            sigma = match(rule.lhs, sub)
            if sigma is not None:
                return (pos, rule, sigma)
    return None


def _reference_normalize(x, system, fuel=None):
    """Leftmost-outermost normalization that rescans from the root after every step."""
    if fuel is None:
        fuel = system.default_fuel(x)
    steps = []
    while True:
        redex = first_redex(x, system)
        if redex is None:
            return x, Trace(tuple(steps))
        if len(steps) >= fuel:
            raise FuelExhausted(f"no normal form within {fuel} steps under {system.name}", len(steps))
        pos, rule, sigma = redex
        x = apply_redex(x, redex)
        bound = sorted(sigma.items(), key=lambda vt: (vt[0].name, vt[0].sort))
        steps.append(RewriteStep(pos, rule.name, tuple(bound)))


def _outcome(normalizer, x, system, fuel=None):
    try:
        nf, trace = normalizer(x, system, fuel)
    except FuelExhausted as exc:
        return str(exc), exc.steps_taken
    return repr(nf), trace


def test_normalize_matches_rescanning_from_the_root():
    # normalize resumes after each step and rechecks only the ancestors within
    # the system's reach; the reference finds every redex from the root
    from demod.bench import _random_template, enumerate_probe_terms
    from demod.syntax import And, Forall
    from demod.theories import OrderConfig, build_HHA, build_HO, build_WS, encode_prop, member

    cfg = OrderConfig(1)
    ws, ho, hha = build_WS(cfg), build_HO(cfg), build_HHA(cfg)
    assert (ws.reach, ho.reach, hha.reach, ADD.reach) == (1, 1, 2, None)
    rng = random.Random(15)
    cases = [(ws, t, None) for t, _, _ in enumerate_probe_terms(7)]
    assert len(cases) == 4419
    members = []
    for _ in range(300):
        tmpl = _random_template(rng)
        members.append(member([numeral(rng.randrange(4))], encode_prop(tmpl.body, tmpl.params).cls))
    cases += [(hha.congruence_system(), t, None) for t in members]
    cases += [(hha, t, 30) for t in members[:100]]
    cases += [(ho, t, None) for t in members]
    atoms = [
        add_atom(*(rng.choice([numeral(rng.randrange(8)), x, y, s_(z)]) for _ in range(3)))
        for _ in range(200)
    ]
    cases += [(ADD, a, None) for a in atoms]
    cases += [(ADD, Forall(x, And(a, b)), None) for a, b in zip(atoms, atoms[100:])]
    cases += [(ADD, a, 2) for a in atoms[:50]]
    exhausted = 0
    for system, t, fuel in cases:
        want = _outcome(_reference_normalize, t, system, fuel)
        assert _outcome(normalize, t, system, fuel) == want, (system.name, t)
        exhausted += isinstance(want[1], int)
    assert exhausted > 50


def test_normalize_rechecks_every_ancestor_a_step_can_make_a_redex():
    # pred(s(0)) reaches two levels down, so a step at 1.1 can make the root a
    # redex; +(x, x) repeats x, so a step at any depth can make its node one
    from demod.syntax import replace_at, subterm_at
    from demod.theories import plus, pred_

    lifting = [
        Rule("pred-s0", pred_(s_(ZERO)), ZERO),
        Rule("plus-0", plus(ZERO, y), y),
        Rule("s-pred", s_(pred_(x)), x),
    ]
    linear = RewriteSystem("linear", tuple(lifting), terminating=True)
    doubling = RewriteSystem("doubling", (Rule("plus-xx", plus(x, x), x), *lifting), terminating=True)
    assert (linear.reach, doubling.reach) == (2, None)
    rng = random.Random(15)

    def term(depth):
        if depth == 0:
            return rng.choice([ZERO, x])
        op = rng.choice([s_, pred_, plus])
        return op(term(depth - 1)) if op is not plus else plus(term(depth - 1), term(depth - 1))

    terms = [term(rng.randrange(1, 7)) for _ in range(600)]
    for t in terms[:300]:
        # +(n, n') where n' is the normal form n with a redex put deep inside it
        n, _ = normalize(t, linear)
        deep = [pos for pos, _ in positions(n) if len(pos) >= 2]
        if deep:
            pos = rng.choice(deep)
            terms.append(plus(n, replace_at(n, s_(pred_(subterm_at(n, pos))), pos)))
    for system in (linear, doubling):
        steps = 0
        for t in terms:
            want = _reference_normalize(t, system)
            assert normalize(t, system) == want, (system.name, t)
            steps += len(want[1])
        assert steps > 500


def test_normalize_is_linear_in_fuel_on_the_induction_redex():
    # under nat-induction the redex sinks a level every two steps; rescanning
    # from the root made fuel 1,000 alone take seconds
    import time

    from demod.syntax import CLASS
    from demod.theories import OrderConfig, build_HHA, member

    hha = build_HHA(OrderConfig(1))
    start = time.perf_counter()
    with pytest.raises(FuelExhausted) as exc:
        normalize(member([x], Var("p", CLASS)), hha, fuel=3000)
    assert exc.value.steps_taken == 3000
    assert time.perf_counter() - start < 3.0


def _reference_verify_trace(p, q, trace, system):
    """Replay each step from the root with ``subterm_at`` and ``replace_at``."""
    from demod.syntax import apply_substitution, replace_at, subterm_at

    cur = p
    for step in trace.steps:
        if step.rule not in {r.name for r in system.rules}:
            return False
        rule = system.rule(step.rule)
        sigma = step.substitution()
        try:
            sub = subterm_at(cur, step.position)
        except Exception:
            return False
        if step.forward:
            if sub != apply_substitution(rule.lhs, sigma):
                return False
            cur = replace_at(cur, apply_substitution(rule.rhs, sigma), step.position)
        else:
            if not alpha_equal(sub, apply_substitution(rule.rhs, sigma)):
                return False
            cur = replace_at(cur, apply_substitution(rule.lhs, sigma), step.position)
    return alpha_equal(cur, q)


def _mutated(trace, rng):
    """The trace with one step broken in one of four ways, chosen by ``rng``."""
    steps = list(trace.steps)
    k = rng.randrange(len(steps))
    s = steps[k]
    how = rng.randrange(4)
    if how == 0:
        cut = rng.randrange(len(s.position) + 1)
        s = RewriteStep(s.position[:cut] + (rng.choice([0, 4, 99]),), s.rule, s.subst, s.forward)
    elif how == 1:
        s = RewriteStep(s.position, "no-such-rule", s.subst, s.forward)
    elif how == 2:
        s = RewriteStep(s.position, s.rule, s.subst, not s.forward)
    elif s.subst:
        j = rng.randrange(len(s.subst))
        v, _ = s.subst[j]
        subst = s.subst[:j] + ((v, Var(v.name + "'", v.sort)),) + s.subst[j + 1 :]
        s = RewriteStep(s.position, s.rule, subst, s.forward)
    steps[k] = s
    return Trace(tuple(steps))


def _equivalence_cases():
    """Each congruence obligation of the HHA and FZ fragment libraries that
    normalization joins, with its connecting trace and system: the cases of
    ``test_verify_trace_matches_replaying_from_the_root``."""
    from demod.fragments import FZ_LIBRARY, HHA_LIBRARY, fz_fragment, hha_fragment
    from demod.nd import fold_proof, obligations
    from demod.theories import OrderConfig, build_HHA, build_HO

    cfg = OrderConfig(1)
    proofs = [(build_HHA(cfg), hha_fragment(name).proof) for name in HHA_LIBRARY]
    proofs += [(build_HO(cfg), fz_fragment(name).proof) for name in FZ_LIBRARY]
    cases = []
    for system, proof in proofs:
        nodes = []
        fold_proof(proof, lambda node, _: nodes.append(node))
        for node in nodes:
            for left, right, _ in obligations(node):
                if not alpha_equal(left, right):
                    try:
                        trace = connecting_trace(left, right, system)
                    except (CongruenceError, FuelExhausted):
                        continue
                    cases.append((left, right, trace, system))
    return tuple(cases)


def test_verify_trace_matches_replaying_from_the_root():
    from demod.fragments import FZ_LIBRARY, HHA_LIBRARY, fz_fragment, hha_fragment
    from demod.nd import fold_proof, obligations
    from demod.theories import OrderConfig, build_HHA, build_HO

    cfg = OrderConfig(1)
    proofs = [(build_HHA(cfg), hha_fragment(name).proof) for name in HHA_LIBRARY]
    proofs += [(build_HO(cfg), fz_fragment(name).proof) for name in FZ_LIBRARY]
    cases = []
    for system, proof in proofs:
        nodes = []
        fold_proof(proof, lambda node, _: nodes.append(node))
        for node in nodes:
            for left, right, _ in obligations(node):
                if not alpha_equal(left, right):
                    try:
                        trace = connecting_trace(left, right, system)
                    except (CongruenceError, FuelExhausted):
                        continue
                    cases.append((left, right, trace, system))
    rng = random.Random(15)
    verdicts = []
    for left, right, trace, system in cases:
        tries = [trace] + [_mutated(trace, rng) for _ in range(8) if trace.steps]
        for t in tries:
            got = verify_trace(left, right, t, system)
            assert got is _reference_verify_trace(left, right, t, system), (left, right, t)
            verdicts.append(got)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 200


def _build_and_compare_verify_trace(p, q, trace, system):
    """``verify_trace`` as it was before forward steps were checked by the
    matcher: each builds its rule's left side under the step's bindings and
    compares it with the focus."""
    from demod.rewriting import _leave, compiled
    from demod.syntax import children

    spine = []
    path = ()
    focus = p
    for step in trace.steps:
        try:
            rule = system.rule(step.rule)
        except KeyError:
            return False
        pos = step.position
        while pos[: len(path)] != path:
            focus = _leave(*spine.pop(), path[-1], focus)
            path = path[:-1]
        for idx in pos[len(path) :]:
            kids = children(focus)
            if not 1 <= idx <= len(kids):
                return False
            spine.append((focus, list(kids)))
            focus = kids[idx - 1]
        path = pos
        form, sigma = compiled(rule.lhs, rule.rhs), step.substitution()
        if step.forward:
            if focus != form.lhs_under(sigma):
                return False
            focus = form.rhs_under(sigma)
        else:
            if not alpha_equal(focus, form.rhs_under(sigma)):
                return False
            focus = form.lhs_under(sigma)
    for (node, kids), idx in zip(reversed(spine), reversed(path)):
        focus = _leave(node, kids, idx, focus)
    return alpha_equal(focus, q)


def _replayed(replay, *args):
    """A replay's verdict, or the text of the SortError it raised."""
    from demod.syntax import SortError

    try:
        return replay(*args)
    except SortError as exc:
        return f"SortError: {exc}"


def _corrupted(trace, rng):
    """The trace with one forward step that has bindings corrupted in each of
    four ways: a wrong image, a variable left unbound, an extra binding and a
    binding of the wrong sort, the last also at the root, where the rule does
    not match.  None if no forward step has bindings."""
    from demod.syntax import LIST

    ks = [k for k, s in enumerate(trace.steps) if s.forward and s.subst]
    if not ks:
        return None
    k = rng.choice(ks)
    s = trace.steps[k]
    j = rng.randrange(len(s.subst))
    v, image = s.subst[j]
    other = Var(image.name + "'" if type(image) is Var else v.name + "'", v.sort)
    mis_sorted = Var(v.name, LIST if v.sort != LIST else arith(0))
    extra = (Var("extra", v.sort), image)
    wrong_sort = s.subst[:j] + ((v, mis_sorted),) + s.subst[j + 1 :]
    steps = (
        (s.position, s.subst[:j] + ((v, other),) + s.subst[j + 1 :]),
        (s.position, s.subst[:j] + s.subst[j + 1 :]),
        (s.position, s.subst + (extra,)),
        (s.position, wrong_sort),
        ((), wrong_sort),
    )
    return [
        Trace(trace.steps[:k] + (RewriteStep(pos, s.rule, subst, s.forward),) + trace.steps[k + 1 :])
        for pos, subst in steps
    ]


def test_forward_replay_by_the_matcher_agrees_with_building_the_left_side():
    # every trace of the equivalence cases, and each with one forward step
    # corrupted four ways: the verdict, or the SortError's text, is the same
    # as building the left side under the step's bindings and comparing
    rng = random.Random(19)
    seen = collections.Counter()
    for left, right, trace, system in _equivalence_cases():
        corrupted = _corrupted(trace, rng)
        got = {}
        hows = ("as is", "wrong image", "unbound", "extra", "wrong sort", "wrong sort at the root")
        for how, t in zip(hows, [trace, *(corrupted or ())]):
            got[how] = _replayed(verify_trace, left, right, t, system)
            assert got[how] == _replayed(_build_and_compare_verify_trace, left, right, t, system), (how, t)
            seen[how, got[how] if type(got[how]) is bool else "SortError"] += 1
        assert got.get("extra", got["as is"]) == got["as is"]  # an extra binding is ignored
    assert seen["as is", True] > 100
    assert seen["wrong image", False] == seen["unbound", False] == seen["wrong sort", "SortError"] > 100
    assert seen["wrong sort at the root", "SortError"] == seen["wrong sort", "SortError"]


def _reference_match(pattern, subject):
    """Recursive first-order matching: a variable's image is a Var or App of
    its sort, a repeated variable needs equal images, heads and arities must
    agree, and an application's sort is not tested."""
    bind = {}

    def go(p, s):
        if isinstance(p, Var):
            if not isinstance(s, (Var, App)) or s.sort != p.sort:
                return False
            if p in bind:
                return bind[p] == s
            bind[p] = s
            return True
        if isinstance(p, App):
            same_head = isinstance(s, App) and s.fn == p.fn
        elif isinstance(p, Atom):
            same_head = isinstance(s, Atom) and s.pred == p.pred
        else:
            return False
        return same_head and len(p.args) == len(s.args) and all(map(go, p.args, s.args))

    return bind if go(pattern, subject) else None


def _near_misses(subject, lhs, pool, rng):
    """``subject``, an instance of ``lhs``, changed at one position of ``lhs``
    each way a match can fail, or nearly fail."""
    from demod.syntax import replace_at, subterm_at

    out = []
    sorts = list(pool)
    seen = set()
    for pos, p in positions(lhs):
        at = subterm_at(subject, pos)
        if isinstance(p, Var):
            other = rng.choice([s for s in sorts if s != p.sort])
            out += [replace_at(subject, rng.choice(pool[other]), pos), replace_at(subject, TRUE, pos)]
            if p in seen:  # a repeated variable given an image unequal to its first one
                out += [replace_at(subject, t, pos) for t in pool[p.sort] if t != at][:2]
            seen.add(p)
            continue
        args = at.args
        shorter = args[:-1] if args else (ZERO,)
        longer = args + (rng.choice(pool[rng.choice(sorts)]),)
        if isinstance(at, App):
            other = rng.choice(sorts)
            changed = [
                App(at.fn, shorter, at.sort),
                App(at.fn, longer, at.sort),
                App(at.fn + "'", args, at.sort),
                App(at.fn, args, other),  # an application's sort is not tested
                Atom(at.fn, args),
                Atom(at.fn[1:], args) if at.fn.startswith("@") else Atom("@" + at.fn, args),
            ]
        else:
            changed = [
                Atom(at.pred, shorter),
                Atom(at.pred, longer),
                Atom(at.pred + "'", args),
                App(at.pred, args, arith(0)),
                App("@" + at.pred, args, arith(0)),
            ]
        out += [replace_at(subject, c, pos) for c in changed]
    return out


def test_compiled_rules_agree_with_recursive_matching_and_substitution():
    from demod.rewriting import compiled
    from demod.syntax import LIST, apply_substitution, free_variables
    from demod.theories import OrderConfig, build_HHA, build_HO, build_WS

    hha = build_HHA(OrderConfig(1))
    systems = [ADD, build_WS(OrderConfig(1)), build_HO(OrderConfig(1)), build_HO(OrderConfig(2)), hha]
    systems.append(hha.auto_fallback)
    assert hha.auto_fallback.name == "HHA-mod-noind"
    rng = random.Random(16)
    hits = misses = renamed = 0
    for system in systems:
        # terms to put in for variables: every term in the rules, each also instantiated once
        pool = {}
        for rule in system.rules:
            for side in (rule.lhs, rule.rhs):
                for _, t in positions(side):
                    if isinstance(t, (Var, App)):
                        pool.setdefault(t.sort, set()).add(t)
        for sort in (*pool, LIST, arith(1)):
            pool.setdefault(sort, set()).add(Var("u", sort))
        pool = {sort: sorted(terms, key=repr) for sort, terms in pool.items()}
        for terms in list(pool.values()):
            for t in terms[:]:
                sigma = {v: rng.choice(pool[v.sort]) for v in free_variables(t)}
                terms.append(apply_substitution(t, sigma))
        for rule in system.rules:
            form = compiled(rule.lhs, rule.rhs)
            for _ in range(4):
                sigma = {v: rng.choice(pool[v.sort]) for v in free_variables(rule.lhs)}
                subject = apply_substitution(rule.lhs, sigma)
                for s in [subject] + _near_misses(subject, rule.lhs, pool, rng):
                    want = _reference_match(rule.lhs, s)
                    assert match(rule.lhs, s) == want, (rule.name, s)
                    images = form.match(s)
                    assert (images is None) == (want is None), (rule.name, s)
                    if want is None:
                        misses += 1
                        continue
                    hits += 1
                    assert dict(zip(form.variables, images)) == want
                    assert form.build_lhs(images) == apply_substitution(rule.lhs, want)
                    built = form.build_rhs(images)
                    assert built == apply_substitution(rule.rhs, want), (rule.name, s)
                    # the order a RewriteStep's bindings were sorted in by normalize
                    ordered = sorted(want.items(), key=lambda vt: (vt[0].name, vt[0].sort))
                    assert form.subst(images) == tuple(ordered)
                    renamed += built != apply_substitution(rule.rhs, {}) and "'" in str(built)
    assert hits > 1000 and misses > 5000 and renamed > 20

    # a right side with a binder still renames it around an image that would be caught
    unfold = hha.rule("eq-unfold")
    form = compiled(unfold.lhs, unfold.rhs)
    assert form.rhs_variables is None
    z0 = Var("z", arith(0))
    sigma = {x: z0, y: ZERO}
    built = form.build_rhs(tuple(sigma[v] for v in form.variables))
    assert built == apply_substitution(unfold.rhs, sigma)
    assert built.var.name == "z'" and z0 in free_variables(built)
    assert form.rhs_under(sigma) == built


def test_verify_trace_replay_edge_cases(tmp_path, capsys):
    # a binding of the wrong sort is an error, an extra one is ignored, and
    # a missing one leaves the rule's variable in the side it builds
    from demod.cli import main
    from demod.fileformat import dumps, nd_proof_document
    from demod.nd import TopI
    from demod.syntax import LIST, SortError
    from demod.theories import null, pred_

    nil = App("nil", (), LIST)
    start, end = add_atom(s_(ZERO), ZERO, s_(ZERO)), add_atom(ZERO, ZERO, ZERO)
    good = ((x, ZERO), (y, ZERO), (z, ZERO))

    def step(subst):
        return Trace((RewriteStep((), "add-step", subst),))

    assert verify_trace(start, end, step(good), ADD)
    with pytest.raises(SortError, match=r"^substitution maps x:0 to nil of sort list$"):
        verify_trace(start, end, step(((x, nil),) + good[1:]), ADD)
    assert verify_trace(start, end, step(good + ((var0("w"), ZERO), (Var("l", LIST), ZERO))), ADD)
    assert verify_trace(start, end, step(good[1:]), ADD) is False
    assert verify_trace(end, start, step(good).reversed(), ADD)
    assert verify_trace(end, start, step(good[1:]).reversed(), ADD) is False

    def checked(image):
        via = Trace((RewriteStep((1,), "pred-s", ((x, image),)), RewriteStep((), "null-zero", ())))
        path = tmp_path / "proof.sexp"
        path.write_text(dumps(nd_proof_document(TopI(null(pred_(s_(ZERO))), via=via))))
        return main(["check-nd", str(path), "--system", "hha", "--mode", "witnessed"])

    assert checked(ZERO) == 0
    capsys.readouterr()
    assert checked(nil) == 2
    assert capsys.readouterr().err == "error: substitution maps x:0 to nil of sort list\n"


def test_systems_with_compiled_rules_pickle_and_share_them():
    import copy
    import pickle

    from demod.rewriting import _COMPILED, compiled
    from demod.theories import OrderConfig, build_HHA

    system = add_system()
    start = add_atom(numeral(2), numeral(2), numeral(4))
    want = normalize(start, system)
    for again in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system)):
        assert again == system
        assert normalize(start, again) == want

    from demod.syntax import CLASS
    from demod.theories import member

    def compile_all(hha):
        for rule in hha.rules + hha.auto_fallback.rules:
            compiled(rule.lhs, rule.rhs)
        return normalize(member([numeral(2)], Var("p", CLASS)), hha, fuel=40)

    with pytest.raises(FuelExhausted):
        compile_all(build_HHA(OrderConfig(1)))
    size = len(_COMPILED)
    with pytest.raises(FuelExhausted):
        compile_all(build_HHA(OrderConfig(1)))
    assert len(_COMPILED) == size
    first, second = build_HHA(OrderConfig(1)), build_HHA(OrderConfig(1))
    for a, b in zip(first.rules, second.rules):
        assert compiled(a.lhs, a.rhs) is compiled(b.lhs, b.rhs)


def _table_outcome(x, system, fuel=None):
    return _outcome(_normal_form, x, system, fuel)


def _fresh_outcome(x, system, fuel=None):
    got = _outcome(normalize, x, system, fuel)
    return got if isinstance(got[1], int) else (got[0], len(got[1]))


def test_a_table_hit_behaves_as_a_fresh_run(monkeypatch):
    import demod.rewriting as rw

    # Go rewrites in one step to Add(250, 0, 250), which takes 251 more, so
    # Go's 252 steps exceed its default fuel of 200 * size(Go) ** 2 = 200
    go = Atom("Go", ())
    long = add_atom(numeral(250), ZERO, numeral(250))
    system = RewriteSystem("go", (Rule("go", go, long), *ADD.rules), terminating=True)
    six = add_atom(numeral(5), numeral(5), numeral(10))
    calls = []
    plain = rw.normalize
    monkeypatch.setattr(rw, "normalize", lambda *a: calls.append(a[0]) or plain(*a))

    # run out at fuel 5, then succeed with more: not entered, then the cold result
    cold = _fresh_outcome(six, system, 5)
    assert cold == ("no normal form within 5 steps under go", 5)
    assert _table_outcome(six, system, 5) == cold and six not in system._normal_form_table
    assert _table_outcome(six, system, 6) == _fresh_outcome(six, system, 6) == (repr(TRUE), 6)
    # warm: fuel n - 1 raises as the cold run did, fuel n succeeds
    calls.clear()
    assert _table_outcome(six, system, 5) == cold
    assert _table_outcome(six, system, 6) == (repr(TRUE), 6)
    assert _table_outcome(six, system) == (repr(TRUE), 6)
    assert calls == []

    # n > 200 without fuel: the default fuel is worked out and applied
    assert _table_outcome(go, system, 1000) == (repr(TRUE), 252)
    assert _table_outcome(long, system) == _fresh_outcome(long, system) == (repr(TRUE), 251)
    calls.clear()
    want = _fresh_outcome(go, system)
    assert want == ("no normal form within 200 steps under go", 200)
    assert _table_outcome(go, system) == want
    assert _table_outcome(long, system) == (repr(TRUE), 251)
    assert calls == []

    # a warm input that takes no step still needs positive fuel
    assert _table_outcome(TRUE, system) == (repr(TRUE), 0)
    for fuel in (0, -1):
        assert _table_outcome(TRUE, system, fuel) == ("normalize needs positive fuel", 0)
    assert calls == [TRUE]


def test_joinable_and_congruent_go_through_the_table():
    from demod.rewriting import CriticalPair

    system = RewriteSystem("Add", ADD.rules, terminating=True, confluent=True)
    table = system._normal_form_table
    p, q = add_atom(numeral(2), numeral(2), numeral(4)), add_atom(numeral(1), numeral(1), numeral(2))
    assert congruent(p, q, system) and congruent_auto(q, p, system)
    assert table == {p: (TRUE, 3), q: (TRUE, 2)}
    r = add_atom(numeral(1), numeral(1), numeral(1))
    assert not joinable(CriticalPair(p, r, q, ("add-step", "add-step"), ()), system)
    assert table[r] == (add_atom(ZERO, numeral(1), ZERO), 1)


def test_a_shared_reducts_table_changes_no_longest_derivation():
    # one table over the whole enumeration, as the exhaustive probe shares it
    from demod.bench import enumerate_probe_terms
    from demod.theories import OrderConfig, build_WS

    ws = build_WS(OrderConfig(1))
    table = {}
    for t, _, _ in enumerate_probe_terms(7):
        assert longest_derivation(t, ws, table=table) == longest_derivation(t, ws), t
    assert table


@pytest.mark.parametrize("case, longest, fuel", [c for c in SEARCH_FUEL if isinstance(c[0], str)])
def test_a_warm_reducts_table_spends_the_same_fuel(case, longest, fuel):
    # a searched term spends fuel on its reducts even when the table holds them
    from demod import fileformat as ff
    from demod.theories import OrderConfig, build_WS, classes_signature

    start = ff.term_or_prop_from_sx(ff.loads(case), classes_signature(1))
    ws = build_WS(OrderConfig(1))
    table = {}
    assert longest_derivation(start, ws, fuel=fuel, table=table) == longest
    warm = dict(table)
    with pytest.raises(FuelExhausted) as exc:
        longest_derivation(start, ws, fuel=fuel - 1, table=table)
    assert str(exc.value) == "longest_derivation search budget exhausted"
    assert table == warm  # every reduct the second search met was in the table
    assert longest_derivation(start, ws, fuel=fuel, table=table) == longest
