import copy
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from demod.syntax import (
    And,
    App,
    Atom,
    CLASS,
    FALSE,
    Exists,
    Falsum,
    Forall,
    FunDecl,
    Imp,
    LIST,
    Or,
    PredDecl,
    TRUE,
    Signature,
    Sort,
    SortError,
    PositionError,
    SHAPES,
    Var,
    Verum,
    alpha_equal,
    apply_substitution,
    arith,
    free_variables,
    freely_substitutable,
    fresh_name,
    iff,
    positions,
    replace_at,
    size,
    sort_of,
    subterm_at,
)

S0 = arith(0)
x = Var("x", S0)
y = Var("y", S0)
z = Var("z", S0)

SIG = Signature(
    sorts=(S0,),
    fun_decls=(
        FunDecl("0", (), S0),
        FunDecl("s", (S0,), S0),
        FunDecl("+", (S0, S0), S0),
    ),
    pred_decls=(PredDecl("P", (S0,)), PredDecl("=", (S0, S0))),
)

zero = SIG.app("0")


def s(t):
    return SIG.app("s", t)


def plus(a, b):
    return SIG.app("+", a, b)


def P(t):
    return SIG.atom("P", t)


def test_signature_rejects_bad_arity_and_sorts():
    with pytest.raises(SortError):
        SIG.app("s", zero, zero)
    with pytest.raises(SortError):
        SIG.app("nope")
    with pytest.raises(SortError):
        SIG.atom("P")


def test_substitution_does_not_capture():
    # {s/x}(P(x) & all x. P(x)) = P(s) & all x. P(x)
    prop = And(P(x), Forall(x, P(x)))
    got = apply_substitution(prop, {x: s(zero)})
    assert got == And(P(s(zero)), Forall(x, P(x)))


def test_substitution_identity_and_forced():
    prop = Forall(x, P(x))
    assert apply_substitution(prop, {}) == prop
    assert apply_substitution(plus(x, x), {x: zero}) == plus(zero, zero)


def test_substitution_renames_binder_on_clash():
    # {y+y/x} under a binder y must rename the binder
    prop = Forall(y, Atom("=", (x, y)))
    got = apply_substitution(prop, {x: plus(y, y)})
    assert isinstance(got, Forall)
    assert got.var != y
    assert got.body == Atom("=", (plus(y, y), got.var))
    assert alpha_equal(got, Forall(z, Atom("=", (plus(y, y), z))))


def test_substitution_sort_mismatch():
    l = Var("l", arith(1))
    with pytest.raises(SortError):
        apply_substitution(P(x), {x: App("nil", (), arith(1))})
    with pytest.raises(SortError):
        apply_substitution(P(x), {x: l})


def test_replacement_captures():
    # (all x. P2(x, t))[s(x)]_{1.2} = all x. P2(x, s(x))
    sig = SIG.extend(preds=[PredDecl("P2", (S0, S0))])
    t = sig.app("0")
    prop = Forall(x, sig.atom("P2", x, t))
    got = replace_at(prop, s(x), (1, 2))
    assert got == Forall(x, sig.atom("P2", x, s(x)))


def test_replace_at_root_and_deep():
    t = s(zero)
    assert replace_at(t, zero, ()) == zero
    assert replace_at(s(zero), s(zero), (1,)) == s(s(zero))
    with pytest.raises(PositionError):
        replace_at(t, zero, (2,))


def test_subterm_at():
    t = s(plus(zero, y))
    assert subterm_at(t, (1, 1)) == zero
    assert subterm_at(t, ()) == t
    assert subterm_at(And(P(x), FALSE), (1,)) == P(x)
    with pytest.raises(PositionError):
        subterm_at(t, (1, 3))


def test_alpha_equal_basic():
    assert alpha_equal(Forall(x, P(x)), Forall(y, P(y)))
    assert not alpha_equal(Forall(x, P(x)), Forall(y, P(zero)))
    s1 = arith(1)
    sig = SIG.extend(sorts=[s1], preds=[PredDecl("in^0", (S0, s1))])
    a, b = Var("a", S0), Var("b", s1)
    c, d = Var("c", s1), Var("d", S0)
    p = Exists(a, Forall(b, sig.atom("in^0", a, b)))
    q = Exists(d, Forall(c, sig.atom("in^0", d, c)))
    assert alpha_equal(p, q)
    # bound/free confusion must not be identified
    assert not alpha_equal(Forall(x, P(x)), Forall(y, P(x)))


def test_free_variables_and_freely_substitutable():
    assert free_variables(Forall(x, Atom("=", (x, y)))) == {y}
    assert not freely_substitutable(s(y), x, Forall(y, Atom("=", (x, y))))
    assert freely_substitutable(zero, x, Forall(y, Atom("=", (x, y))))
    assert freely_substitutable(s(y), x, Forall(x, Atom("=", (x, y))))


def test_positions_are_leftmost_outermost():
    t = plus(s(zero), y)
    posns = [p for p, _ in positions(t)]
    assert posns == [(), (1,), (1, 1), (2,)]


# -- randomized structural properties ---------------------------------------


def terms(depth=3):
    base = st.sampled_from([zero, x, y])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(s),
            st.tuples(sub, sub).map(lambda ab: plus(*ab)),
        ),
        max_leaves=8,
    )


def props():
    atoms = terms().map(P)
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Or(*ab)),
            st.tuples(st.sampled_from([x, y, z]), sub).map(lambda vb: Forall(*vb)),
            st.tuples(st.sampled_from([x, y, z]), sub).map(lambda vb: Exists(*vb)),
        ),
        max_leaves=6,
    )


@given(props(), terms())
@settings(max_examples=200)
def test_substitution_preserves_well_sortedness(p, t):
    assert SIG.well_sorted(p)
    q = apply_substitution(p, {x: t})
    assert SIG.well_sorted(q)


@given(props())
@settings(max_examples=200)
def test_alpha_is_reflexive_and_subterm_roundtrip(p):
    assert alpha_equal(p, p)
    for pos, sub in positions(p):
        assert alpha_equal(replace_at(p, sub, pos), p)


@given(props(), terms())
@settings(max_examples=150)
def test_substitution_respects_alpha(p, t):
    # rename every binder, then substitute: results agree up to alpha
    q = _rename_binders(p, 0)
    assert alpha_equal(p, q)
    assert alpha_equal(apply_substitution(p, {x: t}), apply_substitution(q, {x: t}))


def _rename_binders(p, n):
    if isinstance(p, (Forall, Exists)):
        fresh = Var(f"r{n}", p.var.sort)
        body = apply_substitution(p.body, {p.var: fresh})
        return type(p)(fresh, _rename_binders(body, n + 1))
    if isinstance(p, (And, Or)):
        return type(p)(_rename_binders(p.left, n), _rename_binders(p.right, n + 1))
    return p


@given(props())
@settings(max_examples=100)
def test_closed_substitution_agrees_with_replacement(p):
    # for closed s, {s/x}P equals replacing every free occurrence of x
    closed = s(zero)
    via_subst = apply_substitution(p, {x: closed})
    got = p
    while True:
        hit = None
        for pos, sub in positions(got):
            if sub == x and _is_free_occurrence(got, pos):
                hit = pos
                break
        if hit is None:
            break
        got = replace_at(got, closed, hit)
    assert via_subst == got


def _is_free_occurrence(p, pos):
    cur = p
    for idx in pos:
        if isinstance(cur, (Forall, Exists)) and cur.var == x:
            return False
        cur = subterm_at(cur, (idx,))
    return True


# a node of every kind, some ground, some with variables
SAMPLES = [x, plus(x, zero), FALSE, TRUE, P(x), And(P(x), FALSE), Or(P(x), TRUE),
           Imp(P(zero), P(x)), Forall(x, P(x)), Exists(y, Imp(P(y), P(x))), s(zero), P(zero)]


def test_copy_and_pickle_keep_equality_and_hash():
    assert {type(q) for q in SAMPLES} == set(SHAPES)
    for q in SAMPLES:
        for other in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert other == q and q == other and hash(other) == hash(q)
            assert _ground(other) == _ground(q) == _ref_ground(q)



def test_equal_sorts_hash_alike():
    # a sort is the tuple of its fields, so a sort rebuilt by copy or pickle,
    # or built apart from the cached arith(), hashes alike
    sorts = [arith(0), arith(3), LIST, CLASS]
    for q in sorts:
        built = Sort(q.kind, q.level)
        for other in (built, copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert other == q and hash(other) == hash(q) == hash((q.kind, q.level))
            assert repr(other) == f"Sort(kind={q.kind!r}, level={q.level})"
    assert len({hash(q) for q in sorts}) == len(sorts)
    assert sorted([LIST, arith(2), CLASS, arith(1)]) == [arith(1), arith(2), CLASS, LIST]
    assert "_hash" not in pickle.dumps(arith(3)).decode("latin-1")

def test_sort_of():
    assert sort_of(zero) == S0
    assert sort_of(Var("l", arith(2))) == arith(2)
    assert size(plus(s(zero), y)) == 4


@given(props())
@settings(max_examples=100)
def test_alpha_is_symmetric_and_transitive(p):
    q = _rename_binders(p, 0)
    r = _rename_binders(q, 50)
    assert alpha_equal(p, q) and alpha_equal(q, p)
    assert alpha_equal(q, r) and alpha_equal(p, r)


# -- the table-driven walks against the recursive definitions they replaced --
# (kept as references; each is bounded by the interpreter's recursion depth)


def _ref_children(x):
    if isinstance(x, (App, Atom)):
        return x.args
    if isinstance(x, (And, Or, Imp)):
        return (x.left, x.right)
    if isinstance(x, (Forall, Exists)):
        return (x.body,)
    return ()


def _ref_size(x):
    return 1 + sum(_ref_size(c) for c in _ref_children(x))


def _ref_str(x):
    if isinstance(x, Var):
        return f"{x.name}:{x.sort}"
    if isinstance(x, App):
        return x.fn if not x.args else f"{x.fn}({', '.join(map(_ref_str, x.args))})"
    if isinstance(x, Atom):
        return x.pred if not x.args else f"{x.pred}({', '.join(map(_ref_str, x.args))})"
    if isinstance(x, (Falsum, Verum)):
        return "false" if isinstance(x, Falsum) else "true"
    if isinstance(x, (And, Or, Imp)):
        op = {And: "&", Or: "|", Imp: ">"}[type(x)]
        return f"({_ref_str(x.left)} {op} {_ref_str(x.right)})"
    word = "all" if isinstance(x, Forall) else "ex"
    return f"({word} {_ref_str(x.var)}. {_ref_str(x.body)})"


def _ref_free_variables(x):
    if isinstance(x, Var):
        return frozenset((x,))
    if isinstance(x, (Forall, Exists)):
        return _ref_free_variables(x.body) - {x.var}
    out = frozenset()
    for c in _ref_children(x):
        out |= _ref_free_variables(c)
    return out


def _ref_subst_term(t, sub):
    if isinstance(t, Var):
        img = sub.get(t, t)
        if sort_of(img) != t.sort:
            raise SortError(f"substitution maps {t} to {img} of sort {sort_of(img)}")
        return img
    args = tuple(_ref_subst_term(a, sub) for a in t.args)
    if all(a is b for a, b in zip(args, t.args)):
        return t
    return App(t.fn, args, t.sort)


def _ref_apply_substitution(x, sub):
    if not sub:
        return x
    if isinstance(x, (Var, App)):
        return _ref_subst_term(x, sub)
    if isinstance(x, Atom):
        args = tuple(_ref_subst_term(a, sub) for a in x.args)
        if all(a is b for a, b in zip(args, x.args)):
            return x
        return Atom(x.pred, args)
    if isinstance(x, (Falsum, Verum)):
        return x
    if isinstance(x, (And, Or, Imp)):
        left = _ref_apply_substitution(x.left, sub)
        right = _ref_apply_substitution(x.right, sub)
        if left is x.left and right is x.right:
            return x
        return type(x)(left, right)
    live = {v: t for v, t in sub.items() if v != x.var}
    live = {v: t for v, t in live.items() if v in _ref_free_variables(x.body)}
    if not live:
        return x
    clash = set()
    for t in live.values():
        clash |= {w.name for w in _ref_free_variables(t)}
    binder = x.var
    body = x.body
    if binder.name in clash:
        taken = clash | {w.name for w in _ref_free_variables(body)} | {v.name for v in live}
        binder = Var(fresh_name(x.var.name, taken), x.var.sort)
        body = _ref_apply_substitution(body, {x.var: binder})
    return type(x)(binder, _ref_apply_substitution(body, live))


def _ref_alpha(p, q, lenv, renv, depth):
    if not lenv and not renv and p == q:
        return True
    if type(p) is not type(q):
        return False
    if isinstance(p, Var):
        li, ri = lenv.get(p), renv.get(q)
        if li is None and ri is None:
            return p == q
        return li == ri and p.sort == q.sort
    if isinstance(p, App):
        return (
            p.fn == q.fn
            and len(p.args) == len(q.args)
            and all(_ref_alpha(a, b, lenv, renv, depth) for a, b in zip(p.args, q.args))
        )
    if isinstance(p, Atom):
        return (
            p.pred == q.pred
            and len(p.args) == len(q.args)
            and all(_ref_alpha(a, b, lenv, renv, depth) for a, b in zip(p.args, q.args))
        )
    if isinstance(p, (Falsum, Verum)):
        return True
    if isinstance(p, (And, Or, Imp)):
        return _ref_alpha(p.left, q.left, lenv, renv, depth) and _ref_alpha(p.right, q.right, lenv, renv, depth)
    if p.var.sort != q.var.sort:
        return False
    return _ref_alpha(p.body, q.body, {**lenv, p.var: depth}, {**renv, q.var: depth}, depth + 1)


# binder names that substituted terms mention, so that substitutions rename
# binders, sometimes more than once (y, y', y'')
CLASH_VARS = [x, y, z, Var("y'", S0)]
L1 = Var("l", arith(1))


def clash_terms():
    return st.recursive(
        st.sampled_from(CLASH_VARS + [zero]),
        lambda sub: st.one_of(sub.map(s), st.tuples(sub, sub).map(lambda ab: plus(*ab))),
        max_leaves=5,
    )


def shared(sub, binders):
    """Propositions with a shared subproposition: ``iff``, whose sides each
    occur twice, and one subproposition under two binders of different names."""
    return st.one_of(
        st.tuples(sub, sub).map(lambda ab: iff(*ab)),
        st.tuples(st.permutations(binders), sub)
        .map(lambda vb: And(Forall(vb[0][0], vb[1]), Exists(vb[0][1], vb[1]))),
    )


def clash_props(binders=CLASH_VARS):
    leaves = st.one_of(clash_terms().map(P), st.tuples(clash_terms(), clash_terms()).map(lambda ab: Atom("=", ab)),
                       st.just(FALSE))
    binder = st.sampled_from(binders)
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Or(*ab)),
            st.tuples(sub, sub).map(lambda ab: Imp(*ab)),
            st.tuples(binder, sub).map(lambda vb: Forall(*vb)),
            st.tuples(binder, sub).map(lambda vb: Exists(*vb)),
            shared(sub, binders),
        ),
        max_leaves=8,
    )


def clash_cases():
    """An object and a substitution: some substitutions map a variable to one
    of another sort, so that errors are compared too; in the third kind x
    stays free under binders whose names its image mentions, so binders are
    renamed."""
    return st.one_of(
        st.tuples(st.one_of(clash_props(), clash_terms()),
                  st.dictionaries(st.sampled_from(CLASH_VARS), clash_terms(), max_size=3)),
        st.tuples(clash_props(),
                  st.dictionaries(st.sampled_from(CLASH_VARS), st.one_of(clash_terms(), st.just(L1)),
                                  min_size=1, max_size=2)),
        st.tuples(st.tuples(st.sampled_from(CLASH_VARS[1:]), clash_props(CLASH_VARS[1:])).map(lambda vb: Forall(*vb)),
                  st.tuples(clash_terms(), st.sampled_from(CLASH_VARS[1:])).map(lambda tv: {x: plus(*tv)})),
        # one subproposition under two binders, at least one of them likely
        # on a substituted variable, so the walk meets it in two scopes
        st.tuples(shared(clash_props(), CLASH_VARS),
                  st.dictionaries(st.sampled_from(CLASH_VARS), clash_terms(), min_size=2, max_size=3)),
    )


def _outcome(subst, obj, sub):
    try:
        got = subst(obj, sub)
    except SortError as exc:
        return ("error", str(exc))
    return ("ok", _ref_str(got), got)


@given(clash_cases(), clash_props())
@settings(max_examples=400, deadline=None)
def test_derived_walks_match_the_recursive_definitions(case, other):
    obj, sub = case
    assert str(obj) == _ref_str(obj)
    assert size(obj) == _ref_size(obj)
    assert free_variables(obj) == _ref_free_variables(obj)
    got, want = _outcome(apply_substitution, obj, sub), _outcome(_ref_apply_substitution, obj, sub)
    assert got == want
    if got[0] == "ok":
        assert str(got[2]) == want[1]
        result = got[2]
        renamed = _rename_binders(obj, 0) if isinstance(obj, (And, Or, Forall, Exists)) else obj
        for q in (result, renamed, other):
            assert alpha_equal(obj, q) == _ref_alpha(obj, q, {}, {}, 0)
            assert alpha_equal(q, obj) == _ref_alpha(q, obj, {}, {}, 0)


# -- input deeper than the interpreter's recursion limit ---------------------

DEEP = 10_000


def _deep_numeral(leaf):
    t = leaf
    for _ in range(DEEP):
        t = s(t)
    return t, ["s("] * DEEP, [")"] * DEEP


def _deep_chain(leaf, binder_name="v"):
    """P(leaf) under DEEP levels of And, every hundredth of them under a Forall;
    also the printed text around the leaf, outermost level last."""
    p, before, after = P(leaf), ["P("], [")"]
    for level in range(DEEP):
        if level % 100 == 99:
            v = Var(f"{binder_name}{level}", S0)
            p = Forall(v, And(P(v), p))
            before.append(f"(all {v}. (P({v}) & ")
            after.append("))")
        else:
            p = And(P(zero), p)
            before.append("(P(0) & ")
            after.append(")")
    return p, before, after


@pytest.mark.parametrize("build", [_deep_numeral, _deep_chain], ids=["numeral", "chain"])
def test_deep_input_needs_no_recursion(build):
    (obj, before, after), (copy, _, _), (other, _, _) = build(x), build(x), build(zero)
    assert obj is copy and hash(obj) == hash(copy) and obj is not other
    n = size(obj)
    assert n == _flat_size(obj)
    assert free_variables(obj) == {x}
    assert apply_substitution(obj, {x: zero}) == other
    assert alpha_equal(obj, copy) and not alpha_equal(obj, other)
    SIG.check(obj)
    assert str(obj) == "".join(reversed(before)) + "x:0" + "".join(after)
    count, deepest = 0, ()
    for pos, sub in positions(obj):
        count += 1
        if sub == x:
            deepest = pos
    assert count == n and subterm_at(obj, deepest) == x
    assert replace_at(obj, zero, deepest) == other


def test_deep_chain_alpha_and_renaming():
    p, q = _deep_chain(x, "v")[0], _deep_chain(x, "w")[0]
    assert p != q and alpha_equal(p, q)
    # the substituted term mentions every binder's name, so every binder is renamed
    names = [Var(f"v{level}", S0) for level in range(99, DEEP, 100)]
    image = names[0]
    for v in names[1:]:
        image = plus(image, v)
    got = apply_substitution(p, {x: image})
    assert alpha_equal(got, apply_substitution(q, {x: image}))
    assert str(got).count("'") == 2 * len(names)  # each renamed binder and its one occurrence


def _flat_size(obj):
    count, stack = 0, [obj]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, (App, Atom)):
            stack.extend(node.args)
        elif isinstance(node, (And, Or, Imp)):
            stack += (node.left, node.right)
        elif isinstance(node, (Forall, Exists)):
            stack.append(node.body)
    return count


def test_repr_is_the_dataclass_form_at_any_depth():
    sort = "Sort(kind='arith', level=0)"
    var_x = f"Var(name='x', sort={sort})"
    assert repr(x) == var_x
    assert repr(FALSE) == "Falsum()"
    assert repr(Atom("Q", ())) == "Atom(pred='Q', args=())"
    assert repr(Forall(x, Imp(P(s(x)), Atom("=", (x, zero))))) == (
        f"Forall(var={var_x}, body=Imp(left=Atom(pred='P', args=(App(fn='s', args=({var_x},), "
        f"sort={sort}),)), right=Atom(pred='=', args=({var_x}, App(fn='0', args=(), sort={sort})))))"
    )
    numeral = _deep_numeral(x)[0]
    assert repr(numeral) == "App(fn='s', args=(" * DEEP + var_x + f",), sort={sort})" * DEEP
    chain = repr(_deep_chain(x)[0])
    assert chain.startswith("Forall(var=Var(name='v9999', ") and chain.count("And(left=") == DEEP


# -- the ground bit ------------------------------------------------------------


def _ground(obj):
    """The bit each node stores when it is built."""
    return bool(obj._ground)


def _ref_ground(obj):
    """No variable, free or bound, anywhere in ``obj``."""
    if isinstance(obj, Var):
        return False
    if isinstance(obj, (Forall, Exists)):
        return False
    return all(_ref_ground(c) for c in _ref_children(obj))


def ground_terms():
    """Terms that are often ground: numerals, sums of them, some variables."""
    return st.recursive(
        st.one_of(st.integers(0, 4).map(_numeral), st.sampled_from(CLASH_VARS)),
        lambda sub: st.one_of(sub.map(s), st.tuples(sub, sub).map(lambda ab: plus(*ab))),
        max_leaves=5,
    )


def _numeral(n):
    t = zero
    for _ in range(n):
        t = s(t)
    return t


def ground_props():
    leaves = st.one_of(ground_terms().map(P), st.tuples(ground_terms(), ground_terms()).map(lambda ab: Atom("=", ab)),
                       st.sampled_from([FALSE, TRUE]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Imp(*ab)),
            st.tuples(st.sampled_from(CLASH_VARS), sub).map(lambda vb: Forall(*vb)),
            st.tuples(st.sampled_from(CLASH_VARS), sub).map(lambda vb: Exists(*vb)),
            shared(sub, CLASH_VARS),
        ),
        max_leaves=8,
    )


@given(st.one_of(ground_props(), ground_terms(), clash_props()))
@settings(max_examples=300, deadline=None)
def test_ground_bit_is_no_variable_below(obj):
    for _, sub in positions(obj):
        assert _ground(sub) == _ref_ground(sub)
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert other == obj and hash(other) == hash(obj) and _ground(other) == _ground(obj)


@given(st.one_of(
    st.tuples(st.one_of(ground_props(), ground_terms()),
              st.dictionaries(st.sampled_from(CLASH_VARS), ground_terms(), max_size=3)),
    # x free under binders whose names its image mentions: binders are renamed
    st.tuples(st.tuples(st.sampled_from(CLASH_VARS[1:]), ground_props()).map(lambda vb: Forall(*vb)),
              st.tuples(ground_terms(), st.sampled_from(CLASH_VARS[1:])).map(lambda tv: {x: plus(*tv)})),
))
@settings(max_examples=300, deadline=None)
def test_substitution_skipping_ground_subterms_matches_the_reference(case):
    obj, sub = case
    got, want = apply_substitution(obj, sub), _ref_apply_substitution(obj, sub)
    assert got == want and str(got) == _ref_str(want)
    assert free_variables(obj) == _ref_free_variables(obj)
    for _, part in positions(obj):
        if _ground(part):
            assert apply_substitution(part, sub) is part
            assert alpha_equal(part, got) == _ref_alpha(part, got, {}, {}, 0)
    for v, t in sub.items():
        assert freely_substitutable(t, v, obj) == _ref_freely_substitutable(t, v, obj)


def _ref_freely_substitutable(t, v, p):
    if isinstance(p, (Forall, Exists)):
        if p.var == v:
            return True
        if p.var in _ref_free_variables(t) and v in _ref_free_variables(p.body):
            return False
        return _ref_freely_substitutable(t, v, p.body)
    return all(_ref_freely_substitutable(t, v, c) for c in _ref_children(p) if not isinstance(c, (Var, App)))


def test_ground_skipping_makes_substitution_linear_in_the_open_part():
    # a numeral 10,000 deep under one binder: substituting touches only the atom
    big = _deep_numeral(zero)[0]
    p = Forall(y, Atom("=", (big, x)))
    assert _ground(big) and not _ground(p)
    q = apply_substitution(p, {x: zero})
    assert q.body.args[0] is big and q == Forall(y, Atom("=", (big, zero)))


def _iff_nest(depth, leaf, binder):
    """``iff(p, p)`` nested ``depth`` deep over ``leaf``, every third level
    under a Forall on ``binder``: a tree of more than 4 ** depth nodes, with
    a few distinct nodes per level."""
    p = leaf
    for level in range(1, depth + 1):
        p = iff(p, p)
        if level % 3 == 0:
            p = Forall(binder, p)
    return p


def _distinct_and_tree_size(obj):
    """How many distinct nodes ``obj`` has, and how many as a tree."""
    tree = {}

    def walk(node):
        if node not in tree:
            tree[node] = 1 + sum(map(walk, node.shape.children(node)))
        return tree[node]

    whole = walk(obj)
    return len(tree), whole


def _calls_at_most(monkeypatch, method, limit):
    """Count the calls of every kind's ``method`` ("rebuild" or "children"),
    failing at the first beyond ``limit``."""
    calls = [0]
    for shape in SHAPES.values():
        def counted(*args, method=getattr(shape, method)):
            calls[0] += 1
            if calls[0] > limit:
                monkeypatch.undo()  # so that the report can print nodes
                pytest.fail(f"more than {limit} calls")
            return method(*args)
        monkeypatch.setattr(shape, method, counted)
    return calls


# Each distinct node is rebuilt at most once per scope of the walk, and
# here a node lies in at most two scopes: the substitution's and, below a
# renamed binder, the renaming's.  An atom whose arguments are variables is
# rebuilt on the spot at each visit, so once per parent.  Two rebuilds per
# distinct node bound both cases; a walk over the tree makes one per
# occurrence, more than 4 ** depth.
REBUILDS_PER_DISTINCT_NODE = 2


def test_substitution_on_shared_input_is_linear_in_distinct_nodes(monkeypatch):
    depth, ground, y1 = 8, s(zero), Var("y'", S0)
    p = _iff_nest(depth, Atom("=", (x, y)), y)
    distinct, tree = _distinct_and_tree_size(p)
    assert tree > 4 ** depth and distinct < 25
    # a ground image: every binder is crossed without a capture check
    calls = _calls_at_most(monkeypatch, "rebuild", REBUILDS_PER_DISTINCT_NODE * distinct)
    assert apply_substitution(p, {x: ground}) is _iff_nest(depth, Atom("=", (ground, y)), y)
    # the image is the binders' variable: every binder is renamed to y'
    calls[0] = 0
    assert apply_substitution(p, {x: y}) is _iff_nest(depth, Atom("=", (y, y1)), y1)
    monkeypatch.undo()
    deep = _iff_nest(40, Atom("=", (x, y)), y)
    assert _distinct_and_tree_size(deep)[1] > 4 ** 40
    assert apply_substitution(deep, {x: ground}) is _iff_nest(40, Atom("=", (ground, y)), y)
    assert apply_substitution(deep, {x: y}) is _iff_nest(40, Atom("=", (y, y1)), y1)


def test_free_variables_of_shared_input_visit_each_distinct_node_once(monkeypatch):
    # every binder here binds y, so each node is met under one set of binders
    p = _iff_nest(8, Atom("=", (x, y)), y)
    distinct, _ = _distinct_and_tree_size(p)
    _calls_at_most(monkeypatch, "children", distinct)
    assert free_variables(p) == {x}


def test_free_substitutability_on_shared_input_visits_each_distinct_node_once(monkeypatch):
    # no binder catches z, so the whole proposition is searched; a node's
    # verdict does not depend on the binders above it
    p = _iff_nest(8, Atom("=", (x, y)), y)
    distinct, _ = _distinct_and_tree_size(p)
    _calls_at_most(monkeypatch, "children", distinct)
    assert freely_substitutable(z, x, p)
    monkeypatch.undo()
    deep = _iff_nest(40, Atom("=", (x, y)), y)
    assert freely_substitutable(z, x, deep) and freely_substitutable(s(zero), x, deep)
    assert not freely_substitutable(y, x, deep) and not freely_substitutable(s(y), x, deep)


def test_generated_rebuild_of_every_kind_is_its_constructor():
    swap = {x: zero, zero: y, FALSE: TRUE, P(x): P(z), P(zero): FALSE, Imp(P(y), P(x)): P(y)}  # new children
    for q in SAMPLES:
        shape = q.shape
        kids = shape.children(q)
        assert shape.rebuild(q, kids) is q and shape.rebuild(q, list(kids)) is q
        new = [swap.get(k, k) for k in kids]
        assert new != list(kids) or not kids
        # the constructor called with q's fields, the children's replaced
        fields = dict(zip(shape.names, shape.values(q)))
        for slot, part in zip(shape.slots, (tuple(new),) if shape.variadic else new):
            fields[shape.names[slot]] = part
        assert shape.rebuild(q, new) is type(q)(*fields.values())
        if shape.binder:
            assert shape.rebuild(q, new, z) is type(q)(z, *new)
            assert shape.rebuild(q, kids, q.var) is q


def test_each_node_kind_has_its_fields_and_one_cached_slot():
    # The ground bit is the one slot.  One more slot per node would grow an
    # App from 64 to 80 bytes (pymalloc rounds to 16), which raised
    # check-files' peak RSS by 5.3 %, past its 5 % bound.
    from demod.syntax import Node, Proposition

    word = struct.calcsize("P")
    assert Node.__slots__ == ("_ground",) and Proposition.__slots__ == ()
    for cls, shape in SHAPES.items():
        assert cls.__slots__ == tuple(shape.names)
        assert cls.__basicsize__ == object.__basicsize__ + word * (len(shape.names) + 1)


def test_nodes_and_sorts_hash_in_c():
    # An interned node's identity is its hash, so every node-keyed dict and
    # set hashes without entering the interpreter; a Python-level __hash__
    # would run once per lookup.
    for cls in SHAPES:
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__
    assert Sort.__hash__ is tuple.__hash__


# -- interning -----------------------------------------------------------------


def recipes():
    """Descriptions of terms and propositions as nested tuples, so that one
    can be built twice with nothing shared between the two builds."""
    names = st.sampled_from(["x", "y", "w'"])
    terms = st.recursive(
        st.one_of(names.map(lambda n: ("var", n)), st.just(("0",))),
        lambda sub: st.one_of(sub.map(lambda t: ("s", t)), st.tuples(st.just("+"), sub, sub)),
        max_leaves=5,
    )
    leaves = st.one_of(terms.map(lambda t: ("P", t)), st.tuples(st.just("="), terms, terms),
                       st.sampled_from([("false",), ("true",)]))
    props = st.recursive(
        leaves,
        lambda sub: st.one_of(st.tuples(st.sampled_from(["and", "or", "imp"]), sub, sub),
                              st.tuples(st.sampled_from(["all", "ex"]), names, sub)),
        max_leaves=6,
    )
    return st.one_of(terms, props)


def _build(recipe):
    """The node a recipe describes, each part built anew by its constructor."""
    head, *rest = recipe
    sort = Sort("arith", 0)  # equal to S0, but not the same object
    if head == "var":
        return Var("".join(rest[0]), sort)
    if head in ("0", "s", "+"):
        return App(head, tuple(map(_build, rest)), sort)
    if head in ("P", "="):
        return Atom(head, tuple(map(_build, rest)))
    if head in ("false", "true"):
        return Falsum() if head == "false" else Verum()
    if head in ("all", "ex"):
        return (Forall if head == "all" else Exists)(_build(("var", rest[0])), _build(rest[1]))
    return {"and": And, "or": Or, "imp": Imp}[head](*map(_build, rest))


@given(recipes())
@settings(max_examples=300, deadline=None)
def test_equal_nodes_built_apart_are_one_object(recipe):
    from dataclasses import fields, replace
    from demod.fileformat import dumps, loads, term_or_prop_from_sx, term_to_sx

    obj, again = _build(recipe), _build(recipe)
    assert obj is again and _recipe(obj) == recipe
    w = Var("w", S0)  # never in a recipe, so renaming x to w and back is the identity
    assert apply_substitution(apply_substitution(obj, {x: w}), {w: x}) is obj
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj)), replace(obj),
                  replace(obj, **{f.name: getattr(again, f.name) for f in fields(obj)}),
                  term_or_prop_from_sx(loads(dumps(term_to_sx(obj))), SIG)):
        assert other is obj
    for pos, part in positions(obj):
        shape = part.shape
        assert part._ground == _ref_ground(part)
        assert shape.rebuild(part, [_build_like(c) for c in shape.children(part)]) is part
        if shape.binder:
            assert shape.rebuild(part, shape.children(part), Var(part.var.name, Sort("arith", 0))) is part
        assert replace_at(again, _build_like(part), pos) is obj


def _build_like(node):
    """``node`` built anew, from a recipe read off it."""
    return _build(_recipe(node))


def _recipe(node):
    if isinstance(node, Var):
        return ("var", node.name)
    if isinstance(node, (App, Atom)):
        return (node.fn if isinstance(node, App) else node.pred, *map(_recipe, node.args))
    if isinstance(node, (Falsum, Verum)):
        return ("false",) if isinstance(node, Falsum) else ("true",)
    if isinstance(node, (Forall, Exists)):
        return ("all" if isinstance(node, Forall) else "ex", node.var.name, _recipe(node.body))
    return ({And: "and", Or: "or", Imp: "imp"}[type(node)], _recipe(node.left), _recipe(node.right))
