"""Reusable proof fragments with instance-independent lengths.

Two libraries.  The first replaces schema instances when translating the
schematic system into the finite core FZ modulo the class rewrite system: the
identity/induction schemata become single instantiations of their class-level
axioms and comprehension needs no axiom at all.  The second proves every
schema instance outright modulo the purely computational system, so that
translated proofs need no assumptions; the induction steps there fire the
self-embedding induction rule and therefore carry explicit traces.

All builders produce proof trees whose inference count does not depend on the
instantiating template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .hilbert import SCHEMATA, Template, split_schema_id
from .nd import (
    AndI,
    Assume,
    BotE,
    ExistsI,
    ForallE,
    ForallI,
    Hyp,
    ImpE,
    ImpI,
    OrI,
    Proof,
    TopI,
    conclusion_of,
)
from .rewriting import RewriteStep, Trace
from .syntax import (
    And,
    CLASS,
    Exists,
    FALSE,
    Forall,
    Imp,
    Proposition,
    Term,
    Var,
    apply_substitution,
    arith,
    fresh_name,
    free_variables,
    iff,
    neg,
)
from .theories import (
    ZERO,
    comp,
    encode_prop,
    eq,
    ind_ax,
    leibniz_ax,
    mem,
    member,
    null,
    nulldot,
    one,
    plus,
    pred_,
    s_,
    times,
    var0,
)


@dataclass(frozen=True)
class Fragment:
    name: str
    proof: Proof
    assumptions: tuple[str, ...] = ()  # axiom names the proof leans on

    @property
    def conclusion(self) -> Proposition:
        return conclusion_of(self.proof)


class _Fresh:
    """Fragment-local fresh variables and hypothesis labels."""

    def __init__(self, avoid=()):
        self.taken = {v.name for v in avoid}
        self.count = 0

    def var(self, base: str, sort) -> Var:
        name = fresh_name(base, self.taken)
        self.taken.add(name)
        return Var(name, sort)

    def label(self) -> str:
        self.count += 1
        return f"h{self.count}"


def _avoid(*objects) -> set[Var]:
    out: set[Var] = set()
    for obj in objects:
        if obj is None:
            continue
        if isinstance(obj, Template):
            out |= obj.outer_free()
        else:
            out |= free_variables(obj)
    return out


def _encode(template: Template) -> Term:
    return encode_prop(template.body, template.params).cls


# ---------------------------------------------------------------------------
# Fragments for the finite core FZ modulo the class system


def _leibniz_at(template: Template, axiom: Proof) -> Proof:
    """The leibniz instance at ``template``: ``axiom``, a proof of the
    class-level identity axiom, eliminated at the template's class."""
    fx = _Fresh(_avoid(template))
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    g = fx.var("g", CLASS)
    body = Forall(a, Forall(b, Imp(eq(a, b), Imp(member([a], g), member([b], g)))))
    stated = SCHEMATA["leibniz"].build(template, a, b)
    return ForallE(stated, var=g, body=body, term=_encode(template), sub=axiom)


def fz_leibniz(template: Template) -> Fragment:
    """One instantiation of the class-level identity axiom."""
    return Fragment("leibniz", _leibniz_at(template, Assume("leibniz-ax", leibniz_ax())), ("leibniz-ax",))


def fz_ind(template: Template) -> Fragment:
    """One instantiation of the class-level induction axiom."""
    fx = _Fresh(_avoid(template))
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    g = fx.var("g", CLASS)
    cls = _encode(template)
    body = Imp(
        member([ZERO], g),
        Imp(Forall(b, Imp(member([b], g), member([s_(b)], g))), Forall(a, member([a], g))),
    )
    stated = SCHEMATA["ind"].build(template, a, b)
    proof = ForallE(stated, var=g, body=body, term=cls, sub=Assume("ind-ax", ind_ax()))
    return Fragment("ind", proof, ("ind-ax",))


def fz_comp(j: int, template: Template) -> Fragment:
    """Comprehension needs no axiom: the witness is the comprehension term."""
    fx = _Fresh(_avoid(template))
    beta = fx.var("b", arith(j))
    alpha = fx.var("a", arith(j + 1))
    witness = comp(j + 1, _encode(template))
    at = mem(j, beta, witness)
    l1, l2 = fx.label(), fx.label()
    n1 = ImpI(Imp(at, at), hyp=at, label=l1, sub=Hyp(l1, at))
    n2 = ImpI(Imp(at, at), hyp=at, label=l2, sub=Hyp(l2, at))
    n3 = AndI(And(Imp(at, at), Imp(at, at)), n1, n2)
    n4 = ForallI(
        Forall(beta, iff(at, at)),
        var=beta,
        body=And(Imp(at, at), Imp(at, at)),
        eigen=beta,
        sub=n3,
    )
    stated = SCHEMATA["comp"].build(template, alpha, beta)
    n5 = ExistsI(stated, var=alpha, body=stated.body, term=witness, sub=n4)
    return Fragment(f"comp^{j}", n5)


# ---------------------------------------------------------------------------
# Equational combinators modulo the computational system
#
# A proof of a = b is interchangeable with its unfolding
# all z. <a> eps z > <b> eps z; eliminating it at a class D chosen as the
# encoding of a one-hole equation yields the usual replacement reasoning.


def _refl_member(t: Term, stated: Proposition, fx: _Fresh) -> Proof:
    q = fx.var("q", CLASS)
    lab = fx.label()
    at = member([t], q)
    inner = ImpI(Imp(at, at), hyp=at, label=lab, sub=Hyp(lab, at))
    return ForallI(stated, var=q, body=Imp(at, at), eigen=q, sub=inner)


def _elim_at(h: Proof, a: Term, b: Term, cls: Term, fx: _Fresh) -> Proof:
    """all z-elimination of an equality proof h (of a = b) at the class cls."""
    z = fx.var("z", CLASS)
    return ForallE(
        Imp(member([a], cls), member([b], cls)),
        var=z,
        body=Imp(member([a], z), member([b], z)),
        term=cls,
        sub=h,
    )


def _eq_elim(
    h: Proof,
    a: Term,
    b: Term,
    hole_eq: Template,
    refl_term: Term,
    stated: Proposition,
    fx: _Fresh,
) -> Proof:
    """From h : a = b conclude `stated`, reading hole_eq(b) through hole_eq(a)."""
    cls = _encode(hole_eq)
    major = _elim_at(h, a, b, cls, fx)
    minor = _refl_member(refl_term, member([a], cls), fx)
    return ImpE(stated, minor=minor, major=major)


def _eq_sym(h: Proof, a: Term, b: Term, stated: Proposition, fx: _Fresh) -> Proof:
    hole = fx.var("v", arith(0))
    return _eq_elim(h, a, b, Template((hole,), eq(hole, a)), a, stated, fx)


def _eq_trans(
    h1: Proof, h2: Proof, a: Term, b: Term, c: Term, stated: Proposition, fx: _Fresh
) -> Proof:
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(a, hole)))
    major = _elim_at(h2, b, c, cls, fx)
    return ImpE(stated, minor=h1, major=major)


def _eq_cong(
    h: Proof, a: Term, b: Term, context: Callable[[Term], Term], stated: Proposition, fx: _Fresh
) -> Proof:
    hole = fx.var("v", arith(0))
    return _eq_elim(h, a, b, Template((hole,), eq(context(a), context(hole))), context(a), stated, fx)


IND_RULE_VARS = (var0("x"), Var("p", CLASS))  # variables of the induction rewrite rule


def induction_trace(target: Term, cls: Term) -> Trace:
    x, p = IND_RULE_VARS
    return Trace((RewriteStep((), "nat-induction", ((p, cls), (x, target))),))


def _induction(
    cls: Term,
    target: Term,
    base: Proof,
    step_of: Callable[[Proof, Var], Proof],
    fx: _Fresh,
) -> Proof:
    """Conclude <target> eps cls from a base proof and a step builder.

    The step builder receives the induction hypothesis <w> eps cls as a leaf
    and the step variable w, and must prove <s(w)> eps cls.  The disjunction
    obligation fires the induction rule, so it carries its trace.
    """
    w = fx.var("w", arith(0))
    lab = fx.label()
    ih = Hyp(lab, member([w], cls))
    step_body = step_of(ih, w)
    imp_step = ImpI(
        Imp(member([w], cls), member([s_(w)], cls)),
        hyp=member([w], cls),
        label=lab,
        sub=step_body,
    )
    all_step = ForallI(
        Forall(w, Imp(member([w], cls), member([s_(w)], cls))),
        var=w,
        body=Imp(member([w], cls), member([s_(w)], cls)),
        eigen=w,
        sub=imp_step,
    )
    conj = AndI(And(conclusion_of(base), conclusion_of(all_step)), base, all_step)
    at = member([target], cls)
    return OrI(
        at,
        other=at,
        side="right",
        sub=conj,
        via=induction_trace(target, cls),
    )


# ---------------------------------------------------------------------------
# The axiom-free fragments


def hha_refl() -> Fragment:
    fx = _Fresh()
    a = fx.var("a", arith(0))
    q = fx.var("q", CLASS)
    lab = fx.label()
    at = member([a], q)
    n1 = ImpI(Imp(at, at), hyp=at, label=lab, sub=Hyp(lab, at))
    body = Forall(q, Imp(at, at))
    n2 = ForallI(body, var=q, body=Imp(at, at), eigen=q, sub=n1)
    n3 = ForallI(Forall(a, eq(a, a)), var=a, body=body, eigen=a, sub=n2)
    return Fragment("refl", n3)


def hha_leibniz_ax() -> Fragment:
    fx = _Fresh()
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    g = fx.var("g", CLASS)
    lab = fx.label()
    h = Hyp(lab, eq(a, b))
    n1 = _elim_at(h, a, b, g, fx)
    impl = Imp(member([a], g), member([b], g))
    n2 = ImpI(Imp(eq(a, b), impl), hyp=eq(a, b), label=lab, sub=n1)
    n3 = ForallI(Forall(b, n2.conclusion), var=b, body=n2.conclusion, eigen=b, sub=n2)
    n4 = ForallI(Forall(a, n3.conclusion), var=a, body=n3.conclusion, eigen=a, sub=n3)
    n5 = ForallI(Forall(g, n4.conclusion), var=g, body=n4.conclusion, eigen=g, sub=n4)
    return Fragment("leibniz-ax", n5)


def hha_leibniz(template: Template) -> Fragment:
    """A schema instance: the class-level axiom proof, then one elimination."""
    return Fragment("leibniz", _leibniz_at(template, hha_leibniz_ax().proof))


def hha_zero_ne_s() -> Fragment:
    fx = _Fresh()
    a = fx.var("a", arith(0))
    lab = fx.label()
    cls = nulldot(one(0))
    h = Hyp(lab, eq(ZERO, s_(a)))
    n1 = _elim_at(h, ZERO, s_(a), cls, fx)
    n2 = TopI(null(ZERO))
    n3 = ImpE(FALSE, minor=n2, major=n1)
    n4 = ImpI(neg(eq(ZERO, s_(a))), hyp=eq(ZERO, s_(a)), label=lab, sub=n3)
    n5 = ForallI(Forall(a, n4.conclusion), var=a, body=n4.conclusion, eigen=a, sub=n4)
    return Fragment("zero-ne-s", n5)


def hha_inj_s() -> Fragment:
    fx = _Fresh()
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    hole = fx.var("v", arith(0))
    lab = fx.label()
    cls = _encode(Template((hole,), eq(a, pred_(hole))))
    h = Hyp(lab, eq(s_(a), s_(b)))
    major = _elim_at(h, s_(a), s_(b), cls, fx)
    minor = _refl_member(a, eq(a, a), fx)
    n2 = ImpE(eq(a, b), minor=minor, major=major)
    n3 = ImpI(Imp(eq(s_(a), s_(b)), eq(a, b)), hyp=eq(s_(a), s_(b)), label=lab, sub=n2)
    n4 = ForallI(Forall(b, n3.conclusion), var=b, body=n3.conclusion, eigen=b, sub=n3)
    n5 = ForallI(Forall(a, n4.conclusion), var=a, body=n4.conclusion, eigen=a, sub=n4)
    return Fragment("inj-s", n5)


def hha_onto_s() -> Fragment:
    fx = _Fresh()
    a, b, y = fx.var("a", arith(0)), fx.var("b", arith(0)), fx.var("y", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), Imp(neg(eq(hole, ZERO)), Exists(b, eq(hole, s_(b))))))

    # base: <0> eps cls, i.e. (not 0 = 0) > ex b. 0 = s(b)
    li = fx.label()
    zero_eq = _refl_member(ZERO, eq(ZERO, ZERO), fx)
    h_ne = Hyp(li, neg(eq(ZERO, ZERO)))
    n3 = ImpE(FALSE, minor=zero_eq, major=h_ne)
    n4 = BotE(Exists(b, eq(ZERO, s_(b))), sub=n3)
    n5 = ImpI(member([ZERO], cls), hyp=neg(eq(ZERO, ZERO)), label=li, sub=n4)

    # step: <s(y)> eps cls, vacuously discharging both antecedents
    m2 = _refl_member(s_(y), eq(s_(y), s_(y)), fx)
    m3 = ExistsI(
        Exists(b, eq(s_(y), s_(b))), var=b, body=eq(s_(y), s_(b)), term=y, sub=m2
    )
    m4 = ImpI(member([s_(y)], cls), hyp=neg(eq(s_(y), ZERO)), label=fx.label(), sub=m3)
    m5 = ImpI(
        Imp(member([y], cls), member([s_(y)], cls)),
        hyp=member([y], cls),
        label=fx.label(),
        sub=m4,
    )
    m6 = ForallI(
        Forall(y, Imp(member([y], cls), member([s_(y)], cls))),
        var=y,
        body=Imp(member([y], cls), member([s_(y)], cls)),
        eigen=y,
        sub=m5,
    )

    c1 = AndI(And(conclusion_of(n5), conclusion_of(m6)), n5, m6)
    at = member([a], cls)
    c2 = OrI(at, other=at, side="right", sub=c1, via=induction_trace(a, cls))
    stated = SCHEMATA["onto-s"].build()
    c3 = ForallI(stated, var=a, body=at, eigen=a, sub=c2)
    return Fragment("onto-s", c3)


def hha_plus_zero() -> Fragment:
    fx = _Fresh()
    a = fx.var("a", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(plus(hole, ZERO), hole)))

    base = _refl_member(ZERO, member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        hole2 = fx.var("v", arith(0))
        goal = member([s_(w)], cls)
        return _eq_elim(
            ih,
            plus(w, ZERO),
            w,
            Template((hole2,), eq(s_(plus(w, ZERO)), s_(hole2))),
            s_(plus(w, ZERO)),
            goal,
            fx,
        )

    body = _induction(cls, a, base, step, fx)
    stated = SCHEMATA["plus-zero"].build()
    proof = ForallI(stated, var=a, body=member([a], cls), eigen=a, sub=body)
    return Fragment("plus-zero", proof)


def hha_plus_s() -> Fragment:
    fx = _Fresh()
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(plus(hole, s_(b)), s_(plus(hole, b)))))

    base = _refl_member(s_(b), member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        hole2 = fx.var("v", arith(0))
        return _eq_elim(
            ih,
            plus(w, s_(b)),
            s_(plus(w, b)),
            Template((hole2,), eq(s_(plus(w, s_(b))), s_(hole2))),
            s_(plus(w, s_(b))),
            member([s_(w)], cls),
            fx,
        )

    body = _induction(cls, a, base, step, fx)
    stated = SCHEMATA["plus-s"].build()
    inner = ForallI(stated.body, var=b, body=member([a], cls), eigen=b, sub=body)
    proof = ForallI(stated, var=a, body=stated.body, eigen=a, sub=inner)
    return Fragment("plus-s", proof)


def hha_times_zero() -> Fragment:
    fx = _Fresh()
    a = fx.var("a", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(times(hole, ZERO), ZERO)))

    base = _refl_member(ZERO, member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        hole2 = fx.var("v", arith(0))
        return _eq_elim(
            ih,
            times(w, ZERO),
            ZERO,
            Template((hole2,), eq(plus(times(w, ZERO), ZERO), plus(hole2, ZERO))),
            plus(times(w, ZERO), ZERO),
            member([s_(w)], cls),
            fx,
        )

    body = _induction(cls, a, base, step, fx)
    stated = SCHEMATA["times-zero"].build()
    proof = ForallI(stated, var=a, body=member([a], cls), eigen=a, sub=body)
    return Fragment("times-zero", proof)


def _plus_assoc(fx: _Fresh) -> Proof:
    """all a b c. (a+b)+c = a+(b+c), by induction on the first summand."""
    a, b, c = fx.var("a", arith(0)), fx.var("b", arith(0)), fx.var("c", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(plus(plus(hole, b), c), plus(hole, plus(b, c)))))

    base = _refl_member(plus(b, c), member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        hole2 = fx.var("v", arith(0))
        return _eq_elim(
            ih,
            plus(plus(w, b), c),
            plus(w, plus(b, c)),
            Template((hole2,), eq(s_(plus(plus(w, b), c)), s_(hole2))),
            s_(plus(plus(w, b), c)),
            member([s_(w)], cls),
            fx,
        )

    body = _induction(cls, a, base, step, fx)
    q1 = ForallI(
        Forall(c, eq(plus(plus(a, b), c), plus(a, plus(b, c)))),
        var=c,
        body=member([a], cls),
        eigen=c,
        sub=body,
    )
    q2 = ForallI(Forall(b, q1.conclusion), var=b, body=q1.conclusion, eigen=b, sub=q1)
    return ForallI(Forall(a, q2.conclusion), var=a, body=q2.conclusion, eigen=a, sub=q2)


def _forall_elims(h: Proof, instances: list[Term], fx: _Fresh) -> Proof:
    """Chain universal eliminations along the conclusion's outer quantifiers."""
    cur = h
    for t in instances:
        shape = conclusion_of(cur)
        assert isinstance(shape, Forall), "universal elimination on a non-universal"
        cur = ForallE(
            apply_substitution(shape.body, {shape.var: t}),
            var=shape.var,
            body=shape.body,
            term=t,
            sub=cur,
        )
    return cur


def _plus_comm(fx: _Fresh) -> Proof:
    """all a b. a+b = b+a; leans on plus-zero and plus-s."""
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(plus(hole, b), plus(b, hole))))

    # base: b+0 = b gives 0+b = b+0 by symmetry
    pz = _forall_elims(hha_plus_zero().proof, [b], fx)
    base = _eq_sym(pz, plus(b, ZERO), b, member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        # s(w+b) = s(b+w) = b+s(w)
        j1 = _eq_cong(ih, plus(w, b), plus(b, w), s_, eq(s_(plus(w, b)), s_(plus(b, w))), fx)
        j2 = _forall_elims(hha_plus_s().proof, [b, w], fx)
        j3 = _eq_sym(j2, plus(b, s_(w)), s_(plus(b, w)), eq(s_(plus(b, w)), plus(b, s_(w))), fx)
        return _eq_trans(
            j1,
            j3,
            s_(plus(w, b)),
            s_(plus(b, w)),
            plus(b, s_(w)),
            member([s_(w)], cls),
            fx,
        )

    body = _induction(cls, a, base, step, fx)
    q1 = ForallI(
        Forall(b, eq(plus(a, b), plus(b, a))), var=b, body=member([a], cls), eigen=b, sub=body
    )
    return ForallI(Forall(a, q1.conclusion), var=a, body=q1.conclusion, eigen=a, sub=q1)


def _plus_swap(fx: _Fresh) -> Proof:
    """all x y z. (x+y)+z = (x+z)+y, from associativity and commutativity."""
    x, y, z = fx.var("x", arith(0)), fx.var("y", arith(0)), fx.var("z", arith(0))
    a1 = _forall_elims(_plus_assoc(fx), [x, y, z], fx)  # (x+y)+z = x+(y+z)
    a2 = _forall_elims(_plus_comm(fx), [y, z], fx)  # y+z = z+y
    a3 = _eq_cong(
        a2, plus(y, z), plus(z, y), lambda t: plus(x, t), eq(plus(x, plus(y, z)), plus(x, plus(z, y))), fx
    )
    a4 = _forall_elims(_plus_assoc(fx), [x, z, y], fx)  # (x+z)+y = x+(z+y)
    a5 = _eq_sym(a4, plus(plus(x, z), y), plus(x, plus(z, y)), eq(plus(x, plus(z, y)), plus(plus(x, z), y)), fx)
    a6 = _eq_trans(
        a1, a3, plus(plus(x, y), z), plus(x, plus(y, z)), plus(x, plus(z, y)),
        eq(plus(plus(x, y), z), plus(x, plus(z, y))), fx,
    )
    a7 = _eq_trans(
        a6, a5, plus(plus(x, y), z), plus(x, plus(z, y)), plus(plus(x, z), y),
        eq(plus(plus(x, y), z), plus(plus(x, z), y)), fx,
    )
    q1 = ForallI(Forall(z, conclusion_of(a7)), var=z, body=conclusion_of(a7), eigen=z, sub=a7)
    q2 = ForallI(Forall(y, q1.conclusion), var=y, body=q1.conclusion, eigen=y, sub=q1)
    return ForallI(Forall(x, q2.conclusion), var=x, body=q2.conclusion, eigen=x, sub=q2)


def hha_times_s() -> Fragment:
    fx = _Fresh()
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    hole = fx.var("v", arith(0))
    cls = _encode(Template((hole,), eq(times(hole, s_(b)), plus(times(hole, b), hole))))

    base = _refl_member(ZERO, member([ZERO], cls), fx)

    def step(ih: Proof, w: Var) -> Proof:
        wb = times(w, b)
        t1 = plus(times(w, s_(b)), s_(b))
        c1 = _eq_cong(
            ih,
            times(w, s_(b)),
            plus(wb, w),
            lambda t: plus(t, s_(b)),
            eq(t1, plus(plus(wb, w), s_(b))),
            fx,
        )
        c2 = _forall_elims(hha_plus_s().proof, [plus(wb, w), b], fx)
        d = _forall_elims(_plus_swap(fx), [wb, w, b], fx)
        c3 = _eq_cong(
            d,
            plus(plus(wb, w), b),
            plus(plus(wb, b), w),
            s_,
            eq(s_(plus(plus(wb, w), b)), s_(plus(plus(wb, b), w))),
            fx,
        )
        c4 = _forall_elims(hha_plus_s().proof, [plus(wb, b), w], fx)
        c5 = _eq_sym(
            c4,
            plus(plus(wb, b), s_(w)),
            s_(plus(plus(wb, b), w)),
            eq(s_(plus(plus(wb, b), w)), plus(plus(wb, b), s_(w))),
            fx,
        )
        e1 = _eq_trans(
            c1, c2, t1, plus(plus(wb, w), s_(b)), s_(plus(plus(wb, w), b)),
            eq(t1, s_(plus(plus(wb, w), b))), fx,
        )
        e2 = _eq_trans(
            e1, c3, t1, s_(plus(plus(wb, w), b)), s_(plus(plus(wb, b), w)),
            eq(t1, s_(plus(plus(wb, b), w))), fx,
        )
        return _eq_trans(
            e2, c5, t1, s_(plus(plus(wb, b), w)), plus(plus(wb, b), s_(w)),
            member([s_(w)], cls), fx,
        )

    body = _induction(cls, a, base, step, fx)
    stated = SCHEMATA["times-s"].build()
    inner = ForallI(stated.body, var=b, body=member([a], cls), eigen=b, sub=body)
    proof = ForallI(stated, var=a, body=stated.body, eigen=a, sub=inner)
    return Fragment("times-s", proof)


def hha_ind(template: Template) -> Fragment:
    fx = _Fresh(_avoid(template))
    a, b = fx.var("a", arith(0)), fx.var("b", arith(0))
    cls = _encode(template)
    l0, ls = fx.label(), fx.label()
    stated = SCHEMATA["ind"].build(template, a, b)  # base > (step > all a. A(a))
    step = stated.right
    n1 = AndI(
        And(member([ZERO], cls), Forall(b, Imp(member([b], cls), member([s_(b)], cls)))),
        Hyp(l0, stated.left),
        Hyp(ls, step.left),
    )
    at = member([a], cls)
    n2 = OrI(at, other=at, side="right", sub=n1, via=induction_trace(a, cls))
    n3 = ForallI(step.right, var=a, body=at, eigen=a, sub=n2)
    n4 = ImpI(step, hyp=step.left, label=ls, sub=n3)
    n5 = ImpI(stated, hyp=stated.left, label=l0, sub=n4)
    return Fragment("ind", n5)


def hha_comp(j: int, template: Template) -> Fragment:
    fx = _Fresh(_avoid(template))
    beta = fx.var("b", arith(j))
    alpha = fx.var("a", arith(j + 1))
    cls = _encode(template)
    witness = comp(j + 1, cls)
    at = mem(j, beta, witness)
    decoded = member([beta], cls)
    l1, l2 = fx.label(), fx.label()
    n1 = ImpI(Imp(at, decoded), hyp=at, label=l1, sub=Hyp(l1, at))
    n2 = ImpI(Imp(decoded, at), hyp=decoded, label=l2, sub=Hyp(l2, decoded))
    n3 = AndI(And(Imp(at, decoded), Imp(decoded, at)), n1, n2)
    n4 = ForallI(
        Forall(beta, iff(at, template.apply([beta]))),
        var=beta,
        body=And(Imp(at, decoded), Imp(decoded, at)),
        eigen=beta,
        sub=n3,
    )
    stated = SCHEMATA["comp"].build(template, alpha, beta)
    n5 = ExistsI(stated, var=alpha, body=stated.body, term=witness, sub=n4)
    return Fragment(f"comp^{j}", n5)


# ---------------------------------------------------------------------------
# Library access


DEFAULT_TEMPLATE = Template((var0("hole"),), eq(var0("hole"), ZERO))


HHA_FIXED: Mapping[str, Callable[[], Fragment]] = {
    "refl": hha_refl,
    "leibniz-ax": hha_leibniz_ax,
    "zero-ne-s": hha_zero_ne_s,
    "inj-s": hha_inj_s,
    "onto-s": hha_onto_s,
    "plus-zero": hha_plus_zero,
    "plus-s": hha_plus_s,
    "times-zero": hha_times_zero,
    "times-s": hha_times_s,
}

# each library maps a schema family to the builder of its fragment at a level
# and a template
_FZ_BY_FAMILY: Mapping[str, Callable[[int, Template], Fragment]] = {
    "leibniz": lambda j, template: fz_leibniz(template),
    "ind": lambda j, template: fz_ind(template),
    "comp": fz_comp,
}
_HHA_BY_FAMILY: Mapping[str, Callable[[int, Template], Fragment]] = {
    "leibniz": lambda j, template: hha_leibniz(template),
    "ind": lambda j, template: hha_ind(template),
    "comp": hha_comp,
}


def _fragment(library: Mapping[str, Callable[[int, Template], Fragment]], label: str, name: str,
              template: Optional[Template]) -> Fragment:
    try:
        family, j = split_schema_id(name)
    except ValueError:  # a level that is not a number as sorts are written
        family = None
    if family not in library:
        raise KeyError(f"no {label} fragment named {name!r}")
    return library[family](j, template or DEFAULT_TEMPLATE)


def fz_fragment(name: str, template: Optional[Template] = None) -> Fragment:
    return _fragment(_FZ_BY_FAMILY, "FZ", name, template)


def hha_fragment(name: str, template: Optional[Template] = None) -> Fragment:
    if name in HHA_FIXED:
        return HHA_FIXED[name]()
    return _fragment(_HHA_BY_FAMILY, "HHA", name, template)


FZ_LIBRARY = ("leibniz", "ind", "comp^0")
HHA_LIBRARY = (*HHA_FIXED, *FZ_LIBRARY)
