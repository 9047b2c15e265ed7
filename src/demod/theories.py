"""Builders for the arithmetic theories and their rewrite presentations.

Naming scheme for the class-encoding symbols (ASCII forms of the usual
notation): ``1^j``/``S^j`` are the per-sort index and shift constructors,
``sub^j`` is explicit substitution ``.[.]^j``, ``cons^j``/``nil`` build
argument lists, ``eqdot``/``memdot^j`` are the class-level equality and
membership constructors, ``union``/``inter``/``impdot``/``empty`` the
propositional ones, ``pow^j``/``cls^j`` the quantifier ones, ``comp^j`` the
comprehension witness, and ``eps`` the decoding membership predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

from .rewriting import Rule, RewriteSystem
from .syntax import (
    And,
    App,
    Atom,
    CLASS,
    FALSE,
    Falsum,
    Forall,
    FunDecl,
    Imp,
    LIST,
    Or,
    PredDecl,
    Proposition,
    Signature,
    SortError,
    TRUE,
    Term,
    Var,
    Verum,
    Exists,
    arith,
    forall,
    iff,
    neg,
    positions,
    sort_of,
)


@dataclass(frozen=True)
class OrderConfig:
    """Order parameter: ``i`` as in the systems HO_i and HHA^mod_i."""

    i: int = 1

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("order parameter must be at least 1")


@dataclass(frozen=True)
class Presentation:
    name: str
    axioms: tuple[tuple[str, Proposition], ...]

    def as_dict(self) -> Mapping[str, Proposition]:
        return dict(self.axioms)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.axioms)

    def __add__(self, other: "Presentation") -> "Presentation":
        return Presentation(f"{self.name}+{other.name}", self.axioms + other.axioms)


# ---------------------------------------------------------------------------
# Signatures


def base_signature(top: int) -> Signature:
    """Arithmetic over sorts 0..top: 0, s, +, *, =, and in^j : [j; j+1]."""
    sorts = tuple(arith(j) for j in range(top + 1))
    funs = (
        FunDecl("0", (), arith(0)),
        FunDecl("s", (arith(0),), arith(0)),
        FunDecl("+", (arith(0), arith(0)), arith(0)),
        FunDecl("*", (arith(0), arith(0)), arith(0)),
    )
    preds = (PredDecl("=", (arith(0), arith(0))),) + tuple(
        PredDecl(f"in^{j}", (arith(j), arith(j + 1))) for j in range(top)
    )
    return Signature(sorts, funs, preds)


def classes_signature(top: int, arith_extras: bool = False) -> Signature:
    """Base signature plus the list/class sorts and the encoding symbols."""
    sig = base_signature(top)
    funs: list[FunDecl] = []
    for j in range(top + 1):
        sj = arith(j)
        funs += [
            FunDecl(f"1^{j}", (), sj),
            FunDecl(f"S^{j}", (sj,), sj),
            FunDecl(f"sub^{j}", (sj, LIST), sj),
            FunDecl(f"cons^{j}", (sj, LIST), LIST),
            FunDecl(f"pow^{j}", (CLASS,), CLASS),
            FunDecl(f"cls^{j}", (CLASS,), CLASS),
        ]
    funs += [
        FunDecl("nil", (), LIST),
        FunDecl("eqdot", (arith(0), arith(0)), CLASS),
        FunDecl("union", (CLASS, CLASS), CLASS),
        FunDecl("inter", (CLASS, CLASS), CLASS),
        FunDecl("impdot", (CLASS, CLASS), CLASS),
        FunDecl("empty", (), CLASS),
    ]
    funs += [FunDecl(f"memdot^{j}", (arith(j), arith(j + 1)), CLASS) for j in range(top)]
    funs += [FunDecl(f"comp^{j + 1}", (CLASS,), arith(j + 1)) for j in range(top)]
    if arith_extras:
        funs += [FunDecl("pred", (arith(0),), arith(0)), FunDecl("nulldot", (arith(0),), CLASS)]
    preds: list[PredDecl] = [PredDecl("eps", (LIST, CLASS))]
    # the substitution axioms state equations at every sort; sort 0 reuses =
    preds += [PredDecl(f"=^{j}", (arith(j), arith(j))) for j in range(1, top + 1)]
    if arith_extras:
        preds.append(PredDecl("Null", (arith(0),)))
    return sig.extend(sorts=(LIST, CLASS), funs=tuple(funs), preds=tuple(preds))


def build_zi_signature(cfg: OrderConfig) -> Signature:
    """The signature of the order-``i`` schematic system (sorts 0..i-1)."""
    return base_signature(cfg.i - 1)


def build_classes_extension(cfg: OrderConfig, arith_extras: bool = False) -> Signature:
    """The class-encoding signature paired with HO_i (sorts 0..i, list, class)."""
    return classes_signature(cfg.i, arith_extras)


# ---------------------------------------------------------------------------
# Term helpers


def var0(name: str) -> Var:
    return Var(name, arith(0))


def numeral(n: int) -> Term:
    t: Term = App("0", (), arith(0))
    for _ in range(n):
        t = App("s", (t,), arith(0))
    return t


ZERO = numeral(0)


def s_(t: Term) -> Term:
    return App("s", (t,), arith(0))


def plus(a: Term, b: Term) -> Term:
    return App("+", (a, b), arith(0))


def times(a: Term, b: Term) -> Term:
    return App("*", (a, b), arith(0))


def eq(a: Term, b: Term) -> Atom:
    return Atom("=", (a, b))


def mem(j: int, a: Term, b: Term) -> Atom:
    return Atom(f"in^{j}", (a, b))


def one(j: int) -> Term:
    return App(f"1^{j}", (), arith(j))


def shift(t: Term) -> Term:
    j = t.sort.level
    return App(f"S^{j}", (t,), t.sort)


def sub(t: Term, l: Term) -> Term:
    j = t.sort.level
    return App(f"sub^{j}", (t, l), t.sort)


def cons(t: Term, l: Term) -> Term:
    return App(f"cons^{t.sort.level}", (t, l), LIST)


NIL = App("nil", (), LIST)


def arg_list(terms: Sequence[Term]) -> Term:
    out = NIL
    for t in reversed(tuple(terms)):
        out = cons(t, out)
    return out


def eps(l: Term, c: Term) -> Atom:
    return Atom("eps", (l, c))


def member(terms: Sequence[Term], c: Term) -> Atom:
    """The decoded membership <t1,...,tn> eps c."""
    return eps(arg_list(terms), c)


def eqdot(a: Term, b: Term) -> Term:
    return App("eqdot", (a, b), CLASS)


def memdot(j: int, a: Term, b: Term) -> Term:
    return App(f"memdot^{j}", (a, b), CLASS)


def union(a: Term, b: Term) -> Term:
    return App("union", (a, b), CLASS)


def inter(a: Term, b: Term) -> Term:
    return App("inter", (a, b), CLASS)


def impdot(a: Term, b: Term) -> Term:
    return App("impdot", (a, b), CLASS)


EMPTY = App("empty", (), CLASS)


def pow_(j: int, a: Term) -> Term:
    return App(f"pow^{j}", (a,), CLASS)


def cls_(j: int, a: Term) -> Term:
    return App(f"cls^{j}", (a,), CLASS)


def comp(j: int, a: Term) -> Term:
    """comp^j : [class] -> j, the skolemized comprehension witness."""
    return App(f"comp^{j}", (a,), arith(j))


def pred_(t: Term) -> Term:
    return App("pred", (t,), arith(0))


def nulldot(t: Term) -> Term:
    return App("nulldot", (t,), CLASS)


def null(t: Term) -> Atom:
    return Atom("Null", (t,))


# ---------------------------------------------------------------------------
# The Add system (the simple speed-up example)


def add_signature() -> Signature:
    return Signature(
        sorts=(arith(0),),
        fun_decls=(FunDecl("0", (), arith(0)), FunDecl("s", (arith(0),), arith(0))),
        pred_decls=(PredDecl("Add", (arith(0), arith(0), arith(0))),),
    )


def add_atom(a: Term, b: Term, c: Term) -> Atom:
    return Atom("Add", (a, b, c))


@cache  # one system: its rules, shape index and normal forms shared by every caller
def add_system() -> RewriteSystem:
    x, y, z = var0("x"), var0("y"), var0("z")
    rules = (
        Rule("add-base", add_atom(ZERO, y, y), TRUE),
        Rule("add-step", add_atom(s_(x), y, s_(z)), add_atom(x, y, z)),
    )
    return RewriteSystem("Add", rules, terminating=True, confluent=True)


def add_compatible_axioms() -> Presentation:
    return oriented_presentation(
        "Add-axioms", add_system(), {"add-base": "add-base-ax", "add-step": "add-step-ax"}
    )


# ---------------------------------------------------------------------------
# HO_i, WS_i and HHA^mod_i


def _ws_rules(top: int) -> list[Rule]:
    l = Var("l", LIST)
    a_c, b_c = Var("a", CLASS), Var("b", CLASS)
    rules: list[Rule] = []
    for j in range(top + 1):
        t = Var("t", arith(j))
        rules.append(Rule(f"sub-nil^{j}", sub(t, NIL), t))
    for j in range(top + 1):
        t = Var("t", arith(j))
        rules.append(Rule(f"sub-one^{j}", sub(one(j), cons(t, l)), t))
    for j in range(top + 1):
        n = Var("n", arith(j))
        for k in range(top + 1):
            t = Var("t", arith(k))
            rules.append(Rule(f"sub-shift^{j}.{k}", sub(shift(n), cons(t, l)), sub(n, l)))
    n0, m0 = var0("n"), var0("m")
    rules.append(Rule("sub-s", sub(s_(n0), l), s_(sub(n0, l))))
    rules.append(Rule("sub-plus", sub(plus(n0, m0), l), plus(sub(n0, l), sub(m0, l))))
    rules.append(Rule("sub-times", sub(times(n0, m0), l), times(sub(n0, l), sub(m0, l))))
    rules.append(Rule("eps-eq", eps(l, eqdot(n0, m0)), eq(sub(n0, l), sub(m0, l))))
    for j in range(top):
        tj, tj1 = Var("t", arith(j)), Var("u", arith(j + 1))
        rules.append(
            Rule(f"eps-mem^{j}", eps(l, memdot(j, tj, tj1)), mem(j, sub(tj, l), sub(tj1, l)))
        )
    rules.append(Rule("eps-union", eps(l, union(a_c, b_c)), Or(eps(l, a_c), eps(l, b_c))))
    rules.append(Rule("eps-inter", eps(l, inter(a_c, b_c)), And(eps(l, a_c), eps(l, b_c))))
    rules.append(Rule("eps-imp", eps(l, impdot(a_c, b_c)), Imp(eps(l, a_c), eps(l, b_c))))
    rules.append(Rule("eps-empty", eps(l, EMPTY), FALSE))
    for j in range(top + 1):
        x = Var("x", arith(j))
        rules.append(Rule(f"eps-pow^{j}", eps(l, pow_(j, a_c)), Exists(x, eps(cons(x, l), a_c))))
        rules.append(Rule(f"eps-all^{j}", eps(l, cls_(j, a_c)), Forall(x, eps(cons(x, l), a_c))))
    return rules


def _comp_rules(top: int) -> list[Rule]:
    a_c = Var("a", CLASS)
    out = []
    for j in range(top):
        x = Var("x", arith(j))
        out.append(Rule(f"comp-unfold^{j}", mem(j, x, comp(j + 1, a_c)), eps(cons(x, NIL), a_c)))
    return out


@cache  # one system per order: its rules compile once, whoever asks for it
def build_WS(cfg: OrderConfig) -> RewriteSystem:
    """HO_i without the comprehension rule: weak substitution only."""
    return RewriteSystem("WS", tuple(_ws_rules(cfg.i)), terminating=True, confluent=True)


@cache
def build_HO(cfg: OrderConfig) -> RewriteSystem:
    rules = tuple(_ws_rules(cfg.i) + _comp_rules(cfg.i))
    return RewriteSystem("HO", rules, terminating=True, confluent=True)


def _hha_arith_rules() -> list[Rule]:
    x, y = var0("x"), var0("y")
    return [
        Rule("pred-zero", pred_(ZERO), ZERO),
        Rule("pred-s", pred_(s_(x)), x),
        Rule("plus-zero", plus(ZERO, y), y),
        Rule("plus-s", plus(s_(x), y), s_(plus(x, y))),
        # zero times anything is zero; the recursion is on the first argument
        Rule("times-zero", times(ZERO, y), ZERO),
        Rule("times-s", times(s_(x), y), plus(times(x, y), y)),
        Rule("null-zero", null(ZERO), TRUE),
        Rule("null-s", null(s_(x)), FALSE),
    ]


def induction_unfolding(x: Term, p: Term) -> Proposition:
    """<x> eps p  or  (<0> eps p  and  all y. <y> eps p > <s(y)> eps p)."""
    y = var0("y")
    return Or(
        member([x], p),
        And(
            member([ZERO], p),
            Forall(y, Imp(member([y], p), member([s_(y)], p))),
        ),
    )


def _hha_schema_rules() -> list[Rule]:
    x, y = var0("x"), var0("y")
    z = Var("z", CLASS)
    p = Var("p", CLASS)
    eq_def_rhs = Forall(z, Imp(member([x], z), member([y], z)))
    return [
        Rule("eq-unfold", eq(x, y), eq_def_rhs),
        Rule("nat-induction", member([x], p), induction_unfolding(x, p)),
    ]


def _hha_subst_rules() -> list[Rule]:
    l = Var("l", LIST)
    n, t = var0("n"), var0("t")
    return [
        Rule("pred-sub", sub(pred_(n), l), pred_(sub(n, l))),
        Rule("eps-null", eps(l, nulldot(t)), null(sub(t, l))),
    ]


@cache
def build_HHA(cfg: OrderConfig) -> RewriteSystem:
    """The axiom-free presentation of order-i Heyting arithmetic.

    Not terminating: the induction rule embeds its own left side.  Automatic
    congruence checks fall back to the system without that rule, which is
    terminating; obligations that need the induction rule carry traces.
    """
    rules = tuple(
        _hha_arith_rules() + _hha_schema_rules() + _ws_rules(cfg.i) + _comp_rules(cfg.i) + _hha_subst_rules()
    )
    stable = tuple(r for r in rules if r.name != "nat-induction")
    fallback = RewriteSystem("HHA-mod-noind", stable, terminating=True, confluent=False)
    return RewriteSystem(
        "HHA-mod", rules, terminating=False, confluent=False, auto_fallback=fallback
    )


def hha_signature(cfg: OrderConfig) -> Signature:
    return build_classes_extension(cfg, arith_extras=True)


# ---------------------------------------------------------------------------
# The class encoder E


class EncodingError(Exception):
    """The encoder met a construct outside the arithmetic language."""


@dataclass(frozen=True)
class EncodedClass:
    cls: Term
    source: Proposition
    alphas: tuple[Var, ...]


def encode_term(t: Term, alphas: Sequence[Var]) -> Term:
    """The term encoder ||t||^alphas: 1/S index chains into the argument list."""
    alphas = tuple(alphas)
    if isinstance(t, Var):
        if not alphas:
            return t
        if t == alphas[0]:
            return one(t.sort.level)
        return shift(encode_term(t, alphas[1:]))
    if t.fn == "0":
        if not alphas:
            return t
        return App("S^0", (encode_term(t, alphas[1:]),), arith(0))
    if t.fn in ("s", "pred"):
        return App(t.fn, (encode_term(t.args[0], alphas),), t.sort)
    if t.fn in ("+", "*"):
        return App(t.fn, tuple(encode_term(a, alphas) for a in t.args), t.sort)
    raise EncodingError(f"term {t} is outside the arithmetic language")


def encode_prop(p: Proposition, alphas: Sequence[Var]) -> EncodedClass:
    return EncodedClass(_encode(p, tuple(alphas)), p, tuple(alphas))


def _encode(p: Proposition, alphas: tuple[Var, ...]) -> Term:
    if isinstance(p, Atom):
        if p.pred == "=":
            return eqdot(encode_term(p.args[0], alphas), encode_term(p.args[1], alphas))
        if p.pred.startswith("in^"):
            j = int(p.pred[3:])
            return memdot(j, encode_term(p.args[0], alphas), encode_term(p.args[1], alphas))
        if p.pred == "Null":
            return nulldot(encode_term(p.args[0], alphas))
        raise EncodingError(f"atom {p} is outside the arithmetic language")
    if isinstance(p, Falsum):
        return EMPTY
    if isinstance(p, Verum):
        # no clause in the recursive definition; empty > empty decodes to a
        # provable and congruence-stable proposition
        return impdot(EMPTY, EMPTY)
    if isinstance(p, Imp):
        return impdot(_encode(p.left, alphas), _encode(p.right, alphas))
    if isinstance(p, And):
        return inter(_encode(p.left, alphas), _encode(p.right, alphas))
    if isinstance(p, Or):
        return union(_encode(p.left, alphas), _encode(p.right, alphas))
    if isinstance(p, Forall):
        if p.var in alphas:
            raise EncodingError(f"binder {p.var} shadows an abstracted variable")
        return cls_(p.var.sort.level, _encode(p.body, (p.var,) + alphas))
    if isinstance(p, Exists):
        if p.var in alphas:
            raise EncodingError(f"binder {p.var} shadows an abstracted variable")
        return pow_(p.var.sort.level, _encode(p.body, (p.var,) + alphas))
    raise EncodingError(f"{p!r} is not a proposition of the arithmetic language")


# ---------------------------------------------------------------------------
# Axiom presentations


def robinson_axioms() -> tuple[tuple[str, Proposition], ...]:
    a, b = var0("a"), var0("b")
    return (
        ("zero-ne-s", Forall(a, neg(eq(ZERO, s_(a))))),
        ("inj-s", forall((a, b), Imp(eq(s_(a), s_(b)), eq(a, b)))),
        ("onto-s", Forall(a, Imp(neg(eq(a, ZERO)), Exists(b, eq(a, s_(b)))))),
        ("plus-zero", Forall(a, eq(plus(a, ZERO), a))),
        ("plus-s", forall((a, b), eq(plus(a, s_(b)), s_(plus(a, b))))),
        ("times-zero", Forall(a, eq(times(a, ZERO), ZERO))),
        ("times-s", forall((a, b), eq(times(a, s_(b)), plus(times(a, b), a)))),
    )


def refl_axiom() -> Proposition:
    a = var0("a")
    return Forall(a, eq(a, a))


def leibniz_ax() -> Proposition:
    g = Var("g", CLASS)
    a, b = var0("a"), var0("b")
    return Forall(g, forall((a, b), Imp(eq(a, b), Imp(member([a], g), member([b], g)))))


def ind_ax() -> Proposition:
    g = Var("g", CLASS)
    a, b = var0("a"), var0("b")
    return Forall(
        g,
        Imp(
            member([ZERO], g),
            Imp(
                Forall(b, Imp(member([b], g), member([s_(b)], g))),
                Forall(a, member([a], g)),
            ),
        ),
    )


@cache  # a constant: every translation into FZ reads it
def fz_axioms() -> Presentation:
    return Presentation(
        "FZ",
        (("refl", refl_axiom()),)
        + robinson_axioms()
        + (("leibniz-ax", leibniz_ax()), ("ind-ax", ind_ax())),
    )


# WS axiom names: the first matching prefix of the rule name is replaced
_WS_AXIOM_PREFIXES = (("sub-", "ws-"), ("eps-union", "ws-or"), ("eps-inter", "ws-and"),
                      ("eps-empty", "ws-bot"), ("eps-pow", "ws-ex"), ("eps-", "ws-"))


def _ws_axiom_name(rule: str) -> str:
    old, new = next((old, new) for old, new in _WS_AXIOM_PREFIXES if rule.startswith(old))
    return new + rule[len(old):]


def ws_axioms(cfg: OrderConfig) -> Presentation:
    """The weak-substitution axioms: one oriented axiom per WS rule."""
    ws = build_WS(cfg)
    return oriented_presentation("WS-axioms", ws, {r.name: _ws_axiom_name(r.name) for r in ws.rules})


def eq_at(a: Term, b: Term) -> Proposition:
    if sort_of(a) != sort_of(b):
        raise SortError(f"cannot equate {a} and {b}")
    if sort_of(a) == arith(0):
        return eq(a, b)
    return Atom(f"=^{sort_of(a).level}", (a, b))


# variables close an oriented axiom in this order of sort kinds
_SORT_KIND_ORDER = {"arith": 0, "class": 1, "list": 2}


def oriented_presentation(name: str, system: RewriteSystem, names: Mapping[str, str]) -> Presentation:
    """The axioms compatible with ``system``'s rules, one per entry of ``names``
    (rule name to axiom name), in the order of ``names``.

    A term rule ``l -> r`` gives ``l = r``; a proposition rule gives ``l`` when
    ``r`` is true, ``not l`` when ``r`` is false and ``l <=> r`` otherwise.  Each
    axiom is closed under the variables of ``l`` in order of first occurrence,
    stably sorted by sort kind: arithmetic, then class, then list.
    """
    axioms = []
    for rule_name, axiom_name in names.items():
        rule = system.rule(rule_name)
        if rule.is_term_rule:
            body = eq_at(rule.lhs, rule.rhs)
        elif isinstance(rule.rhs, Verum):
            body = rule.lhs
        elif isinstance(rule.rhs, Falsum):
            body = neg(rule.lhs)
        else:
            body = iff(rule.lhs, rule.rhs)
        variables = dict.fromkeys(x for _, x in positions(rule.lhs) if isinstance(x, Var))
        closing = sorted(variables, key=lambda v: _SORT_KIND_ORDER[v.sort.kind])
        axioms.append((axiom_name, forall(closing, body)))
    return Presentation(name, tuple(axioms))


def comp_sk(cfg: OrderConfig) -> Presentation:
    names = {f"comp-unfold^{j}": f"comp-sk^{j}" for j in range(cfg.i)}
    return oriented_presentation("Comp-sk", build_HO(cfg), names)


def ho_compatible_axioms(cfg: OrderConfig) -> Presentation:
    """The standard finite presentation compatible with HO_i."""
    return Presentation("HO-compatible", (ws_axioms(cfg) + comp_sk(cfg)).axioms)


def hha_extra_axioms() -> Presentation:
    """The oriented axioms behind the HHA rules: =, pred, Null, induction."""
    kept = ("pred-zero", "pred-s", "null-zero", "null-s")
    names = {"eq-unfold": "eq-def", **{n: n for n in kept}, "nat-induction": "ind-mod"}
    return oriented_presentation("HHA-extra", build_HHA(OrderConfig(1)), names)
