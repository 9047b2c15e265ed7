"""Proof translations between the schematic system, natural deduction and
the modulo presentations.

The schematic-to-natural-deduction direction replaces every inference by a
fixed tree.  It is one forward pass: the lines the conclusion reaches are
built once each, in line order, from the proofs of the lines they cite.  A
line cited more than once is a lemma, proved once and cut in at the root, and
each use is a hypothesis, so the output is a tree whose length is linear in
the lines.  Generalization and particularization close over the line's own
eigenvariable; the eigenvariable conditions are local to each node, as a
checked line holds its eigenvariable free only in its premise, the premise's
proof is closed but for its axiom instances, which are tested, and for the
lemma hypotheses, each closed over the dependent eigenvariables it holds
free.  The reverse direction is the familiar
bracket-abstraction construction: an abstraction pass over proof trees,
falling back to a line-level deduction-theorem pass after an implication
introduction, with two pinned propositional lemmas for abstracting over the
quantifier rules.

Both directions read one table, ``ONE_PREMISE``, for the one-premise rules
that are modus ponens with an axiom schema (and-elimination, or-introduction,
universal elimination, existential introduction), and the description of
gen and part in ``hilbert.QUANTIFIER_RULES``.

Congruence expansion (Dowek, Hardin and Kirchner, "Theorem proving modulo",
JAR 2003) turns a proof modulo a rewrite system into one from a compatible
axiom presentation: each congruence use becomes a cut with the implication
it needs, built along its trace as a pair of implication proofs, one each
way, where each new proof cites only the one before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as _dc_replace
from typing import Callable, Mapping, Optional, Union

from .fragments import HHA_FIXED, fz_fragment, hha_fragment
from .hilbert import (
    Catalogue,
    GenLine,
    HilbertProof,
    HypLine,
    JUSTIFICATIONS,
    Line,
    MpLine,
    PartLine,
    QUANTIFIER_RULES,
    SCHEMATA,
    SchemaInstance,
    SchemaLine,
    Template,
    check_hilbert,
    instance,
    schema_id,
    split_schema_id,
)
from .nd import (
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
    KINDS,
    OrE,
    OrI,
    Proof,
    Tnd,
    TopI,
    check_nd,
    conclusion_of,
    map_proof,
    obligations,
    premises,
    uses_hyp,
)
from .rewriting import RewriteSystem, Trace, connecting_trace
from .syntax import (
    And,
    Exists,
    FALSE,
    Forall,
    Imp,
    Or,
    Proposition,
    TRUE,
    Term,
    Var,
    alpha_equal,
    apply_substitution,
    free_variables,
    fresh_name,
    iff,
    positions,
    replace_at,
    subterm_at,
)
from .theories import Presentation, fz_axioms


class TranslationError(Exception):
    pass


@dataclass(frozen=True)
class NDTranslation:
    proof: Proof
    assumptions: tuple[tuple[str, Proposition], ...]
    instances: tuple[tuple[str, SchemaInstance], ...]

    def assumption_dict(self) -> dict[str, Proposition]:
        return dict(self.assumptions)


class _Gensym:
    def __init__(self, prefix: str = "t"):
        self.counter = itertools.count(1)
        self.prefix = prefix

    def __call__(self) -> str:
        return f"{self.prefix}{next(self.counter)}"


# ---------------------------------------------------------------------------
# One-premise rules and their axiom schemata


def _avoid_capture(body: Proposition, terms: list[Term]) -> Proposition:
    """Rename binders in body so the given terms substitute freely."""
    clash = set()
    for t in terms:
        clash |= {v.name for v in free_variables(t)}
    out = body
    # renaming keeps every position and kind, so binders are visited outermost first
    for pos, node in positions(body):
        if node.shape.binder is None:
            continue
        q = subterm_at(out, pos)
        if q.var.name in clash:
            taken = clash | {v.name for v in free_variables(q.body)}
            fresh = Var(fresh_name(q.var.name, taken), q.var.sort)
            out = replace_at(out, type(q)(fresh, apply_substitution(q.body, {q.var: fresh})), pos)
    return out


def _quantifier_instance(family: str, p: Union[ForallE, ExistsI]) -> SchemaInstance:
    """The ``UI^j`` or ``EI^j`` instance that takes ``p.body`` at ``p.term``."""
    safe = _avoid_capture(p.body, [p.term])
    return instance(schema_id(family, p.var.sort.level), templates=[("A", Template((p.var,), safe))],
                    terms=[("tau", p.term)], metavars=[("alpha", p.var)])


@dataclass(frozen=True)
class _OnePremise:
    """A one-premise rule paired with its axiom schema ``premise > conclusion``,
    used by modus ponens: the ``schemas`` (the quantifier ones by family, with
    no level), a node's schema ``instance``, the ``premise`` that abstraction
    composes with, and the ``node`` that an instance, whose proposition is
    ``built``, yields over a leaf proving ``built.left``."""

    schemas: tuple[str, ...]
    instance: Callable[[Proof], SchemaInstance]
    premise: Callable[[Proof], Proposition]
    node: Callable[[SchemaInstance, Imp, Proof], Proof]


def _sided_instance(family: str, p: Union[AndE, OrI], x: Proposition) -> SchemaInstance:
    """The ``family-l``/``-r`` instance with ``x`` on the node's side and ``p.other`` on the other."""
    if p.side == "left":
        return instance(f"{family}-l", templates=[("A", x), ("B", p.other)])
    return instance(f"{family}-r", templates=[("A", p.other), ("B", x)])


def _sided_node(kind: type) -> Callable[[SchemaInstance, Imp, Proof], Proof]:
    """The ``kind`` node of an ``-l``/``-r`` instance: it states the operand on its side."""

    def node(inst: SchemaInstance, built: Imp, leaf: Proof) -> Proof:
        left = inst.schema.endswith("-l")
        other = inst.prop("B" if left else "A")
        return kind(built.right, other=other, side="left" if left else "right", sub=leaf)

    return node


ONE_PREMISE: dict[type, _OnePremise] = {
    AndE: _OnePremise(
        ("proj-l", "proj-r"),
        lambda p: _sided_instance("proj", p, p.conclusion),
        lambda p: conclusion_of(p.sub),
        _sided_node(AndE),
    ),
    OrI: _OnePremise(
        ("inj-l", "inj-r"),
        lambda p: _sided_instance("inj", p, conclusion_of(p.sub)),
        lambda p: conclusion_of(p.sub),
        _sided_node(OrI),
    ),
    ForallE: _OnePremise(
        ("UI",),
        lambda p: _quantifier_instance("UI", p),
        lambda p: Forall(p.var, p.body),
        lambda inst, built, leaf: ForallE(
            built.right, var=built.left.var, body=built.left.body, term=inst.term("tau"), sub=leaf
        ),
    ),
    ExistsI: _OnePremise(
        ("EI",),
        lambda p: _quantifier_instance("EI", p),
        lambda p: conclusion_of(p.sub),
        lambda inst, built, leaf: ExistsI(
            built.right, var=built.right.var, body=built.right.body, term=inst.term("tau"), sub=leaf
        ),
    ),
}

_ONE_PREMISE_SCHEMAS = {name: rule for rule in ONE_PREMISE.values() for name in rule.schemas}


# ---------------------------------------------------------------------------
# Classical schema templates in natural deduction


def _classical_proof(inst: SchemaInstance, cat: Catalogue, lab: _Gensym) -> Optional[Proof]:
    family = split_schema_id(inst.schema)[0]
    if family in _PROP_TEMPLATES:
        return _PROP_TEMPLATES[family](lab, *(inst.prop(n) for n, _ in SCHEMATA[family].props))
    rule = _ONE_PREMISE_SCHEMAS.get(family)
    if rule is None:
        return None
    built = cat.instantiate(inst)
    l = lab()
    return ImpI(built, hyp=built.left, label=l, sub=rule.node(inst, built, Hyp(l, built.left)))


def _imp_chain(lab: _Gensym, hyps: list[Proposition], body_of: Callable[..., Proof]) -> Proof:
    """Hypothesize each proposition, build the body, then discharge in order."""
    labels = [lab() for _ in hyps]
    leaves = [Hyp(l, h) for l, h in zip(labels, hyps)]
    proof = body_of(*leaves)
    for l, h in zip(reversed(labels), reversed(hyps)):
        proof = ImpI(Imp(h, conclusion_of(proof)), hyp=h, label=l, sub=proof)
    return proof


def _t_i(lab, a):
    return _imp_chain(lab, [a], lambda x: x)


def _t_k(lab, a, b):
    return _imp_chain(lab, [a, b], lambda x, y: x)


def _t_w(lab, a, b):
    def body(f, x):
        return ImpE(b, minor=x, major=ImpE(Imp(a, b), minor=x, major=f))

    return _imp_chain(lab, [Imp(a, Imp(a, b)), a], body)


def _t_c(lab, a, b, c):
    def body(f, y, x):
        return ImpE(c, minor=y, major=ImpE(Imp(b, c), minor=x, major=f))

    return _imp_chain(lab, [Imp(a, Imp(b, c)), b, a], body)


def _t_b(lab, a, b, c):
    def body(f, g, x):
        return ImpE(c, minor=ImpE(b, minor=x, major=f), major=g)

    return _imp_chain(lab, [Imp(a, b), Imp(b, c), a], body)


def _t_pair(lab, a, b, c):
    def body(f, g, x):
        return AndI(And(b, c), ImpE(b, minor=x, major=f), ImpE(c, minor=x, major=g))

    return _imp_chain(lab, [Imp(a, b), Imp(a, c), a], body)


def _t_case(lab, a, b, c):
    def body(f, g, d):
        la, lb = f"{d.label}a", f"{d.label}b"
        return OrE(
            c,
            left=a,
            right=b,
            label_left=la,
            label_right=lb,
            major=d,
            sub_left=ImpE(c, minor=Hyp(la, a), major=f),
            sub_right=ImpE(c, minor=Hyp(lb, b), major=g),
        )

    return _imp_chain(lab, [Imp(a, c), Imp(b, c), Or(a, b)], body)


def _t_contradiction(lab, a, b):
    def body(f, g, x):
        return ImpE(FALSE, minor=ImpE(b, minor=x, major=f), major=ImpE(Imp(b, FALSE), minor=x, major=g))

    return _imp_chain(lab, [Imp(a, b), Imp(a, Imp(b, FALSE)), a], body)


def _t_efsq(lab, a, b):
    def body(f, x):
        return BotE(b, sub=ImpE(FALSE, minor=x, major=f))

    return _imp_chain(lab, [Imp(a, FALSE), a], body)


_PROP_TEMPLATES: dict[str, Callable[..., Proof]] = {
    "I": _t_i,
    "K": _t_k,
    "W": _t_w,
    "C": _t_c,
    "B": _t_b,
    "pair": _t_pair,
    "case": _t_case,
    "contradiction": _t_contradiction,
    "efsq": _t_efsq,
    "T": lambda lab: TopI(TRUE),
    "TND": lambda lab, a: Tnd(Or(a, Imp(a, FALSE)), disjunct=a),
}


# ---------------------------------------------------------------------------
# Schematic system to natural deduction


def _check_eigen_clear(prem: Proof, eigens: frozenset[Var]) -> None:
    """An eigenvariable free in an axiom instance of the premise derivation
    cannot be generalized while keeping instances as assumptions."""
    stack, seen = [prem], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:  # a shared subproof is looked at once
            continue
        seen.add(id(node))
        if isinstance(node, Assume) and not eigens.isdisjoint(free_variables(node.conclusion)):
            raise TranslationError(
                f"generalized variable occurs in the axiom instance {node.name!r}"
            )
        stack.extend(premises(node))


def _lemma(label: str, prop: Proposition, proof: Proof, over: list[Var]) -> tuple[Proof, Proof, Proposition]:
    """A line proved once and cited by hypothesis: its proof closed over the
    variables ``over`` by universal introduction, the closed statement, and
    the proof of the line at each use (the hypothesis, instantiated back)."""
    stated, closed = prop, proof
    for var in reversed(over):
        closed = ForallI(Forall(var, stated), var=var, body=stated, eigen=var, sub=closed)
        stated = Forall(var, stated)
    use = Hyp(label, stated)
    for var in over:
        use = ForallE(use.conclusion.body, var=var, body=use.conclusion.body, term=var, sub=use)
    return closed, use, stated


def _hilbert_to_nd_engine(
    proof: HilbertProof,
    cat: Catalogue,
    leaf_handler: Callable[[SchemaInstance, Proposition], Proof],
) -> Proof:
    """One pass over the lines.  Backwards, count the citations of each line
    the conclusion reaches and collect the eigenvariables of the gen/part
    lines that depend on it; then build each reached line once, in order,
    from its premises' proofs.  A line cited more than once is a lemma: each
    use cites it by hypothesis, and the conclusion is wrapped in one cut per
    lemma, the last innermost, so a lemma's proof may cite the lemmas before
    it.  A lemma is closed over the dependent eigenvariables it holds free, so
    the hypothesis is clear of them wherever it is open."""
    verdict = check_hilbert(proof, cat)
    if not verdict.ok:
        raise TranslationError(f"input does not check: {verdict.error}")
    lines = proof.lines
    uses = [0] * len(lines)
    uses[-1] = 1  # the conclusion is reached; no line cites it
    above: list[frozenset[Var]] = [frozenset()] * len(lines)
    for k in range(len(lines) - 1, -1, -1):
        if not uses[k]:
            continue
        j = lines[k].just
        own = above[k] | {j.eigen} if isinstance(j, (GenLine, PartLine)) else above[k]
        for field, kind in JUSTIFICATIONS[type(j)].layout:
            if kind == "line":
                ref = getattr(j, field) - 1
                uses[ref] += 1
                above[ref] |= own
    lab = _Gensym("g")
    built: list[Optional[Proof]] = [None] * len(lines)
    cuts: list[tuple[str, Proposition, Proof]] = []
    for k, line in enumerate(lines):
        if not uses[k]:
            continue
        j = line.just
        if isinstance(j, SchemaLine):
            out = _classical_proof(j.instance, cat, lab)
            if out is None:
                out = leaf_handler(j.instance, line.prop)
            elif not alpha_equal(conclusion_of(out), line.prop):
                raise TranslationError(
                    f"template for {j.instance.schema} concludes {conclusion_of(out)}, line says {line.prop}"
                )
        elif isinstance(j, MpLine):
            out = ImpE(line.prop, minor=built[j.minor - 1], major=built[j.major - 1])
        elif isinstance(j, (GenLine, PartLine)):
            rule = QUANTIFIER_RULES[type(j)]
            shape = line.prop
            q = getattr(shape, rule.side)
            prem = built[j.ref - 1]
            _check_eigen_clear(prem, frozenset((j.eigen,)))
            x_y = rule.premise(shape, j.eigen)  # the premise, applied to a hypothesis of its left side
            l = lab()
            if rule.binder is Forall:
                e1 = ImpE(x_y.right, minor=Hyp(l, x_y.left), major=prem)
                e2 = ForallI(shape.right, var=q.var, body=q.body, eigen=j.eigen, sub=e1)
            else:
                lw = lab()
                e1 = ImpE(x_y.right, minor=Hyp(lw, x_y.left), major=prem)
                e2 = ExistsE(shape.right, var=q.var, body=q.body, eigen=j.eigen, label=lw,
                             major=Hyp(l, shape.left), sub=e1)
            out = ImpI(shape, hyp=shape.left, label=l, sub=e2)
        else:
            raise TranslationError(f"cannot translate line justification {j!r}")
        if uses[k] > 1:
            if above[k]:  # the dependent gen/part lines see only the hypothesis
                _check_eigen_clear(out, above[k])
            label, over = lab(), sorted(above[k] & free_variables(line.prop), key=str)
            closed, out, stated = _lemma(label, line.prop, out, over)
            cuts.append((label, stated, closed))
        built[k] = out
    root, goal = built[-1], lines[-1].prop
    for label, stated, closed in reversed(cuts):
        root = ImpE(goal, minor=closed, major=ImpI(Imp(stated, goal), hyp=stated, label=label, sub=root))
    return root


def hilbert_to_nd(proof: HilbertProof, cat: Catalogue) -> NDTranslation:
    """Pure natural deduction, keeping identity/arithmetic/induction/
    comprehension instances as named assumptions."""
    counter = itertools.count(1)
    assumptions: dict[str, Proposition] = {}
    instances: dict[str, SchemaInstance] = {}

    def handler(inst: SchemaInstance, prop: Proposition) -> Proof:
        name = f"{inst.schema}.{next(counter)}"
        assumptions[name] = prop
        instances[name] = inst
        return Assume(name, prop)

    out = _hilbert_to_nd_engine(proof, cat, handler)
    return NDTranslation(out, tuple(assumptions.items()), tuple(instances.items()))


def zi_hilbert_to_fz_modulo(proof: HilbertProof, cat: Catalogue) -> NDTranslation:
    """Natural deduction modulo the class system, assumptions within FZ."""
    fz = fz_axioms().as_dict()
    used: dict[str, Proposition] = {}

    def handler(inst: SchemaInstance, prop: Proposition) -> Proof:
        name = inst.schema
        if name in fz:
            axiom = fz[name]
            if not alpha_equal(axiom, prop):
                raise TranslationError(f"{name} instance differs from the axiom")
            used[name] = axiom
            return Assume(name, axiom)
        frag = fz_fragment(name, inst.template("A"))
        for used_name in frag.assumptions:
            used[used_name] = fz[used_name]
        if not alpha_equal(conclusion_of(frag.proof), prop):
            raise TranslationError(f"fragment for {name} concludes a different instance")
        return frag.proof

    out = _hilbert_to_nd_engine(proof, cat, handler)
    return NDTranslation(out, tuple(used.items()), ())


# ---------------------------------------------------------------------------
# Natural deduction to the schematic system


class _Buf:
    def __init__(self):
        self.lines: list[Line] = []

    def add(self, just, prop: Proposition) -> int:
        self.lines.append(Line(just, prop))
        return len(self.lines)

    def schema(self, name: str, props: list[tuple[str, Proposition]]) -> int:
        got = dict(props)
        prop = SCHEMATA[name].build(*(got[n] for n, _ in SCHEMATA[name].props))
        return self.add(SchemaLine(instance(name, templates=props)), prop)

    def line(self, k: int) -> Line:
        return self.lines[k - 1]


def _pi1(buf: _Buf, a: Proposition, b: Proposition, c: Proposition) -> int:
    """(a > b > c) > (a & b) > c from the propositional schemata; 17 lines."""
    ab = And(a, b)
    l1 = buf.schema("proj-l", [("A", a), ("B", b)])
    l2 = buf.schema("proj-r", [("A", a), ("B", b)])
    l3 = buf.schema("B", [("A", ab), ("B", a), ("C", Imp(b, c))])
    l4 = buf.add(MpLine(l1, l3), Imp(Imp(a, Imp(b, c)), Imp(ab, Imp(b, c))))
    l5 = buf.schema("C", [("A", ab), ("B", b), ("C", c)])
    l6 = buf.schema("B", [("A", ab), ("B", b), ("C", Imp(ab, c))])
    l7 = buf.add(MpLine(l2, l6), Imp(Imp(b, Imp(ab, c)), Imp(ab, Imp(ab, c))))
    l8 = buf.schema("W", [("A", ab), ("B", c)])
    l9 = buf.schema(
        "B", [("A", Imp(a, Imp(b, c))), ("B", Imp(ab, Imp(b, c))), ("C", Imp(b, Imp(ab, c)))]
    )
    l10 = buf.add(MpLine(l4, l9), Imp(buf.line(l5).prop, Imp(Imp(a, Imp(b, c)), Imp(b, Imp(ab, c)))))
    l11 = buf.add(MpLine(l5, l10), Imp(Imp(a, Imp(b, c)), Imp(b, Imp(ab, c))))
    l12 = buf.schema(
        "B", [("A", Imp(a, Imp(b, c))), ("B", Imp(b, Imp(ab, c))), ("C", Imp(ab, Imp(ab, c)))]
    )
    l13 = buf.add(MpLine(l11, l12), Imp(buf.line(l7).prop, Imp(Imp(a, Imp(b, c)), Imp(ab, Imp(ab, c)))))
    l14 = buf.add(MpLine(l7, l13), Imp(Imp(a, Imp(b, c)), Imp(ab, Imp(ab, c))))
    l15 = buf.schema(
        "B", [("A", Imp(a, Imp(b, c))), ("B", Imp(ab, Imp(ab, c))), ("C", Imp(ab, c))]
    )
    l16 = buf.add(MpLine(l14, l15), Imp(buf.line(l8).prop, Imp(Imp(a, Imp(b, c)), Imp(ab, c))))
    return buf.add(MpLine(l8, l16), Imp(Imp(a, Imp(b, c)), Imp(ab, c)))


def _pi2(buf: _Buf, a: Proposition, b: Proposition, c: Proposition) -> int:
    """((a & b) > c) > a > b > c; 17 lines."""
    ab = And(a, b)
    l1 = buf.schema("K", [("A", a), ("B", b)])
    l2 = buf.schema("I", [("A", b)])
    l3 = buf.schema("pair", [("A", b), ("B", a), ("C", b)])
    l4 = buf.schema("B", [("A", a), ("B", Imp(b, a)), ("C", Imp(Imp(b, b), Imp(b, ab)))])
    l5 = buf.add(MpLine(l1, l4), Imp(buf.line(l3).prop, Imp(a, Imp(Imp(b, b), Imp(b, ab)))))
    l6 = buf.add(MpLine(l3, l5), Imp(a, Imp(Imp(b, b), Imp(b, ab))))
    l7 = buf.schema("C", [("A", a), ("B", Imp(b, b)), ("C", Imp(b, ab))])
    l8 = buf.add(MpLine(l6, l7), Imp(Imp(b, b), Imp(a, Imp(b, ab))))
    l9 = buf.add(MpLine(l2, l8), Imp(a, Imp(b, ab)))
    l10 = buf.schema("B", [("A", b), ("B", ab), ("C", c)])
    l11 = buf.schema("C", [("A", Imp(b, ab)), ("B", Imp(ab, c)), ("C", Imp(b, c))])
    l12 = buf.add(MpLine(l10, l11), Imp(Imp(ab, c), Imp(Imp(b, ab), Imp(b, c))))
    l13 = buf.schema("B", [("A", a), ("B", Imp(b, ab)), ("C", Imp(b, c))])
    l14 = buf.add(MpLine(l9, l13), Imp(Imp(Imp(b, ab), Imp(b, c)), Imp(a, Imp(b, c))))
    l15 = buf.schema(
        "B", [("A", Imp(ab, c)), ("B", Imp(Imp(b, ab), Imp(b, c))), ("C", Imp(a, Imp(b, c)))]
    )
    l16 = buf.add(MpLine(l12, l15), Imp(buf.line(l14).prop, Imp(Imp(ab, c), Imp(a, Imp(b, c)))))
    return buf.add(MpLine(l14, l16), Imp(Imp(ab, c), Imp(a, Imp(b, c))))


def _mp_abs_block(buf: _Buf, m_minor: int, m_major: int, a: Proposition, p: Proposition, q: Proposition) -> int:
    """From a>p and a>(p>q) derive a>q; the seven-line modus ponens block."""
    c1 = buf.schema("C", [("A", a), ("B", p), ("C", q)])
    c2 = buf.add(MpLine(m_major, c1), Imp(p, Imp(a, q)))
    c3 = buf.schema("B", [("A", a), ("B", p), ("C", Imp(a, q))])
    c4 = buf.add(MpLine(m_minor, c3), Imp(Imp(p, Imp(a, q)), Imp(a, Imp(a, q))))
    c5 = buf.add(MpLine(c2, c4), Imp(a, Imp(a, q)))
    c6 = buf.schema("W", [("A", a), ("B", q)])
    return buf.add(MpLine(c5, c6), Imp(a, q))


class _NdToHilbert:
    def __init__(self, cat: Catalogue, instances: Mapping[str, SchemaInstance]):
        self.cat = cat
        self.instances = instances

    # -- plain translation ---------------------------------------------------

    def tree(self, p: Proof, buf: _Buf) -> int:
        if isinstance(p, Hyp):
            return buf.add(HypLine(p.label), p.conclusion)
        if isinstance(p, Assume):
            inst = self.instances.get(p.name)
            if inst is None:
                raise TranslationError(f"assumption {p.name!r} has no schema instance")
            return buf.add(SchemaLine(inst), p.conclusion)
        if isinstance(p, TopI):
            return buf.add(SchemaLine(instance("T")), TRUE)
        if isinstance(p, Tnd):
            return buf.add(
                SchemaLine(instance("TND", templates=[("A", p.disjunct)])), p.conclusion
            )
        if isinstance(p, ImpI):
            return self.abstract_tree(p.sub, p.hyp, p.label, buf)
        rule = ONE_PREMISE.get(type(p))
        if rule is not None:
            m = self.tree(p.sub, buf)
            inst = rule.instance(p)
            k = buf.add(SchemaLine(inst), self.cat.instantiate(inst))
            return buf.add(MpLine(m, k), p.conclusion)
        if isinstance(p, ImpE):
            m1 = self.tree(p.minor, buf)
            m2 = self.tree(p.major, buf)
            return buf.add(MpLine(m1, m2), p.conclusion)
        if isinstance(p, AndI):
            a = conclusion_of(p.left)
            b = conclusion_of(p.right)
            m1 = self.tree(p.left, buf)
            m2 = self.tree(p.right, buf)
            k1 = buf.schema("K", [("A", b), ("B", a)])
            k2 = buf.add(MpLine(m2, k1), Imp(a, b))
            k3 = buf.schema("I", [("A", a)])
            k4 = buf.schema("pair", [("A", a), ("B", a), ("C", b)])
            k5 = buf.add(MpLine(k3, k4), Imp(Imp(a, b), Imp(a, And(a, b))))
            k6 = buf.add(MpLine(k2, k5), Imp(a, And(a, b)))
            return buf.add(MpLine(m1, k6), p.conclusion)
        if isinstance(p, OrE):
            m1 = self.tree(p.major, buf)
            ml = self.abstract_tree(p.sub_left, p.left, p.label_left, buf)
            mr = self.abstract_tree(p.sub_right, p.right, p.label_right, buf)
            d = p.conclusion
            k = buf.schema("case", [("A", p.left), ("B", p.right), ("C", d)])
            k2 = buf.add(MpLine(ml, k), Imp(Imp(p.right, d), Imp(Or(p.left, p.right), d)))
            k3 = buf.add(MpLine(mr, k2), Imp(Or(p.left, p.right), d))
            return buf.add(MpLine(m1, k3), d)
        if isinstance(p, ForallI):
            m = self.tree(p.sub, buf)
            prem = conclusion_of(p.sub)
            k1 = buf.schema("K", [("A", prem), ("B", TRUE)])
            k2 = buf.add(MpLine(m, k1), Imp(TRUE, prem))
            k3 = buf.add(GenLine(k2, p.eigen), Imp(TRUE, p.conclusion))
            k4 = buf.add(SchemaLine(instance("T")), TRUE)
            return buf.add(MpLine(k4, k3), p.conclusion)
        if isinstance(p, ExistsE):
            m1 = self.tree(p.major, buf)
            hyp_prop = apply_substitution(p.body, {p.var: p.eigen})
            m2 = self.abstract_tree(p.sub, hyp_prop, p.label, buf)
            k = buf.add(PartLine(m2, p.eigen), Imp(Exists(p.var, p.body), p.conclusion))
            return buf.add(MpLine(m1, k), p.conclusion)
        if isinstance(p, BotE):
            m = self.tree(p.sub, buf)
            a = p.conclusion
            k1 = buf.schema("I", [("A", a)])
            k2 = buf.schema("K", [("A", FALSE), ("B", Imp(a, a))])
            k3 = buf.add(MpLine(m, k2), Imp(Imp(a, a), FALSE))
            k4 = buf.schema("efsq", [("A", Imp(a, a)), ("B", a)])
            k5 = buf.add(MpLine(k3, k4), Imp(Imp(a, a), a))
            return buf.add(MpLine(k1, k5), a)
        raise TranslationError(f"cannot translate node {type(p).__name__}")

    # -- abstraction over one hypothesis -------------------------------------

    def abstract_tree(self, p: Proof, a: Proposition, label: str, buf: _Buf) -> int:
        target = Imp(a, conclusion_of(p))
        if not uses_hyp(p, label):
            m = self.tree(p, buf)
            prop = conclusion_of(p)
            k = buf.schema("K", [("A", prop), ("B", a)])
            return buf.add(MpLine(m, k), target)
        if isinstance(p, Hyp) and p.label == label:
            return buf.add(SchemaLine(instance("I", templates=[("A", a)])), Imp(a, p.conclusion))
        if isinstance(p, ImpI):
            inner = _Buf()
            self.abstract_tree(p.sub, p.hyp, p.label, inner)
            return self.abstract_lines(inner.lines, a, label, buf)
        if isinstance(p, ImpE):
            m1 = self.abstract_tree(p.minor, a, label, buf)
            m2 = self.abstract_tree(p.major, a, label, buf)
            return _mp_abs_block(buf, m1, m2, a, conclusion_of(p.minor), p.conclusion)
        rule = ONE_PREMISE.get(type(p))
        if rule is not None:
            inst = rule.instance(p)
            k1 = buf.add(SchemaLine(inst), self.cat.instantiate(inst))
            prem = rule.premise(p)
            m = self.abstract_tree(p.sub, a, label, buf)
            k2 = buf.schema("B", [("A", a), ("B", prem), ("C", p.conclusion)])
            k3 = buf.add(MpLine(m, k2), Imp(Imp(prem, p.conclusion), target))
            return buf.add(MpLine(k1, k3), target)
        if isinstance(p, AndI):
            b, c = conclusion_of(p.left), conclusion_of(p.right)
            m1 = self.abstract_tree(p.left, a, label, buf)
            m2 = self.abstract_tree(p.right, a, label, buf)
            k = buf.schema("pair", [("A", a), ("B", b), ("C", c)])
            k2 = buf.add(MpLine(m1, k), Imp(Imp(a, c), Imp(a, And(b, c))))
            return buf.add(MpLine(m2, k2), Imp(a, And(b, c)))
        if isinstance(p, OrE):
            d = p.conclusion
            bufl = _Buf()
            self.abstract_tree(p.sub_left, a, label, bufl)
            ml = self.abstract_lines(bufl.lines, p.left, p.label_left, buf)
            bufr = _Buf()
            self.abstract_tree(p.sub_right, a, label, bufr)
            mr = self.abstract_lines(bufr.lines, p.right, p.label_right, buf)
            k = buf.schema("case", [("A", p.left), ("B", p.right), ("C", Imp(a, d))])
            k2 = buf.add(
                MpLine(ml, k),
                Imp(Imp(p.right, Imp(a, d)), Imp(Or(p.left, p.right), Imp(a, d))),
            )
            k3 = buf.add(MpLine(mr, k2), Imp(Or(p.left, p.right), Imp(a, d)))
            m1 = self.abstract_tree(p.major, a, label, buf)
            k4 = buf.schema("B", [("A", a), ("B", Or(p.left, p.right)), ("C", Imp(a, d))])
            k5 = buf.add(MpLine(m1, k4), Imp(Imp(Or(p.left, p.right), Imp(a, d)), Imp(a, Imp(a, d))))
            k6 = buf.add(MpLine(k3, k5), Imp(a, Imp(a, d)))
            k7 = buf.schema("W", [("A", a), ("B", d)])
            return buf.add(MpLine(k6, k7), target)
        if isinstance(p, ForallI):
            m = self.abstract_tree(p.sub, a, label, buf)
            return buf.add(GenLine(m, p.eigen), target)
        if isinstance(p, ExistsE):
            c = p.conclusion
            hyp_prop = apply_substitution(p.body, {p.var: p.eigen})
            bufs = _Buf()
            self.abstract_tree(p.sub, a, label, bufs)
            ms = self.abstract_lines(bufs.lines, hyp_prop, p.label, buf)
            closure = Exists(p.var, p.body)
            k1 = buf.add(PartLine(ms, p.eigen), Imp(closure, Imp(a, c)))
            m1 = self.abstract_tree(p.major, a, label, buf)
            k2 = buf.schema("B", [("A", a), ("B", closure), ("C", Imp(a, c))])
            k3 = buf.add(MpLine(m1, k2), Imp(Imp(closure, Imp(a, c)), Imp(a, Imp(a, c))))
            k4 = buf.add(MpLine(k1, k3), Imp(a, Imp(a, c)))
            k5 = buf.schema("W", [("A", a), ("B", c)])
            return buf.add(MpLine(k4, k5), target)
        if isinstance(p, BotE):
            m = self.abstract_tree(p.sub, a, label, buf)
            k = buf.schema("efsq", [("A", a), ("B", p.conclusion)])
            return buf.add(MpLine(m, k), target)
        raise TranslationError(f"cannot abstract over node {type(p).__name__}")

    # -- abstraction over finished line lists --------------------------------

    def abstract_lines(self, inner: list[Line], a: Proposition, label: str, buf: _Buf) -> int:
        mapping: dict[int, int] = {}
        for idx, line in enumerate(inner, start=1):
            j = line.just
            target = Imp(a, line.prop)
            if isinstance(j, HypLine) and j.label == label:
                mapping[idx] = buf.add(
                    SchemaLine(instance("I", templates=[("A", line.prop)])), target
                )
            elif isinstance(j, MpLine):
                p_prop = inner[j.minor - 1].prop
                mapping[idx] = _mp_abs_block(
                    buf, mapping[j.minor], mapping[j.major], a, p_prop, line.prop
                )
            elif isinstance(j, GenLine):
                shape = line.prop
                assert isinstance(shape, Imp) and isinstance(shape.right, Forall)
                x_prop = shape.left
                prem_prop = inner[j.ref - 1].prop
                assert isinstance(prem_prop, Imp)
                y_at = prem_prop.right
                w1 = _pi1(buf, a, x_prop, y_at)
                g1 = buf.add(MpLine(mapping[j.ref], w1), Imp(And(a, x_prop), y_at))
                g2 = buf.add(GenLine(g1, j.eigen), Imp(And(a, x_prop), shape.right))
                w2 = _pi2(buf, a, x_prop, shape.right)
                mapping[idx] = buf.add(MpLine(g2, w2), target)
            elif isinstance(j, PartLine):
                shape = line.prop
                assert isinstance(shape, Imp) and isinstance(shape.left, Exists)
                prem_prop = inner[j.ref - 1].prop
                assert isinstance(prem_prop, Imp)
                b_at = prem_prop.left
                c1 = buf.schema("C", [("A", a), ("B", b_at), ("C", shape.right)])
                c2 = buf.add(MpLine(mapping[j.ref], c1), Imp(b_at, Imp(a, shape.right)))
                c3 = buf.add(PartLine(c2, j.eigen), Imp(shape.left, Imp(a, shape.right)))
                c4 = buf.schema("C", [("A", shape.left), ("B", a), ("C", shape.right)])
                mapping[idx] = buf.add(MpLine(c3, c4), target)
            else:
                k0 = buf.add(j, line.prop)
                k1 = buf.schema("K", [("A", line.prop), ("B", a)])
                mapping[idx] = buf.add(MpLine(k0, k1), target)
        return mapping[len(inner)]


def nd_to_hilbert(
    proof: Proof,
    cat: Catalogue,
    instances: Mapping[str, SchemaInstance] = (),
) -> HilbertProof:
    """The bracket-abstraction translation into the schematic system.

    The input must check in pure natural deduction (no rewrite system) with
    assumptions that are schema instances named by ``instances``.
    """
    instances = dict(instances)
    verdict = check_nd(proof, assumptions={name: cat.instantiate(inst) for name, inst in instances.items()})
    if not verdict.ok:
        raise TranslationError(f"input is not a pure closed proof: {verdict.error}")
    translator = _NdToHilbert(cat, instances)
    buf = _Buf()
    translator.tree(proof, buf)
    for line in buf.lines:
        if isinstance(line.just, HypLine):
            raise TranslationError("internal: hypothesis line left in the output")
    return HilbertProof(tuple(buf.lines))


# ---------------------------------------------------------------------------
# Natural deduction with schema assumptions to the axiom-free system


def zi_nd_to_hha(proof: Proof, instances: Mapping[str, SchemaInstance]) -> Proof:
    """Replace every schema-instance assumption by its axiom-free fragment."""
    instances = dict(instances)

    def rebuild(p: Proof) -> Proof:
        if not isinstance(p, Assume):
            return p
        inst = instances.get(p.name)
        if inst is None:
            raise TranslationError(f"assumption {p.name!r} is not in the fragment library")
        name = inst.schema
        try:
            frag = hha_fragment(name, None if name in HHA_FIXED else inst.template("A"))
        except KeyError as exc:
            raise TranslationError(exc.args[0]) from None
        if not alpha_equal(conclusion_of(frag.proof), p.conclusion):
            raise TranslationError(f"fragment for {name} proves a different instance")
        return frag.proof

    return map_proof(proof, rebuild)


# ---------------------------------------------------------------------------
# Axiom elimination between compatible presentations


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Both directions of compatibility, witnessed by checkable proofs."""

    system: RewriteSystem
    source: Presentation
    target: Presentation
    axiom_proofs: tuple[tuple[str, Proof], ...]  # source axiom -> proof modulo system
    rule_equivalences: tuple[tuple[str, Proof], ...]  # rule -> proof from target

    def axiom_proof(self, name: str) -> Proof:
        for n, p in self.axiom_proofs:
            if n == name:
                return p
        raise TranslationError(f"certificate has no proof for axiom {name!r}")

    def rule_equivalence(self, name: str) -> Proof:
        for n, p in self.rule_equivalences:
            if n == name:
                return p
        raise TranslationError(f"certificate has no equivalence proof for rule {name!r}")


def _prefix(p: Proposition) -> tuple[list[Var], Proposition]:
    """The variables of p's leading universal quantifiers, outermost first, and
    the proposition below them."""
    variables = []
    while isinstance(p, Forall):
        variables.append(p.var)
        p = p.body
    return variables, p


def verify_certificate(cert: CompatibilityCertificate, fuel: Optional[int] = None) -> bool:
    """Whether each source axiom's proof checks modulo the system and concludes
    the axiom, and each rule ``l -> r``'s equivalence checks from the target
    and concludes ``l <=> r`` closed under exactly the variables of ``l``."""
    source = cert.source.as_dict()
    for name, proof in cert.axiom_proofs:
        want = source[name]
        if not alpha_equal(conclusion_of(proof), want):
            return False
        if not check_nd(proof, system=cert.system, mode="mixed", fuel=fuel).ok:
            return False
    target = cert.target.as_dict()
    for rule in cert.system.rules:
        proof = cert.rule_equivalence(rule.name)
        bound, body = _prefix(conclusion_of(proof))
        if len(set(bound)) != len(bound) or set(bound) != free_variables(rule.lhs):
            return False
        if not alpha_equal(body, iff(rule.lhs, rule.rhs)):
            return False
        if not check_nd(proof, assumptions=target).ok:
            return False
    return True


def _layer(src: Proposition, dst: Proposition, idx: int, use: Proof, lab: _Gensym) -> Proof:
    """A proof of src > dst, where dst is src with its child idx, a, replaced
    by b, given use : a > b, or use : b > a at the left of an implication."""
    a, b = subterm_at(src, (idx,)), subterm_at(dst, (idx,))
    l = lab()
    h = Hyp(l, src)
    if isinstance(src, (And, Or)):
        side, kept = ("left", "right") if idx == 1 else ("right", "left")
        other = getattr(src, kept)  # the operand the layer keeps
        if isinstance(src, And):
            parts = {side: ImpE(b, minor=AndE(a, other=other, side=side, sub=h), major=use),
                     kept: AndE(other, other=a, side=kept, sub=h)}
            body = AndI(dst, parts["left"], parts["right"])
        else:
            labels = {"left": lab(), "right": lab()}
            parts = {side: OrI(dst, other=other, side=side, sub=ImpE(b, Hyp(labels[side], a), use)),
                     kept: OrI(dst, other=b, side=kept, sub=Hyp(labels[kept], other))}
            body = OrE(dst, src.left, src.right, labels["left"], labels["right"], h,
                       parts["left"], parts["right"])
    elif isinstance(src, Imp):
        l2 = lab()
        if idx == 1:  # contravariant
            body = ImpI(dst, hyp=b, label=l2,
                        sub=ImpE(src.right, minor=ImpE(a, Hyp(l2, b), use), major=h))
        else:
            body = ImpI(dst, hyp=src.left, label=l2,
                        sub=ImpE(b, minor=ImpE(a, Hyp(l2, src.left), h), major=use))
    elif isinstance(src, Forall):
        v = src.var
        inst = ForallE(a, var=v, body=a, term=v, sub=h)
        body = ForallI(dst, var=v, body=b, eigen=v, sub=ImpE(b, minor=inst, major=use))
    else:
        v = src.var
        lw = lab()
        witness = ExistsI(dst, var=v, body=b, term=v, sub=ImpE(b, Hyp(lw, a), use))
        body = ExistsE(dst, var=v, body=a, eigen=v, label=lw, major=h, sub=witness)
    return ImpI(Imp(src, dst), hyp=src, label=l, sub=body)


def _lift(
    fwd: Proof, bwd: Proof, whole: Proposition, pos: tuple, new: Proposition, lab: _Gensym
) -> tuple[Proof, Proof, Proposition]:
    """From fwd : x > new and bwd : new > x, where x is whole at pos, proofs of
    whole > whole' and whole' > whole, and whole', which has new at pos."""
    spine = []
    for idx in pos:
        spine.append((whole, idx))
        whole = subterm_at(whole, (idx,))
    for parent, idx in reversed(spine):
        changed = replace_at(parent, new, (idx,))
        if isinstance(parent, Imp) and idx == 1:
            fwd, bwd = bwd, fwd
        fwd, bwd = _layer(parent, changed, idx, fwd, lab), _layer(changed, parent, idx, bwd, lab)
        new = changed
    return fwd, bwd, new


def _compose(first: Proof, second: Proof, lab: _Gensym) -> Proof:
    """a > c from first : a > b and second : b > c."""
    a, b = conclusion_of(first).left, conclusion_of(first).right
    c = conclusion_of(second).right
    l = lab()
    via = ImpE(b, minor=Hyp(l, a), major=first)
    return ImpI(Imp(a, c), hyp=a, label=l, sub=ImpE(c, minor=via, major=second))


def _implications(
    trace: Trace, start: Proposition, cert: CompatibilityCertificate, lab: _Gensym
) -> tuple[Proof, Proof]:
    """Target-presentation proofs of start > end and end > start, where end is
    where the trace takes start."""
    cur = start
    acc: Optional[tuple[Proof, Proof]] = None
    for step in trace.steps:
        rule = cert.system.rule(step.rule)
        if rule.is_term_rule:  # its redex sits at a term position, below every connective
            raise TranslationError(
                "cannot lift an equivalence through a term position; "
                "term-level rewriting needs equality axioms in the target"
            )
        sigma = step.substitution()
        inst = cert.rule_equivalence(step.rule)
        shape = conclusion_of(inst)
        # the terms go by the closure's own variables: instantiating one may
        # rename the binders below it, away from the rule's variable names
        for v in _prefix(shape)[0]:
            term = sigma.get(v, v)
            body = apply_substitution(shape.body, {shape.var: term})
            inst = ForallE(body, var=shape.var, body=shape.body, term=term, sub=inst)
            shape = body
        lhs = apply_substitution(rule.lhs, sigma)
        rhs = apply_substitution(rule.rhs, sigma)
        if not alpha_equal(shape, iff(lhs, rhs)):
            raise TranslationError(f"the equivalence for rule {step.rule!r} is not lhs <=> rhs at this step")
        to_rhs = AndE(Imp(lhs, rhs), other=Imp(rhs, lhs), side="left", sub=inst)
        to_lhs = AndE(Imp(rhs, lhs), other=Imp(lhs, rhs), side="right", sub=inst)
        at = subterm_at(cur, step.position)
        if step.forward:
            if at != lhs:
                raise TranslationError("trace step does not match the current proposition")
            fwd, bwd, after = _lift(to_rhs, to_lhs, cur, step.position, rhs, lab)
        else:
            if not alpha_equal(at, rhs):
                raise TranslationError("backward trace step does not match")
            fwd, bwd, after = _lift(to_lhs, to_rhs, cur, step.position, lhs, lab)
        acc = (fwd, bwd) if acc is None else (_compose(acc[0], fwd, lab), _compose(bwd, acc[1], lab))
        cur = after
    if acc is None:
        raise TranslationError("empty trace needs no expansion")
    return acc


def expand_congruences(proof: Proof, cert: CompatibilityCertificate, lab: Optional[_Gensym] = None) -> Proof:
    """Rewrite a proof modulo the certificate's system into a pure proof.

    Every congruence use becomes a cut with an implication proof from the
    target presentation: left > right for a premise, right > left for a
    conclusion.  The implication is built along the obligation's trace, one
    composition per step, and each step lifts the rule's instance through
    the connectives above its position with a fixed number of inferences per
    layer.  So an obligation costs O(steps · (depth + 1)) inferences; the
    expansion of the one-node Add(n, n, 2n) proof has 7n + 10.
    """
    lab = lab or _Gensym("x")

    def convert(node: Proof) -> Proof:
        if isinstance(node, IndI):
            raise TranslationError("the induction rule has no axiomatic counterpart here")
        kind = KINDS[type(node)]
        # premise-side conversions first: they change subproofs, not shapes
        for premise_side in (True, False):
            for ob, (left, right, slot) in zip(kind.obligations, obligations(node)):
                if (ob.left != "conclusion") != premise_side:
                    continue
                if alpha_equal(left, right):
                    node = _dc_replace(node, **{slot: None})
                    continue
                trace = getattr(node, slot) or connecting_trace(left, right, cert.system)
                to_right, to_left = _implications(trace, left, cert, lab)
                if premise_side:
                    fixed = ImpE(right, minor=getattr(node, ob.left), major=to_right)
                    node = _dc_replace(node, **{ob.left: fixed, slot: None})
                else:
                    exact = _dc_replace(node, conclusion=right, **{slot: None})
                    return ImpE(left, minor=exact, major=to_left)
        return node

    return map_proof(proof, convert)


def eliminate_axioms(proof: Proof, cert: CompatibilityCertificate) -> Proof:
    """Prop-2.3-style translation between presentations compatible with one
    rewrite system: replace each source axiom by its expanded modulo proof."""
    source = cert.source.as_dict()
    expanded: dict[str, Proof] = {}

    def rebuild(p: Proof) -> Proof:
        if not (isinstance(p, Assume) and p.name in source):
            return p
        if p.name not in expanded:
            expanded[p.name] = expand_congruences(cert.axiom_proof(p.name), cert)
        replacement = expanded[p.name]
        if not alpha_equal(conclusion_of(replacement), p.conclusion):
            raise TranslationError(f"axiom {p.name!r} proof concludes something else")
        return replacement

    return map_proof(proof, rebuild)
