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
free.  The reverse direction is the p-simulation of natural deduction by a
Frege system (Cook and Reckhow, JSL 1979): one walk, on its own stack,
translates each node once, under the hypotheses open in its subtree.  With
none open it writes the rule's own lines; otherwise it proves one line
``G > A``, G the conjunction of those hypotheses, outermost binder first.  A
premise with fewer hypotheses is weakened by a projection of G, a discharge
curries with a pinned propositional lemma, and gen and part run under exactly
the hypotheses the checker has found clear of the eigenvariable.  So a node
costs O(h + 1) lines for h open hypotheses.

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
    no level), a node's schema ``instance``, and the ``node`` that an
    instance, whose proposition is ``built``, yields over a leaf proving
    ``built.left``."""

    schemas: tuple[str, ...]
    instance: Callable[[Proof], SchemaInstance]
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
        _sided_node(AndE),
    ),
    OrI: _OnePremise(
        ("inj-l", "inj-r"),
        lambda p: _sided_instance("inj", p, conclusion_of(p.sub)),
        _sided_node(OrI),
    ),
    ForallE: _OnePremise(
        ("UI",),
        lambda p: _quantifier_instance("UI", p),
        lambda inst, built, leaf: ForallE(
            built.right, var=built.left.var, body=built.left.body, term=inst.term("tau"), sub=leaf
        ),
    ),
    ExistsI: _OnePremise(
        ("EI",),
        lambda p: _quantifier_instance("EI", p),
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


# A context is the hypotheses open in a subtree, as the sorted tuple of their
# binders' serials, which grow with depth along a branch.  It stands for G,
# the left-nested conjunction of its hypotheses, outermost first; so a
# premise's context is a part of its node's, with the one it discharges last.
Context = tuple[int, ...]


def _union(a: Context, b: Context) -> Context:
    return tuple(sorted(set(a).union(b))) if a and b and a != b else a or b


class _Walk(_Buf):
    """The lines of one translation, and the catalogue, named instances and
    hypotheses (by serial) its nodes read.  A line under a context states
    ``g > A`` for its conjunction g, or ``A`` under no hypotheses.  A
    premise's result is its line (None for a hypothesis leaf, which is
    stated where it is used) and its context."""

    def __init__(self, cat: Catalogue, instances: Mapping[str, SchemaInstance]):
        super().__init__()
        self.cat = cat
        self.instances = instances
        self.hyps: list[Proposition] = []
        self.conjs: dict[Context, Optional[Proposition]] = {(): None}

    def conj(self, ctx: Context) -> Optional[Proposition]:
        g = self.conjs.get(ctx)
        if g is None and ctx:
            for k in ctx:
                g = self.hyps[k] if g is None else And(g, self.hyps[k])
            self.conjs[ctx] = g
        return g

    def proves(self, res: tuple[Optional[int], Context]) -> Proposition:
        """What a premise's result proves under its context."""
        line, own = res
        if line is None:
            return self.hyps[own[0]]
        return self.line(line).prop.right if own else self.line(line).prop

    def compose(self, first: int, second: int) -> int:
        """a > c from first : a > b and second : b > c; 3 lines."""
        a, b = self.line(first).prop.left, self.line(first).prop.right
        c = self.line(second).prop.right
        k = self.schema("B", [("A", a), ("B", b), ("C", c)])
        return self.add(MpLine(second, self.add(MpLine(first, k), Imp(Imp(b, c), Imp(a, c)))), Imp(a, c))

    def apply(self, g: Optional[Proposition], k: int, res: tuple, ctx: Context, y: Proposition) -> int:
        """g > y from the closed line k : x > y and a premise's result proving x."""
        if res[0] is None and res[1] == ctx:  # the premise is g itself
            return k
        m = self.weaken(res, ctx)
        return self.add(MpLine(m, k), y) if g is None else self.compose(m, k)

    def pair(self, left: int, right: int) -> int:
        """g > (b & c) from left : g > b and right : g > c; 3 lines."""
        g, b = self.line(left).prop.left, self.line(left).prop.right
        c = self.line(right).prop.right
        k = self.schema("pair", [("A", g), ("B", b), ("C", c)])
        k2 = self.add(MpLine(left, k), Imp(Imp(g, c), Imp(g, And(b, c))))
        return self.add(MpLine(right, k2), Imp(g, And(b, c)))

    def select(self, ctx: Context, sub: Context) -> Optional[int]:
        """A line G(ctx) > G(sub), for sub a part of ctx, or None where the
        two are one proposition.  Walking ctx's conjunction from the inside
        out, each hypothesis costs at most 8 lines."""
        i = len(sub) if ctx[:len(sub)] == sub else 0  # a shared prefix is kept as it stands
        g = kept = self.conj(ctx[:i])  # kept : G of sub's part of g's hypotheses, None while empty
        line, sub = None, set(sub[i:])  # line : g > kept, unless kept is g
        for k in ctx[i:]:
            h = self.hyps[k]
            if g is None:
                g, kept = h, (h if k in sub else None)
                continue
            prev, g = g, And(g, h)
            if k in sub:
                if kept is None:
                    line, kept = self.schema("proj-r", [("A", prev), ("B", h)]), h
                elif line is None:
                    kept = g
                else:
                    left = self.compose(self.schema("proj-l", [("A", prev), ("B", h)]), line)
                    right = self.schema("proj-r", [("A", prev), ("B", h)])
                    line, kept = self.pair(left, right), And(kept, h)
            elif kept is not None:
                drop = self.schema("proj-l", [("A", prev), ("B", h)])
                line = drop if line is None else self.compose(drop, line)
        return line

    def weaken(self, res: tuple[Optional[int], Context], ctx: Context) -> int:
        """A premise's line restated under ctx, which holds its context."""
        line, own = res
        if line is None:  # a hypothesis: its projection from ctx
            return self.select(ctx, own) or self.schema("I", [("A", self.hyps[own[0]])])
        if own == ctx:
            return line
        prop = self.line(line).prop
        if not own:
            g = self.conj(ctx)
            return self.add(MpLine(line, self.schema("K", [("A", prop), ("B", g)])), Imp(g, prop))
        s = self.select(ctx, own)
        return line if s is None else self.compose(s, line)

    def curry(self, res: tuple[Optional[int], Context], hyp: int) -> tuple[int, Context]:
        """The result G > (h > A), under the premise's other hypotheses, from
        a premise proving A, in which the hypothesis ``hyp`` stating h may be
        open."""
        h, own = self.hyps[hyp], res[1]
        if own and own[-1] == hyp:
            m, own = self.weaken(res, own), own[:-1]  # (g & h) > A, or h > A
            g = self.conj(own)
            if g is not None:
                a = self.line(m).prop.right
                m = self.add(MpLine(m, _pi2(self, g, h, a)), Imp(g, Imp(h, a)))
            return m, own
        a = self.proves(res)
        return self.apply(self.conj(own), self.schema("K", [("A", a), ("B", h)]), res, own, Imp(h, a)), own

    def eliminate(self, g: Optional[Proposition], minor: tuple, major: tuple, ctx: Context,
                  b: Proposition) -> int:
        """g > b from the results of a minor premise proving a and a major
        one proving a > b.  A closed premise is used as it stands."""
        if not major[1]:
            return self.apply(g, major[0], minor, ctx, b)
        if minor[0] is None and minor[1] == ctx:  # the minor premise is g itself
            return self.add(MpLine(self.weaken(major, ctx), self.schema("W", [("A", g), ("B", b)])), Imp(g, b))
        if minor[1]:
            return _mp_abs_block(self, self.weaken(minor, ctx), self.weaken(major, ctx), g, self.proves(minor), b)
        a = self.line(minor[0]).prop  # a closed minor premise: swap it in front of g
        k = self.schema("C", [("A", g), ("B", a), ("C", b)])
        k = self.add(MpLine(self.weaken(major, ctx), k), Imp(a, Imp(g, b)))
        return self.add(MpLine(minor[0], k), Imp(g, b))


# Each rule gets the walk, the node, its context and conjunction, its premises'
# results in field order, and the serial of the hypothesis each binding
# premise may hold open, by premise field; it returns the node's line.
def _one_premise(w: _Walk, p: Proof, ctx: Context, g, prem: list, bound) -> int:
    inst = ONE_PREMISE[type(p)].instance(p)
    return w.apply(g, w.add(SchemaLine(inst), w.cat.instantiate(inst)), prem[0], ctx, p.conclusion)


def _and_i(w: _Walk, p: AndI, ctx: Context, g, prem: list, bound) -> int:
    m1, m2 = (w.weaken(r, ctx) for r in prem)
    if g is not None:
        return w.pair(m1, m2)
    a, b = conclusion_of(p.left), conclusion_of(p.right)  # paired under a, then applied to m1
    k = w.add(MpLine(m2, w.schema("K", [("A", b), ("B", a)])), Imp(a, b))
    return w.add(MpLine(m1, w.pair(w.schema("I", [("A", a)]), k)), p.conclusion)


def _or_e(w: _Walk, p: OrE, ctx: Context, g, prem: list, bound) -> int:
    # the branches are joined under their own hypotheses only
    left, right = w.curry(prem[1], bound["sub_left"]), w.curry(prem[2], bound["sub_right"])
    own = _union(left[1], right[1])
    gb, d, dis = w.conj(own), p.conclusion, Or(p.left, p.right)
    k = w.schema("case", [("A", p.left), ("B", p.right), ("C", d)])
    k = w.apply(gb, k, left, own, Imp(Imp(p.right, d), Imp(dis, d)))
    k = w.eliminate(gb, right, (k, own), own, Imp(dis, d))
    return w.eliminate(g, prem[0], (k, own), ctx, d)


def _forall_i(w: _Walk, p: ForallI, ctx: Context, g, prem: list, bound) -> int:
    # the premise's context is the node's, so g holds only hypotheses that the
    # checker has found clear of the eigenvariable
    m, closed = w.weaken(prem[0], ctx), g is None
    if closed:  # generalized under true, then applied to a proof of it
        g, a = TRUE, conclusion_of(p.sub)
        m = w.add(MpLine(m, w.schema("K", [("A", a), ("B", TRUE)])), Imp(TRUE, a))
    k = w.add(GenLine(m, p.eigen), Imp(g, p.conclusion))
    return w.add(MpLine(w.add(SchemaLine(instance("T")), TRUE), k), p.conclusion) if closed else k


def _exists_e(w: _Walk, p: ExistsE, ctx: Context, g, prem: list, bound) -> int:
    # part runs over the branch's own hypotheses, which the checker has found
    # clear of the eigenvariable; the major premise's may not be
    hyp = bound["sub"]
    branch, own = w.curry(prem[1], hyp)  # gb > (h > c), or h > c
    gb, c, ex = w.conj(own), p.conclusion, Exists(p.var, p.body)
    if gb is None:
        k = w.add(PartLine(branch, p.eigen), Imp(ex, c))
    else:
        h = w.hyps[hyp]
        branch = w.add(MpLine(branch, w.schema("C", [("A", gb), ("B", h), ("C", c)])), Imp(h, Imp(gb, c)))
        k = w.add(PartLine(branch, p.eigen), Imp(ex, Imp(gb, c)))
        k = w.add(MpLine(k, w.schema("C", [("A", ex), ("B", gb), ("C", c)])), Imp(gb, Imp(ex, c)))
    return w.eliminate(g, prem[0], (k, own), ctx, c)


def _bot_e(w: _Walk, p: BotE, ctx: Context, g, prem: list, bound) -> int:
    m, a, k1 = w.weaken(prem[0], ctx), p.conclusion, None
    if g is None:  # under a > a, then applied to a proof of it
        k1, g = w.schema("I", [("A", a)]), Imp(a, a)
        m = w.add(MpLine(m, w.schema("K", [("A", FALSE), ("B", g)])), Imp(g, FALSE))
    k = w.add(MpLine(m, w.schema("efsq", [("A", g), ("B", a)])), Imp(g, a))
    return k if k1 is None else w.add(MpLine(k1, k), a)


_RULES: dict[type, Callable[..., int]] = {
    Assume: lambda w, p, *_: w.add(SchemaLine(w.instances[p.name]), p.conclusion),  # checked against them
    TopI: lambda w, p, *_: w.add(SchemaLine(instance("T")), TRUE),
    Tnd: lambda w, p, *_: w.add(SchemaLine(instance("TND", templates=[("A", p.disjunct)])), p.conclusion),
    ImpI: lambda w, p, ctx, g, prem, bound: w.weaken(w.curry(prem[0], bound["sub"]), ctx),
    ImpE: lambda w, p, ctx, g, prem, bound: w.eliminate(g, prem[0], prem[1], ctx, p.conclusion),
    AndI: _and_i,
    OrE: _or_e,
    ForallI: _forall_i,
    ExistsE: _exists_e,
    BotE: _bot_e,
    **dict.fromkeys(ONE_PREMISE, _one_premise),
}
_UNBOUND: dict[str, int] = {}


def nd_to_hilbert(
    proof: Proof,
    cat: Catalogue,
    instances: Mapping[str, SchemaInstance] = (),
) -> HilbertProof:
    """The translation into the schematic system, in one walk that keeps its
    own stack.  Each node is translated once, under the hypotheses open in
    its subtree: with none, as the rule's own lines, and otherwise as one
    line ``G > A``, where G conjoins those hypotheses.  So the output has
    O(n · (h + 1)) lines for n inferences and at most h open hypotheses.

    The input must check in pure natural deduction (no rewrite system) with
    assumptions that are schema instances named by ``instances``.
    """
    instances = dict(instances)
    verdict = check_nd(proof, assumptions={name: cat.instantiate(inst) for name, inst in instances.items()})
    if not verdict.ok:
        raise TranslationError(f"input is not a pure closed proof: {verdict.error}")
    w = _Walk(cat, instances)
    done: list[tuple[Optional[int], Context]] = []  # the line and context of each node translated
    stack: list = [(proof, {}, None)]  # a node, the serials of the labels in scope, and once
    while stack:  # its premises are pushed, the serial each binding premise may hold open
        node, scope, bound = stack.pop()
        kind = KINDS[type(node)]
        if bound is None:
            if type(node) is Hyp:
                done.append((None, (scope[node.label],)))
                continue
            if type(node) not in _RULES:
                raise TranslationError(f"cannot translate node {type(node).__name__}")
            inner = bound = _UNBOUND
            if kind.binds:
                bound = {b.scope: len(w.hyps) + i for i, b in enumerate(kind.binds)}
                inner = {b.scope: {**scope, getattr(node, b.label): bound[b.scope]} for b in kind.binds}
                w.hyps += [b.prop(node) for b in kind.binds]
            stack.append((node, scope, bound))
            stack.extend((getattr(node, name), inner.get(name, scope), None) for name in reversed(kind.premises))
            continue
        cut = len(done) - len(kind.premises)
        prem = done[cut:]
        del done[cut:]
        ctx: Context = ()
        for name, (_, own) in zip(kind.premises, prem):
            if own:
                ctx = _union(ctx, own[:-1] if own[-1] == bound.get(name) else own)
        done.append((_RULES[type(node)](w, node, ctx, w.conj(ctx) if ctx else None, prem, bound), ctx))
    root = done[0][0]  # the lines after it, if any, are not cited
    return HilbertProof(tuple(w.lines[:root]))


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
