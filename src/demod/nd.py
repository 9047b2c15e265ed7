"""Natural deduction modulo: proof objects and the checker.

Every node states its conclusion.  Where a rule applies "modulo" (the side
conditions of the form C <->* A > B), the node carries enough witnesses to
reduce checking to congruence tests, and each congruence obligation may carry
an explicit rewrite trace (``via``).  Obligations without a trace are decided
by normalization; in ``witnessed`` mode a missing trace is only accepted for
alpha-equal sides.

Proof length is the number of inference nodes; hypothesis and assumption
leaves do not count.

Each node kind is described once, in ``KINDS``: the checker, the tree
walkers, the translators and the file format all read that table, and each
node class is generated from its entry.  A node's positional fields are its
file layout in order, then its traces (``via``, then ``via2``).
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Mapping, Optional, Union

from .rewriting import (
    CongruenceError,
    EMPTY_SYSTEM,
    FuelExhausted,
    RewriteSystem,
    Trace,
    _normal_forms,
    connecting_trace,
    verify_trace,
)
from .syntax import (
    And,
    Exists,
    FALSE,
    Forall,
    Imp,
    Or,
    Proposition,
    TRUE,
    Var,
    alpha_equal,
    apply_substitution,
    free_variables,
)
from .theories import ZERO, member, s_


class _Node:
    """The base of the proof-node kinds.  Equality and ``repr`` mean what the
    dataclass ones would (field by field in declaration order, and
    ``Kind(field=value, ...)``), but each is one walk with its own stack over
    the premises that ``KINDS`` names, so any depth is compared and printed.
    The hash reads the node's own conclusion only."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.__class__ is not b.__class__:
                return False
            for name, premise in _FIELDS[type(a)]:
                x, y = getattr(a, name), getattr(b, name)
                if x is y:
                    continue
                if premise and isinstance(x, _Node):
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self) -> int:
        return hash((type(self), conclusion_of(self)))  # equal nodes state equal conclusions

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # nodes to print, and the texts between them
        while stack:
            x = stack.pop()
            if not isinstance(x, _Node):
                out.append(x)
                continue
            parts = [f"{type(x).__qualname__}("]
            for i, (name, premise) in enumerate(_FIELDS[type(x)]):
                value = getattr(x, name)
                parts += (f"{', ' if i else ''}{name}=",
                          value if premise and isinstance(value, _Node) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)


Proof = _Node


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# The node kinds, described once


@dataclass(frozen=True)
class Obligation:
    """A congruence ``left <->* right`` that the node's trace ``slot`` may witness.

    ``left`` is ``"conclusion"`` for the node's own conclusion, otherwise the
    premise field whose conclusion is the left side.
    """

    left: str
    right: Callable[[Proof], Proposition]
    slot: str = "via"

    def left_side(self, p: Proof) -> Proposition:
        return p.conclusion if self.left == "conclusion" else conclusion_of(getattr(p, self.left))


@dataclass(frozen=True)
class Binding:
    """The hypotheses labelled by field ``label`` are discharged in premise
    ``scope``, and each must state ``prop(node)``."""

    label: str
    scope: str
    prop: Callable[[Proof], Proposition]


Opened = dict[str, tuple[list[tuple[str, Proposition]], list[Proposition]]]


@dataclass(frozen=True)
class Kind:
    """One proof-node kind: its file tag, its fields in file order, each marked
    ``prop``, ``term``, ``var``, ``label`` or ``proof`` (a premise), its
    obligations and hypothesis bindings, and the side conditions it adds.

    ``before`` runs ahead of the obligations and ``after`` once the bindings
    are discharged; both get the node and the open hypotheses and assumption
    propositions of each premise, keyed by premise field.
    """

    tag: str
    layout: tuple[tuple[str, str], ...]
    obligations: tuple[Obligation, ...] = ()
    binds: tuple[Binding, ...] = ()
    before: Optional[Callable[[Proof, Opened], None]] = None
    after: Optional[Callable[[Proof, Opened], None]] = None

    @cached_property
    def premises(self) -> tuple[str, ...]:
        return tuple(name for name, field_kind in self.layout if field_kind == "proof")

    @cached_property
    def vias(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(ob.slot for ob in self.obligations))


def _freshness(eigen: Var, props: Iterable[Proposition], where: str) -> None:
    for prop in props:
        if eigen in free_variables(prop):
            raise CheckFailure(f"eigenvariable {eigen} is free in {where}: {prop}")


def _side(p: Union[AndE, OrI], opened: Opened) -> None:
    if p.side not in ("left", "right"):
        raise CheckFailure(f"bad side {p.side!r}")


def _forall_i(p: ForallI, opened: Opened) -> None:
    hyps, assums = opened["sub"]
    want = apply_substitution(p.body, {p.var: p.eigen})
    if not alpha_equal(conclusion_of(p.sub), want):
        raise CheckFailure(f"universal introduction premise {conclusion_of(p.sub)} is not {want}")
    if p.eigen != p.var and p.eigen in free_variables(p.body):
        raise CheckFailure(f"eigenvariable {p.eigen} occurs in the generalized body")
    _freshness(p.eigen, (prop for _, prop in hyps), "an open hypothesis")
    _freshness(p.eigen, assums, "an assumption")


def _or_e(p: OrE, opened: Opened) -> None:
    if not alpha_equal(conclusion_of(p.sub_left), p.conclusion):
        raise CheckFailure("left branch of case split does not prove the conclusion")
    if not alpha_equal(conclusion_of(p.sub_right), p.conclusion):
        raise CheckFailure("right branch of case split does not prove the conclusion")


def _exists_e(p: ExistsE, opened: Opened) -> None:
    if not alpha_equal(conclusion_of(p.sub), p.conclusion):
        raise CheckFailure("existential elimination branch does not prove the conclusion")
    if p.eigen != p.var and p.eigen in free_variables(p.body):
        raise CheckFailure(f"eigenvariable {p.eigen} occurs in the witness body")
    hyps, assums = opened["sub"]
    _freshness(p.eigen, [p.conclusion], "the conclusion")
    _freshness(p.eigen, (prop for _, prop in hyps), "an open hypothesis")
    _freshness(p.eigen, assums, "an assumption")


def _ind_i(p: IndI, opened: Opened) -> None:
    if not alpha_equal(conclusion_of(p.base), member([ZERO], p.cls)):
        raise CheckFailure("induction base premise must conclude <0> eps class")
    if not alpha_equal(conclusion_of(p.step), member([s_(p.eigen)], p.cls)):
        raise CheckFailure("induction step premise must conclude <s(eigen)> eps class")
    if not alpha_equal(p.conclusion, member([p.term], p.cls)):
        raise CheckFailure("induction conclusion must be <term> eps class")
    _freshness(p.eigen, [p.conclusion], "the conclusion")
    _freshness(p.eigen, (prop for hyps, _ in opened.values() for _, prop in hyps),
               "an open hypothesis")
    _freshness(p.eigen, (prop for _, assums in opened.values() for prop in assums),
               "an assumption")


def _and_shape(p: AndE) -> Proposition:
    return And(p.conclusion, p.other) if p.side == "left" else And(p.other, p.conclusion)


def _or_shape(p: OrI) -> Proposition:
    c = conclusion_of(p.sub)
    return Or(c, p.other) if p.side == "left" else Or(p.other, c)


def _instance(p: Union[ForallE, ExistsI]) -> Proposition:
    return apply_substitution(p.body, {p.var: p.term})


KINDS: dict[type, Kind] = {}
# each kind's fields in declaration order, each with whether it is a premise
_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {}


def _node(name: str, kind: Kind) -> type:
    """A frozen proof-node class whose fields are ``kind``'s layout in file
    order, then a trace defaulting to None for each of its slots; the kind is
    recorded in KINDS."""
    layout = [field for field, _ in kind.layout]
    cls = make_dataclass(name, layout + [(slot, Optional[Trace], None) for slot in kind.vias],
                         bases=(_Node,), frozen=True, eq=False, repr=False,
                         namespace={"__module__": __name__})
    KINDS[cls] = kind
    _FIELDS[cls] = tuple((field, field in kind.premises) for field in layout + list(kind.vias))
    return cls


Hyp = _node("Hyp", Kind("hyp", (("label", "label"), ("conclusion", "prop"))))
Assume = _node("Assume", Kind("assume", (("name", "label"), ("conclusion", "prop"))))
ImpI = _node("ImpI", Kind(
    "imp-i",
    (("conclusion", "prop"), ("hyp", "prop"), ("label", "label"), ("sub", "proof")),
    (Obligation("conclusion", lambda p: Imp(p.hyp, conclusion_of(p.sub))),),
    (Binding("label", "sub", lambda p: p.hyp),),
))
ImpE = _node("ImpE", Kind(
    "imp-e",
    (("conclusion", "prop"), ("minor", "proof"), ("major", "proof")),
    (Obligation("major", lambda p: Imp(conclusion_of(p.minor), p.conclusion)),),
))
AndI = _node("AndI", Kind(
    "and-i",
    (("conclusion", "prop"), ("left", "proof"), ("right", "proof")),
    (Obligation("conclusion", lambda p: And(conclusion_of(p.left), conclusion_of(p.right))),),
))
AndE = _node("AndE", Kind(  # side: which component the conclusion is
    "and-e",
    (("conclusion", "prop"), ("side", "label"), ("other", "prop"), ("sub", "proof")),
    (Obligation("sub", _and_shape),),
    before=_side,
))
OrI = _node("OrI", Kind(  # side: which side the premise proves
    "or-i",
    (("conclusion", "prop"), ("side", "label"), ("other", "prop"), ("sub", "proof")),
    (Obligation("conclusion", _or_shape),),
    before=_side,
))
OrE = _node("OrE", Kind(
    "or-e",
    (("conclusion", "prop"), ("left", "prop"), ("right", "prop"), ("label_left", "label"),
     ("label_right", "label"), ("major", "proof"), ("sub_left", "proof"),
     ("sub_right", "proof")),
    (Obligation("major", lambda p: Or(p.left, p.right)),),
    (Binding("label_left", "sub_left", lambda p: p.left),
     Binding("label_right", "sub_right", lambda p: p.right)),
    after=_or_e,
))
ForallI = _node("ForallI", Kind(
    "forall-i",
    (("conclusion", "prop"), ("var", "var"), ("body", "prop"), ("eigen", "var"),
     ("sub", "proof")),
    (Obligation("conclusion", lambda p: Forall(p.var, p.body)),),
    before=_forall_i,
))
ForallE = _node("ForallE", Kind(
    "forall-e",
    (("conclusion", "prop"), ("var", "var"), ("body", "prop"), ("term", "term"),
     ("sub", "proof")),
    (Obligation("sub", lambda p: Forall(p.var, p.body)),
     Obligation("conclusion", _instance, "via2")),
))
ExistsI = _node("ExistsI", Kind(
    "exists-i",
    (("conclusion", "prop"), ("var", "var"), ("body", "prop"), ("term", "term"),
     ("sub", "proof")),
    (Obligation("conclusion", lambda p: Exists(p.var, p.body)),
     Obligation("sub", _instance, "via2")),
))
ExistsE = _node("ExistsE", Kind(
    "exists-e",
    (("conclusion", "prop"), ("var", "var"), ("body", "prop"), ("eigen", "var"),
     ("label", "label"), ("major", "proof"), ("sub", "proof")),
    (Obligation("major", lambda p: Exists(p.var, p.body)),),
    (Binding("label", "sub", lambda p: apply_substitution(p.body, {p.var: p.eigen})),),
    after=_exists_e,
))
TopI = _node("TopI", Kind("top-i", (("conclusion", "prop"),), (Obligation("conclusion", lambda p: TRUE),)))
BotE = _node("BotE", Kind(
    "bot-e",
    (("conclusion", "prop"), ("sub", "proof")),
    (Obligation("sub", lambda p: FALSE),),
))
Tnd = _node("Tnd", Kind(
    "tnd",
    (("conclusion", "prop"), ("disjunct", "prop")),
    (Obligation("conclusion", lambda p: Or(p.disjunct, Imp(p.disjunct, FALSE))),),
))
IndI = _node("IndI", Kind(  # induction as an inference rule, replacing the induction rewrite rule
    "ind-i",
    (("conclusion", "prop"), ("cls", "term"), ("term", "term"), ("eigen", "var"),
     ("label", "label"), ("base", "proof"), ("step", "proof")),
    binds=(Binding("label", "step", lambda p: member([p.eigen], p.cls)),),
    after=_ind_i,
))

LEAVES = (Hyp, Assume)


def premises(p: Proof) -> tuple[Proof, ...]:
    kind = KINDS.get(type(p))
    return () if kind is None else tuple(getattr(p, name) for name in kind.premises)


def conclusion_of(p: Proof) -> Proposition:
    return p.conclusion


def obligations(p: Proof) -> tuple[tuple[Proposition, Proposition, str], ...]:
    """The congruence obligations of one node as (left, right, via-field) triples."""
    return tuple((ob.left_side(p), ob.right(p), ob.slot) for ob in KINDS[type(p)].obligations)


def fold_proof(p: Proof, fn: Callable[[Proof, list], object]):
    """Walk ``p`` bottom-up, giving each node's result as ``fn(node, results)``,
    where ``results`` are its premises' results in field order.  The walk
    keeps its own stack, so it reaches any depth."""
    done: list = []
    stack: list[tuple[Proof, bool]] = [(p, False)]
    while stack:
        node, ready = stack.pop()
        kind = KINDS.get(type(node))
        names = () if kind is None else kind.premises
        if not ready:
            stack.append((node, True))
            stack.extend((getattr(node, name), False) for name in reversed(names))
            continue
        cut = len(done) - len(names)
        results = done[cut:]
        del done[cut:]
        done.append(fn(node, results))
    return done[0]


def map_proof(p: Proof, fn: Callable[[Proof], Proof]) -> Proof:
    """Rebuild ``p`` bottom-up: each node, with its premises already rebuilt,
    is replaced by ``fn(node)``.  Premises are visited in field order."""

    def rebuild(node: Proof, parts: list[Proof]) -> Proof:
        names = KINDS[type(node)].premises
        return fn(replace(node, **dict(zip(names, parts))) if names else node)

    return fold_proof(p, rebuild)


def nd_length(p: Proof) -> int:
    """Number of inference nodes; leaves are not inferences."""
    count = 0
    stack = [p]
    while stack:
        node = stack.pop()
        if not isinstance(node, LEAVES):
            count += 1
        kind = KINDS.get(type(node))  # read the table directly: this runs on every check
        if kind is not None:
            for name in kind.premises:
                stack.append(getattr(node, name))
    return count


def proof_size(p: Proof) -> int:
    count = 0
    stack = [p]
    while stack:
        count += 1
        stack.extend(premises(stack.pop()))
    return count


@dataclass(frozen=True)
class Verdict:
    ok: bool
    length: int
    error: Optional[str] = None
    rewrite_steps: int = 0

    def __bool__(self) -> bool:
        return self.ok


MODES = ("auto", "witnessed", "mixed")


@dataclass
class _Ctx:
    assumptions: Mapping[str, Proposition]
    system: RewriteSystem
    mode: str
    fuel: Optional[int]
    steps: int = 0

    def congruent(self, p: Proposition, q: Proposition, via: Optional[Trace]) -> None:
        """Require p <->* q, by trace replay or by normalization."""
        if alpha_equal(p, q):
            return
        if via is not None and self.mode in ("witnessed", "mixed"):
            if not verify_trace(p, q, via, self.system):
                raise CheckFailure(f"trace does not certify {p} <->* {q}")
            self.steps += len(via)
            return
        if self.mode == "witnessed":
            raise CheckFailure(f"missing trace for {p} <->* {q} in witnessed mode")
        try:
            joined, (nf_p, n_p), (nf_q, n_q) = _normal_forms(
                p, q, self.system.congruence_system(), self.fuel
            )
        except (CongruenceError, FuelExhausted) as exc:
            raise CheckFailure(f"cannot decide {p} <->* {q}: {exc}") from exc
        self.steps += n_p + n_q
        if not joined:
            raise CheckFailure(f"congruence fails: {p} and {q} have normal forms {nf_p} vs {nf_q}")


def check_nd(
    proof: Proof,
    assumptions: Mapping[str, Proposition] | Iterable[tuple[str, Proposition]] = (),
    system: Optional[RewriteSystem] = None,
    mode: str = "auto",
    fuel: Optional[int] = None,
) -> Verdict:
    """Check a natural-deduction-modulo proof; all hypotheses must discharge."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if system is None:
        system = EMPTY_SYSTEM
    if not isinstance(assumptions, Mapping):
        assumptions = dict(assumptions)
    ctx = _Ctx(assumptions, system, mode, fuel)
    length = nd_length(proof)
    try:
        open_hyps, _ = fold_proof(proof, partial(_check, ctx))
    except CheckFailure as exc:
        return Verdict(False, length, str(exc), ctx.steps)
    if open_hyps:
        labels = sorted({label for label, _ in open_hyps})
        return Verdict(False, length, f"undischarged hypotheses {labels}", ctx.steps)
    return Verdict(True, length, None, ctx.steps)


def _discharge(
    open_hyps: list[tuple[str, Proposition]], label: str, expected: Proposition
) -> list[tuple[str, Proposition]]:
    remaining = []
    for lab, prop in open_hyps:
        if lab == label:
            if not alpha_equal(prop, expected):
                raise CheckFailure(
                    f"hypothesis [{label}] states {prop}, discharge expects {expected}"
                )
        else:
            remaining.append((lab, prop))
    return remaining


def _check(
    ctx: _Ctx, p: Proof, results: list[tuple[list, list]]
) -> tuple[list[tuple[str, Proposition]], list[Proposition]]:
    """Check one node, given the open hypotheses and assumption propositions of
    each premise's subtree; returns those of the node's subtree."""
    if isinstance(p, Hyp):
        return [(p.label, p.conclusion)], []
    if isinstance(p, Assume):
        stated = ctx.assumptions.get(p.name)
        if stated is None:
            raise CheckFailure(f"assumption {p.name!r} is not among the named assumptions")
        if not alpha_equal(stated, p.conclusion):
            raise CheckFailure(f"assumption {p.name!r} states {stated}, leaf says {p.conclusion}")
        return [], [p.conclusion]

    kind = KINDS.get(type(p))
    if kind is None:
        raise CheckFailure(f"unknown proof node {p!r}")
    opened: Opened = dict(zip(kind.premises, results))
    if kind.before is not None:
        kind.before(p, opened)
    for ob in kind.obligations:
        ctx.congruent(ob.left_side(p), ob.right(p), getattr(p, ob.slot))
    for b in kind.binds:
        hyps, assums = opened[b.scope]
        opened[b.scope] = _discharge(hyps, getattr(p, b.label), b.prop(p)), assums
    if kind.after is not None:
        kind.after(p, opened)
    hyps, assums = [], []
    for h, a in opened.values():
        hyps += h
        assums += a
    return hyps, assums


# ---------------------------------------------------------------------------
# Trace witnessing


def witness_all(p: Proof, system: RewriteSystem, fuel: Optional[int] = None) -> Proof:
    """Attach an explicit trace to every nontrivial obligation lacking one.

    Obligations with traces keep them; the rest are connected through the
    congruence system, so the result checks in witnessed mode.
    """

    def attach(node: Proof) -> Proof:
        for left, right, slot in obligations(node):
            if getattr(node, slot) is None and not alpha_equal(left, right):
                node = replace(node, **{slot: connecting_trace(left, right, system, fuel)})
        return node

    return map_proof(p, attach)
