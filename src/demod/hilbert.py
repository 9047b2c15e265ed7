"""The schematic (Hilbert-type) system for higher-order arithmetic.

Axiom schemata are instantiated through explicit witnesses: a schema instance
assigns proposition templates to proposition variables, terms to term
variables and variables to metavariables, so checking a line is substitution
plus side-condition tests, never higher-order matching.  Each schema family
is declared once, in ``SCHEMATA``; a catalogue's ids and checks derive from it.

Proof length is the line count.  Each justification kind is described once,
in ``JUSTIFICATIONS``, and its class is generated from that entry: its
positional fields are its file layout in order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, make_dataclass
from functools import cache
from typing import Callable, Optional, Sequence

from .syntax import (
    Exists,
    FALSE,
    Forall,
    Imp,
    Or,
    Proposition,
    Sort,
    TRUE,
    Term,
    Var,
    alpha_equal,
    And,
    apply_substitution,
    arith,
    canonical_number,
    free_variables,
    freely_substitutable,
    iff,
    sort_of,
)
from .nd import Verdict
from .theories import (
    OrderConfig,
    ZERO,
    eq,
    mem,
    refl_axiom,
    robinson_axioms,
    s_,
)


class SchemaError(Exception):
    """A schema instance violates arity, sorts or a side condition."""


@dataclass(frozen=True)
class Template:
    """A proposition with term holes: the instantiation of A(x1..xn)."""

    params: tuple[Var, ...]
    body: Proposition

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise SchemaError("template parameters must be distinct")

    @property
    def arity(self) -> tuple[Sort, ...]:
        return tuple(v.sort for v in self.params) if self.params else ()  # most are closed

    def apply(self, args: Sequence[Term]) -> Proposition:
        if len(args) != len(self.params):
            raise SchemaError(f"template of arity {len(self.params)} applied to {len(args)}")
        for v, t in zip(self.params, args):
            if sort_of(t) != v.sort:
                raise SchemaError(f"template argument {t} has sort {sort_of(t)}, wants {v.sort}")
        return apply_substitution(self.body, dict(zip(self.params, args)))

    def outer_free(self) -> frozenset[Var]:
        return free_variables(self.body) - set(self.params)


def closed_template(p: Proposition) -> Template:
    return Template((), p)


@dataclass(frozen=True)
class SchemaInstance:
    schema: str
    templates: tuple[tuple[str, Template], ...] = ()
    terms: tuple[tuple[str, Term], ...] = ()
    metavars: tuple[tuple[str, Var], ...] = ()

    def template(self, name: str) -> Template:
        for n, t in self.templates:
            if n == name:
                return t
        raise SchemaError(f"{self.schema}: missing proposition variable {name}")

    def prop(self, name: str) -> Proposition:
        t = self.template(name)
        if t.params:
            raise SchemaError(f"{self.schema}: {name} must have arity 0")
        return t.body

    def term(self, name: str) -> Term:
        for n, t in self.terms:
            if n == name:
                return t
        raise SchemaError(f"{self.schema}: missing term variable {name}")

    def metavar(self, name: str, default: Var) -> Var:
        for n, v in self.metavars:
            if n == name:
                return v
        return default


def instance(schema: str, templates=(), terms=(), metavars=()) -> SchemaInstance:
    return SchemaInstance(
        schema,
        tuple((n, t if isinstance(t, Template) else closed_template(t)) for n, t in templates),
        tuple(terms),
        tuple(metavars),
    )


# ---------------------------------------------------------------------------
# The catalogue


def _binders(name: str, templates: list[Template], terms: list[Term], metavars: list[Var]) -> None:
    """No metavariable, which the schema binds, is free in an instance."""
    for v in metavars:
        for t in templates:
            if v in t.outer_free():
                raise SchemaError(f"{name}: bound metavariable {v} is free in an instance")


def _substitutable(name: str, templates: list[Template], terms: list[Term], metavars: list[Var]) -> None:
    """UI and EI: the binder test, then the term substitutes freely for A's parameter."""
    _binders(name, templates, terms, metavars)
    (a,), (tau,) = templates, terms
    if not freely_substitutable(tau, a.params[0], a.body):
        raise SchemaError(f"{name}: {tau} is not freely substitutable in the instance")


def _distinct(name: str, templates: list[Template], terms: list[Term], metavars: list[Var]) -> None:
    """leibniz: its metavariables differ, then the binder test."""
    if len(set(metavars)) != len(metavars):
        raise SchemaError(f"{name}: alpha and beta must be distinct")
    _binders(name, templates, terms, metavars)


@dataclass(frozen=True)
class Schema:
    """One axiom-schema family.  Sorts are arithmetic levels relative to the
    family's level j: ``props`` gives each proposition variable its arity,
    ``terms`` each term variable its sort, ``metavars`` each metavariable the
    schema binds its default name and sort.  A family has no level (None,
    read at j = 0) or exists at the levels 0..top-``levels``; a ``classical``
    one only in classical catalogues.  ``build`` takes the proposition
    variables (a proposition at arity 0), terms and metavariables in declared
    order; ``check`` tests the side conditions once arities and sorts hold."""

    build: Callable[..., Proposition]
    props: tuple[tuple[str, tuple[int, ...]], ...] = ()
    terms: tuple[tuple[str, int], ...] = ()
    metavars: tuple[tuple[str, str, int], ...] = ()
    levels: Optional[int] = None
    classical: bool = False
    check: Callable[[str, list[Template], list[Term], list[Var]], None] = _binders


def _closed(*names: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
    return tuple((n, ()) for n in names)


_A = (("A", (0,)),)  # A(x), x at the family's level
_AB = (("alpha", "a", 0), ("beta", "b", 0))
_QUANTIFIER = dict(props=_A, terms=(("tau", 0),), metavars=(("alpha", "a", 0),), levels=0,
                   check=_substitutable)

# Every schema family, in catalogue order.  Consecutive families with the same
# levels are listed level by level: UI^0, EI^0, UI^1, EI^1, ...
SCHEMATA: dict[str, Schema] = {
    "I": Schema(lambda a: Imp(a, a), _closed("A")),
    "K": Schema(lambda a, b: Imp(a, Imp(b, a)), _closed("A", "B")),
    "W": Schema(lambda a, b: Imp(Imp(a, Imp(a, b)), Imp(a, b)), _closed("A", "B")),
    "C": Schema(lambda a, b, c: Imp(Imp(a, Imp(b, c)), Imp(b, Imp(a, c))), _closed("A", "B", "C")),
    "B": Schema(lambda a, b, c: Imp(Imp(a, b), Imp(Imp(b, c), Imp(a, c))), _closed("A", "B", "C")),
    "proj-l": Schema(lambda a, b: Imp(And(a, b), a), _closed("A", "B")),
    "proj-r": Schema(lambda a, b: Imp(And(a, b), b), _closed("A", "B")),
    "pair": Schema(lambda a, b, c: Imp(Imp(a, b), Imp(Imp(a, c), Imp(a, And(b, c)))), _closed("A", "B", "C")),
    "inj-l": Schema(lambda a, b: Imp(a, Or(a, b)), _closed("A", "B")),
    "inj-r": Schema(lambda a, b: Imp(b, Or(a, b)), _closed("A", "B")),
    "case": Schema(lambda a, b, c: Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c))), _closed("A", "B", "C")),
    "contradiction": Schema(lambda a, b: Imp(Imp(a, b), Imp(Imp(a, Imp(b, FALSE)), Imp(a, FALSE))),
                            _closed("A", "B")),
    "efsq": Schema(lambda a, b: Imp(Imp(a, FALSE), Imp(a, b)), _closed("A", "B")),
    "T": Schema(lambda: TRUE),
    "TND": Schema(lambda a: Or(a, Imp(a, FALSE)), _closed("A"), classical=True),
    "UI": Schema(lambda a, tau, x: Imp(Forall(x, a.apply([x])), a.apply([tau])), **_QUANTIFIER),
    "EI": Schema(lambda a, tau, x: Imp(a.apply([tau]), Exists(x, a.apply([x]))), **_QUANTIFIER),
    "refl": Schema(refl_axiom),
    "leibniz": Schema(lambda a, x, y: Forall(x, Forall(y, Imp(eq(x, y), Imp(a.apply([x]), a.apply([y]))))),
                      _A, metavars=_AB, check=_distinct),
    # built once: instances share them
    **{name: Schema(lambda p=p: p) for name, p in robinson_axioms()},
    "ind": Schema(lambda a, x, y: Imp(a.apply([ZERO]), Imp(Forall(y, Imp(a.apply([y]), a.apply([s_(y)]))),
                                                          Forall(x, a.apply([x])))), _A, metavars=_AB),
    "comp": Schema(lambda a, x, y: Exists(x, Forall(y, iff(mem(y.sort.level, y, x), a.apply([y])))),
                   _A, metavars=(("alpha", "a", 1), ("beta", "b", 0)), levels=1),
}


def schema_id(family: str, j: int) -> str:
    """The id of ``family``'s schema at level ``j``: ``comp^1``, or ``K``."""
    return family if SCHEMATA[family].levels is None else f"{family}^{j}"


def split_schema_id(name: str) -> tuple[str, int]:
    """The family and level of a schema id: ``comp^1`` is ``("comp", 1)``;
    an id without a level, ``K`` say, is its family at level 0.  A level is
    written as sorts are, so ``comp^01`` raises ValueError."""
    family, caret, level = name.partition("^")
    if caret and not canonical_number(level):
        raise ValueError(f"schema {name!r} has no level {level!r}")
    return family, int(level) if caret else 0


@cache  # shared by equal catalogues: every `demod check-hilbert` builds its own
def _schema_index(top: int, classical: bool) -> dict[str, tuple]:
    """Each schema id of a catalogue, in order, to its entry and, at the id's level, each
    proposition variable's arity, term variable's sort and metavariable's default."""
    index = {}
    enabled = [(f, s) for f, s in SCHEMATA.items() if classical or not s.classical]
    for levels, run in itertools.groupby(enabled, key=lambda e: e[1].levels):
        run = list(run)
        for j in range(1 if levels is None else top + 1 - levels):
            for family, schema in run:
                index[schema_id(family, j)] = (
                    schema,
                    tuple((v, tuple(arith(j + k) for k in arity)) for v, arity in schema.props),
                    tuple((v, arith(j + k)) for v, k in schema.terms),
                    tuple((v, Var(name, arith(j + k))) for v, name, k in schema.metavars),
                )
    return index


@dataclass(frozen=True)
class Catalogue:
    """Schemata and rules of the schematic system over sorts 0..top."""

    top: int
    classical: bool = True

    def axiom_schema_ids(self) -> tuple[str, ...]:
        return tuple(_schema_index(self.top, self.classical))

    def instantiate(self, inst: SchemaInstance) -> Proposition:
        name = inst.schema
        found = _schema_index(self.top, self.classical).get(name)
        if found is None:
            raise SchemaError(f"unknown or disabled schema {name!r}")
        schema, props, terms, metavars = found
        templates, args = [], []
        for var, arity in props:
            t = inst.template(var)
            if t.arity != arity:
                want = f"[{', '.join(map(str, arity))}]" if arity else "0"
                raise SchemaError(f"{name}: {var} must have arity {want}")
            templates.append(t)
            args.append(t if arity else t.body)
        for var, sort in terms:
            tau = inst.term(var)
            if sort_of(tau) != sort:
                raise SchemaError(f"{name}: term has sort {sort_of(tau)}, wants {sort}")
            args.append(tau)
        bound = []
        for var, default in metavars:
            v = inst.metavar(var, default)
            if v.sort != default.sort:
                raise SchemaError(f"{name}: metavariable {var} has sort {v.sort}, wants {default.sort}")
            bound.append(v)
        if bound:  # each side condition is about the variables the schema binds
            schema.check(name, templates, args[len(props):], bound)
        return schema.build(*args, *bound)


def zi_axiom_schemata(cfg: OrderConfig, classical: bool = True) -> Catalogue:
    """The schematic system of order-i arithmetic: sorts 0..i-1."""
    return Catalogue(cfg.i - 1, classical)


# ---------------------------------------------------------------------------
# Proof objects


@dataclass(frozen=True)
class JustKind:
    """One justification kind: its file tag and its fields in file order, each
    marked ``line`` (the number of an earlier line), ``var``, ``label`` or
    ``instance``.  A schema justification is written as its instance's own
    ``(schema ...)`` form."""

    tag: str
    layout: tuple[tuple[str, str], ...]


JUSTIFICATIONS: dict[type, JustKind] = {}


def _justification(name: str, kind: JustKind) -> type:
    """A frozen justification class whose fields are ``kind``'s layout in file
    order; the kind is recorded in JUSTIFICATIONS."""
    cls = make_dataclass(name, [field for field, _ in kind.layout], frozen=True,
                         namespace={"__module__": __name__})
    JUSTIFICATIONS[cls] = kind
    return cls


SchemaLine = _justification("SchemaLine", JustKind("schema", (("instance", "instance"),)))
# the minor line proves A, the major one A > B
MpLine = _justification("MpLine", JustKind("mp", (("minor", "line"), ("major", "line"))))
GenLine = _justification("GenLine", JustKind("gen", (("ref", "line"), ("eigen", "var"))))
PartLine = _justification("PartLine", JustKind("part", (("ref", "line"), ("eigen", "var"))))
# an undischarged assumption line; only for intermediate proofs
HypLine = _justification("HypLine", JustKind("hyp", (("label", "label"),)))


@dataclass(frozen=True)
class QuantifierRule:
    """Generalization or particularization.  From ``A > B[e/x]``, gen concludes
    ``A > all x. B``; from ``B[e/x] > A``, part concludes ``(ex x. B) > A``;
    the eigenvariable ``e`` must not be free in the conclusion.  ``side`` is
    the side of the implication that holds the quantifier ``binder``, and
    ``shape`` the conclusion's form as error messages state it."""

    name: str
    binder: type
    side: str
    shape: str

    def premise(self, conclusion: Imp, eigen: Var) -> Imp:
        """The premise that concludes ``conclusion`` with eigenvariable ``eigen``."""
        q = getattr(conclusion, self.side)
        opened = apply_substitution(q.body, {q.var: eigen})
        return Imp(conclusion.left, opened) if self.side == "right" else Imp(opened, conclusion.right)


QUANTIFIER_RULES: dict[type, QuantifierRule] = {
    GenLine: QuantifierRule("generalization", Forall, "right", "A > all x. B"),
    PartLine: QuantifierRule("particularization", Exists, "left", "(ex x. B) > A"),
}


@dataclass(frozen=True)
class Line:
    just: object  # an instance of a class in JUSTIFICATIONS
    prop: Proposition


@dataclass(frozen=True)
class HilbertProof:
    lines: tuple[Line, ...]

    def conclusion(self) -> Proposition:
        if not self.lines:
            raise SchemaError("empty proof has no conclusion")
        return self.lines[-1].prop


def hilbert_length(proof: HilbertProof) -> int:
    return len(proof.lines)


def check_hilbert(
    proof: HilbertProof,
    catalogue: Catalogue,
    open_hypotheses: bool = False,
) -> Verdict:
    n = len(proof.lines)
    if n == 0:
        return Verdict(False, 0, "empty proof")

    def fail(k: int, message: str) -> Verdict:
        return Verdict(False, n, f"line {k + 1}: {message}")

    for k, line in enumerate(proof.lines):
        just = line.just
        if isinstance(just, SchemaLine):
            try:
                built = catalogue.instantiate(just.instance)
            except SchemaError as exc:
                return fail(k, str(exc))
            if not alpha_equal(built, line.prop):
                return fail(k, f"schema {just.instance.schema} yields {built}, line says {line.prop}")
        elif isinstance(just, MpLine):
            if not (1 <= just.minor <= k and 1 <= just.major <= k):
                return fail(k, "modus ponens must reference earlier lines")
            minor = proof.lines[just.minor - 1].prop
            major = proof.lines[just.major - 1].prop
            if not alpha_equal(major, Imp(minor, line.prop)):
                return fail(k, f"modus ponens shape mismatch: {major} vs {minor} > {line.prop}")
        elif isinstance(just, (GenLine, PartLine)):
            rule = QUANTIFIER_RULES[type(just)]
            if not 1 <= just.ref <= k:
                return fail(k, f"{rule.name} must reference an earlier line")
            shape = line.prop
            q = getattr(shape, rule.side) if isinstance(shape, Imp) else None
            if not isinstance(q, rule.binder):
                return fail(k, f"{rule.name} concludes {rule.shape}")
            if just.eigen.sort != q.var.sort:
                return fail(k, f"{rule.name} eigenvariable has the wrong sort")
            if just.eigen in free_variables(shape):
                return fail(k, f"eigenvariable {just.eigen} is free in the conclusion")
            expected = rule.premise(shape, just.eigen)
            if not alpha_equal(proof.lines[just.ref - 1].prop, expected):
                return fail(k, f"{rule.name} premise should be {expected}")
        elif isinstance(just, HypLine):
            if not open_hypotheses:
                return fail(k, f"hypothesis line [{just.label}] in a closed proof")
        else:
            return fail(k, f"unknown justification {just!r}")
    return Verdict(True, n, None)


# ---------------------------------------------------------------------------
# Small constructors used by translators and tests


def schema_line(inst: SchemaInstance, prop: Proposition) -> Line:
    return Line(SchemaLine(inst), prop)


def mp(minor: int, major: int, prop: Proposition) -> Line:
    return Line(MpLine(minor, major), prop)


def gen(ref: int, eigen: Var, prop: Proposition) -> Line:
    return Line(GenLine(ref, eigen), prop)


def part(ref: int, eigen: Var, prop: Proposition) -> Line:
    return Line(PartLine(ref, eigen), prop)
