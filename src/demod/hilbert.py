"""The schematic (Hilbert-type) system for higher-order arithmetic.

Axiom schemata are instantiated through explicit witnesses: a schema instance
assigns proposition templates to proposition variables, terms to term
variables and variables to metavariables, so checking a line is substitution
plus side-condition tests, never higher-order matching.

Proof length is the line count.  Each justification kind is described once,
in ``JUSTIFICATIONS``, and its class is generated from that entry: its
positional fields are its file layout in order.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from functools import cached_property
from typing import Callable, Sequence

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
    var0,
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
        return tuple(v.sort for v in self.params)

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

Builder = Callable[[SchemaInstance], Proposition]


def _binder_check(schema: str, v: Var, *templates: Template) -> None:
    for t in templates:
        if v in t.outer_free():
            raise SchemaError(f"{schema}: bound metavariable {v} is free in an instance")


PROPOSITIONAL: dict[str, tuple[tuple[str, ...], Callable[..., Proposition]]] = {
    "I": (("A",), lambda a: Imp(a, a)),
    "K": (("A", "B"), lambda a, b: Imp(a, Imp(b, a))),
    "W": (("A", "B"), lambda a, b: Imp(Imp(a, Imp(a, b)), Imp(a, b))),
    "C": (("A", "B", "C"), lambda a, b, c: Imp(Imp(a, Imp(b, c)), Imp(b, Imp(a, c)))),
    "B": (("A", "B", "C"), lambda a, b, c: Imp(Imp(a, b), Imp(Imp(b, c), Imp(a, c)))),
    "proj-l": (("A", "B"), lambda a, b: Imp(And(a, b), a)),
    "proj-r": (("A", "B"), lambda a, b: Imp(And(a, b), b)),
    "pair": (("A", "B", "C"), lambda a, b, c: Imp(Imp(a, b), Imp(Imp(a, c), Imp(a, And(b, c))))),
    "inj-l": (("A", "B"), lambda a, b: Imp(a, Or(a, b))),
    "inj-r": (("A", "B"), lambda a, b: Imp(b, Or(a, b))),
    "case": (
        ("A", "B", "C"),
        lambda a, b, c: Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c))),
    ),
    "contradiction": (
        ("A", "B"),
        lambda a, b: Imp(Imp(a, b), Imp(Imp(a, Imp(b, FALSE)), Imp(a, FALSE))),
    ),
    "efsq": (("A", "B"), lambda a, b: Imp(Imp(a, FALSE), Imp(a, b))),
    "T": ((), lambda: TRUE),
    "TND": (("A",), lambda a: Or(a, Imp(a, FALSE))),
}


_ROBINSON: dict[str, Proposition] = dict(robinson_axioms())  # built once: instances share them


@dataclass(frozen=True)
class Catalogue:
    """Schemata and rules of the schematic system over sorts 0..top."""

    top: int
    classical: bool = True

    def axiom_schema_ids(self) -> tuple[str, ...]:
        ids = [n for n in PROPOSITIONAL if self.classical or n != "TND"]
        for j in range(self.top + 1):
            ids += [f"UI^{j}", f"EI^{j}"]
        ids += ["refl", "leibniz"]
        ids += list(_ROBINSON)
        ids += ["ind"]
        ids += [f"comp^{j}" for j in range(self.top)]
        return tuple(ids)

    @cached_property
    def _schema_ids(self) -> frozenset[str]:
        return frozenset(self.axiom_schema_ids())

    def instantiate(self, inst: SchemaInstance) -> Proposition:
        name = inst.schema
        if name not in self._schema_ids:
            raise SchemaError(f"unknown or disabled schema {name!r}")
        if name in PROPOSITIONAL:
            wanted, build = PROPOSITIONAL[name]
            return build(*(inst.prop(n) for n in wanted))
        if name.startswith("UI^") or name.startswith("EI^"):
            j = int(name[3:])
            a = inst.template("A")
            if a.arity != (arith(j),):
                raise SchemaError(f"{name}: A must have arity [{j}]")
            alpha = inst.metavar("alpha", Var("a", arith(j)))
            tau = inst.term("tau")
            if sort_of(tau) != arith(j):
                raise SchemaError(f"{name}: term has sort {sort_of(tau)}, wants {j}")
            _binder_check(name, alpha, a)
            if not freely_substitutable(tau, a.params[0], a.body):
                raise SchemaError(f"{name}: {tau} is not freely substitutable in the instance")
            closure = Forall(alpha, a.apply([alpha]))
            if name.startswith("UI^"):
                return Imp(closure, a.apply([tau]))
            return Imp(a.apply([tau]), Exists(alpha, a.apply([alpha])))
        if name == "refl":
            return refl_axiom()
        if name == "leibniz":
            a = inst.template("A")
            if a.arity != (arith(0),):
                raise SchemaError("leibniz: A must have arity [0]")
            alpha = inst.metavar("alpha", var0("a"))
            beta = inst.metavar("beta", var0("b"))
            if alpha == beta:
                raise SchemaError("leibniz: alpha and beta must be distinct")
            _binder_check(name, alpha, a)
            _binder_check(name, beta, a)
            return Forall(
                alpha,
                Forall(beta, Imp(eq(alpha, beta), Imp(a.apply([alpha]), a.apply([beta])))),
            )
        if name in _ROBINSON:
            return _ROBINSON[name]
        if name == "ind":
            a = inst.template("A")
            if a.arity != (arith(0),):
                raise SchemaError("ind: A must have arity [0]")
            alpha = inst.metavar("alpha", var0("a"))
            beta = inst.metavar("beta", var0("b"))
            _binder_check(name, alpha, a)
            _binder_check(name, beta, a)
            return Imp(
                a.apply([ZERO]),
                Imp(
                    Forall(beta, Imp(a.apply([beta]), a.apply([s_(beta)]))),
                    Forall(alpha, a.apply([alpha])),
                ),
            )
        if name.startswith("comp^"):
            j = int(name[5:])
            a = inst.template("A")
            if a.arity != (arith(j),):
                raise SchemaError(f"comp^{j}: A must have arity [{j}]")
            alpha = inst.metavar("alpha", Var("a", arith(j + 1)))
            beta = inst.metavar("beta", Var("b", arith(j)))
            _binder_check(name, alpha, a)
            _binder_check(name, beta, a)
            return Exists(alpha, Forall(beta, iff(mem(j, beta, alpha), a.apply([beta]))))
        raise SchemaError(f"no builder for schema {name!r}")


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
