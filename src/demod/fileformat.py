"""Concrete syntax for signatures, rules, axioms, proofs and traces.

Variables are dotted atoms ``name.sort`` (``x.0``, ``l.list``, ``p.class``);
anything else in term position is a function application ``(f a b)`` or a
nullary symbol.  Propositions use ``true``, ``false``, ``and``, ``or``,
``imp``, ``not``, ``iff``, ``forall``, ``exists`` and signature predicates.
Parsing is signature-directed, so terms carry their sorts after reading.
"""

from __future__ import annotations

from . import nd
from .hilbert import (
    GenLine,
    HilbertProof,
    HypLine,
    Line,
    MpLine,
    PartLine,
    SchemaInstance,
    SchemaLine,
    Template,
)
from .rewriting import RewriteStep, Rule, RewriteSystem, Trace
from .sexpr import Sx, parse, show, show_pretty
from .syntax import (
    And,
    Atom,
    CLASS,
    Exists,
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
    Sort,
    TRUE,
    Term,
    Var,
    Verum,
    App,
    arith,
    iff,
    neg,
)
from .theories import Presentation

RESERVED = {"true", "false", "and", "or", "imp", "not", "iff", "forall", "exists"}


class FormatError(Exception):
    pass


# ---------------------------------------------------------------------------
# Sorts, variables, terms, propositions


def show_sort(s: Sort) -> str:
    return str(s)


def parse_sort(atom: str) -> Sort:
    if atom == "list":
        return LIST
    if atom == "class":
        return CLASS
    if atom.isdecimal():
        return arith(int(atom))
    raise FormatError(f"not a sort: {atom!r}")


def show_var(v: Var) -> str:
    return f"{v.name}.{v.sort}"


def parse_var(atom: str) -> Var:
    if not isinstance(atom, str) or "." not in atom:
        raise FormatError(f"not a variable: {atom!r}")
    name, _, sort = atom.rpartition(".")
    return Var(name, parse_sort(sort))


def term_to_sx(t: Term) -> Sx:
    if isinstance(t, Var):
        return show_var(t)
    if not t.args:
        return t.fn
    return [t.fn] + [term_to_sx(a) for a in t.args]


def term_from_sx(sx: Sx, sig: Signature) -> Term:
    if isinstance(sx, str):
        if "." in sx:
            v = parse_var(sx)
            if v.sort not in sig.sorts:
                raise FormatError(f"variable {sx!r} has an undeclared sort")
            return v
        return sig.app(sx)
    if not sx or not isinstance(sx[0], str):
        raise FormatError(f"bad term {show(sx)}")
    return sig.app(sx[0], *[term_from_sx(a, sig) for a in sx[1:]])


def prop_to_sx(p: Proposition) -> Sx:
    if isinstance(p, Verum):
        return "true"
    if isinstance(p, Falsum):
        return "false"
    if isinstance(p, Atom):
        if not p.args:
            return [p.pred]
        return [p.pred] + [term_to_sx(a) for a in p.args]
    if isinstance(p, And):
        return ["and", prop_to_sx(p.left), prop_to_sx(p.right)]
    if isinstance(p, Or):
        return ["or", prop_to_sx(p.left), prop_to_sx(p.right)]
    if isinstance(p, Imp):
        return ["imp", prop_to_sx(p.left), prop_to_sx(p.right)]
    if isinstance(p, Forall):
        return ["forall", show_var(p.var), prop_to_sx(p.body)]
    if isinstance(p, Exists):
        return ["exists", show_var(p.var), prop_to_sx(p.body)]
    raise FormatError(f"not a proposition: {p!r}")


_CONNECTIVE_ARITY = {"and": 2, "or": 2, "imp": 2, "iff": 2, "not": 1, "forall": 2, "exists": 2}


def prop_from_sx(sx: Sx, sig: Signature) -> Proposition:
    if sx == "true":
        return TRUE
    if sx == "false":
        return FALSE
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise FormatError(f"bad proposition {show(sx)}")
    head, *rest = sx
    arity = _CONNECTIVE_ARITY.get(head)
    if arity is not None and len(rest) != arity:
        raise FormatError(f"{head} takes {arity} arguments, found {len(rest)}")
    if head == "and":
        return And(prop_from_sx(rest[0], sig), prop_from_sx(rest[1], sig))
    if head == "or":
        return Or(prop_from_sx(rest[0], sig), prop_from_sx(rest[1], sig))
    if head == "imp":
        return Imp(prop_from_sx(rest[0], sig), prop_from_sx(rest[1], sig))
    if head == "iff":
        return iff(prop_from_sx(rest[0], sig), prop_from_sx(rest[1], sig))
    if head == "not":
        return neg(prop_from_sx(rest[0], sig))
    if head == "forall":
        return Forall(parse_var(rest[0]), prop_from_sx(rest[1], sig))
    if head == "exists":
        return Exists(parse_var(rest[0]), prop_from_sx(rest[1], sig))
    if head in sig.preds:
        return sig.atom(head, *[term_from_sx(a, sig) for a in rest])
    raise FormatError(f"unknown proposition head {head!r}")


# ---------------------------------------------------------------------------
# Signatures, rewrite systems, presentations


def signature_to_sx(sig: Signature) -> Sx:
    out: list[Sx] = ["signature", ["sorts"] + [show_sort(s) for s in sig.sorts]]
    for d in sig.fun_decls:
        out.append(["fun", d.name, [show_sort(s) for s in d.arg_sorts], show_sort(d.result)])
    for d in sig.pred_decls:
        out.append(["pred", d.name, [show_sort(s) for s in d.arg_sorts]])
    return out


def signature_from_sx(sx: Sx) -> Signature:
    if not (isinstance(sx, list) and sx and sx[0] == "signature"):
        raise FormatError("expected (signature ...)")
    sorts: list[Sort] = []
    funs: list[FunDecl] = []
    preds: list[PredDecl] = []
    for form in sx[1:]:
        head = form[0]
        if head == "sorts":
            sorts = [parse_sort(a) for a in form[1:]]
        elif head == "fun":
            _, name, args, result = form
            funs.append(FunDecl(name, tuple(parse_sort(a) for a in args), parse_sort(result)))
        elif head == "pred":
            _, name, args = form
            preds.append(PredDecl(name, tuple(parse_sort(a) for a in args)))
        else:
            raise FormatError(f"unknown signature entry {head!r}")
    return Signature(tuple(sorts), tuple(funs), tuple(preds))


def system_to_sx(system: RewriteSystem) -> Sx:
    flags = ["flags"]
    if system.terminating:
        flags.append("terminating")
    if system.confluent:
        flags.append("confluent")
    out: list[Sx] = ["rules", system.name, flags]
    for r in system.rules:
        lhs = prop_to_sx(r.lhs) if isinstance(r.lhs, Atom) else term_to_sx(r.lhs)
        rhs = prop_to_sx(r.rhs) if not isinstance(r.rhs, (Var, App)) else term_to_sx(r.rhs)
        out.append(["rule", r.name, lhs, rhs])
    return out


def system_from_sx(sx: Sx, sig: Signature) -> RewriteSystem:
    if not (isinstance(sx, list) and sx and sx[0] == "rules"):
        raise FormatError("expected (rules ...)")
    name = sx[1]
    flags = sx[2]
    terminating = "terminating" in flags
    confluent = "confluent" in flags
    rules = []
    for form in sx[3:]:
        _, rname, lhs_sx, rhs_sx = form
        lhs = _term_or_atom(lhs_sx, sig)
        if isinstance(lhs, Atom):
            rhs = prop_from_sx(rhs_sx, sig)
        else:
            rhs = term_from_sx(rhs_sx, sig)
        rules.append(Rule(rname, lhs, rhs))
    return RewriteSystem(name, tuple(rules), terminating=terminating, confluent=confluent)


def _term_or_atom(sx: Sx, sig: Signature):
    if isinstance(sx, list) and sx and isinstance(sx[0], str) and sx[0] in sig.preds:
        return prop_from_sx(sx, sig)
    return term_from_sx(sx, sig)


def presentation_to_sx(pres: Presentation) -> Sx:
    out: list[Sx] = ["axioms", pres.name]
    for name, prop in pres.axioms:
        out.append(["axiom", name, prop_to_sx(prop)])
    return out


def presentation_from_sx(sx: Sx, sig: Signature) -> Presentation:
    if not (isinstance(sx, list) and sx and sx[0] == "axioms"):
        raise FormatError("expected (axioms ...)")
    axioms = tuple((form[1], prop_from_sx(form[2], sig)) for form in sx[2:])
    return Presentation(sx[1], axioms)


# ---------------------------------------------------------------------------
# Traces


def trace_to_sx(trace: Trace) -> Sx:
    out: list[Sx] = ["trace"]
    for s in trace.steps:
        out.append(
            [
                "step",
                [str(i) for i in s.position],
                s.rule,
                "fwd" if s.forward else "bwd",
                [[show_var(v), term_to_sx(t)] for v, t in s.subst],
            ]
        )
    return out


def trace_from_sx(sx: Sx, sig: Signature) -> Trace:
    steps = []
    for form in sx[1:]:
        if not (isinstance(form, list) and len(form) == 5 and form[0] == "step"
                and isinstance(form[1], list) and isinstance(form[2], str)
                and form[3] in ("fwd", "bwd") and isinstance(form[4], list)):
            raise FormatError(f"expected (step POS RULE fwd|bwd BINDS), found {show(form)}")
        _, pos, rule, direction, binds = form
        if not all(isinstance(i, str) and i.isdecimal() for i in pos):
            raise FormatError(f"bad position {show(pos)}")
        subst = []
        for bind in binds:
            if not (isinstance(bind, list) and len(bind) == 2):
                raise FormatError(f"expected (VAR TERM), found {show(bind)}")
            subst.append((parse_var(bind[0]), term_from_sx(bind[1], sig)))
        steps.append(RewriteStep(tuple(int(i) for i in pos), rule, tuple(subst), direction == "fwd"))
    return Trace(None, None, tuple(steps))


# ---------------------------------------------------------------------------
# Natural deduction proofs


def proof_to_sx(p: nd.Proof) -> Sx:
    kind = nd.KINDS.get(type(p))
    if kind is None:
        raise FormatError(f"cannot serialize {p!r}")
    out: list[Sx] = [kind.tag]
    for name, field_kind in kind.layout:  # a plain loop: one stack frame per proof level
        out.append(_FIELD_TO_SX[field_kind](getattr(p, name)))
    for slot in kind.vias:
        trace = getattr(p, slot)
        if trace is not None:
            out.append([slot, *trace_to_sx(trace)[1:]])
    return out


def proof_from_sx(sx: Sx, sig: Signature) -> nd.Proof:
    if not (isinstance(sx, list) and sx and isinstance(sx[0], str)):
        raise FormatError(f"bad proof node {show(sx)}")
    head = sx[0]
    if head not in _KIND_OF_TAG:
        raise FormatError(f"unknown proof node {head!r}")
    cls, kind = _KIND_OF_TAG[head]
    n = len(kind.layout)
    if len(sx) <= n:
        raise FormatError(f"{head} needs {n} fields, found {len(sx) - 1}")
    fields = {}
    for (name, field_kind), x in zip(kind.layout, sx[1:]):
        fields[name] = _FIELD_FROM_SX[field_kind](x, sig)
    for form in sx[n + 1:]:
        if not (isinstance(form, list) and form and form[0] in kind.vias):
            raise FormatError(f"unexpected trailing form {show(form)}")
        fields[form[0]] = trace_from_sx(["trace"] + form[1:], sig)
    return cls(**fields)


def _label_from_sx(sx: Sx, sig: Signature) -> str:
    if not isinstance(sx, str):
        raise FormatError(f"expected a label, found {show(sx)}")
    return sx


_FIELD_TO_SX = {
    "prop": prop_to_sx,
    "term": term_to_sx,
    "var": show_var,
    "label": lambda label: label,
    "proof": proof_to_sx,
}
_FIELD_FROM_SX = {
    "prop": prop_from_sx,
    "term": term_from_sx,
    "var": lambda sx, sig: parse_var(sx),
    "label": _label_from_sx,
    "proof": proof_from_sx,
}
_KIND_OF_TAG = {kind.tag: (cls, kind) for cls, kind in nd.KINDS.items()}


def nd_proof_document(p: nd.Proof) -> Sx:
    return ["nd-proof", proof_to_sx(p)]


def nd_proof_from_document(sx: Sx, sig: Signature) -> nd.Proof:
    if not (isinstance(sx, list) and len(sx) == 2 and sx[0] == "nd-proof"):
        raise FormatError("expected (nd-proof PROOF)")
    try:
        return proof_from_sx(sx[1], sig)
    except RecursionError:
        raise FormatError("proof nested too deep to read") from None


# ---------------------------------------------------------------------------
# Schema instances and schematic proofs


def template_to_sx(t: Template) -> Sx:
    return ["template", [show_var(v) for v in t.params], prop_to_sx(t.body)]


def template_from_sx(sx: Sx, sig: Signature) -> Template:
    if not (isinstance(sx, list) and sx and sx[0] == "template"):
        raise FormatError("expected (template ...)")
    return Template(tuple(parse_var(v) for v in sx[1]), prop_from_sx(sx[2], sig))


def instance_to_sx(inst: SchemaInstance) -> Sx:
    out: list[Sx] = ["schema", inst.schema]
    for name, t in inst.templates:
        out.append(["prop", name, template_to_sx(t)])
    for name, t in inst.terms:
        out.append(["term", name, term_to_sx(t)])
    for name, v in inst.metavars:
        out.append(["var", name, show_var(v)])
    return out


def instance_from_sx(sx: Sx, sig: Signature) -> SchemaInstance:
    if not (isinstance(sx, list) and sx and sx[0] == "schema"):
        raise FormatError("expected (schema ...)")
    templates, terms, metavars = [], [], []
    for form in sx[2:]:
        kind, name, payload = form
        if kind == "prop":
            templates.append((name, template_from_sx(payload, sig)))
        elif kind == "term":
            terms.append((name, term_from_sx(payload, sig)))
        elif kind == "var":
            metavars.append((name, parse_var(payload)))
        else:
            raise FormatError(f"unknown instance entry {kind!r}")
    return SchemaInstance(sx[1], tuple(templates), tuple(terms), tuple(metavars))


def hilbert_to_sx(proof: HilbertProof) -> Sx:
    out: list[Sx] = ["hilbert-proof"]
    for num, line in enumerate(proof.lines, start=1):
        j = line.just
        if isinstance(j, SchemaLine):
            just: Sx = instance_to_sx(j.instance)
        elif isinstance(j, MpLine):
            just = ["mp", str(j.minor), str(j.major)]
        elif isinstance(j, GenLine):
            just = ["gen", str(j.ref), show_var(j.eigen)]
        elif isinstance(j, PartLine):
            just = ["part", str(j.ref), show_var(j.eigen)]
        elif isinstance(j, HypLine):
            just = ["hyp", j.label]
        else:
            raise FormatError(f"cannot serialize justification {j!r}")
        out.append(["line", str(num), just, prop_to_sx(line.prop)])
    return out


def hilbert_from_sx(sx: Sx, sig: Signature) -> HilbertProof:
    if not (isinstance(sx, list) and sx and sx[0] == "hilbert-proof"):
        raise FormatError("expected (hilbert-proof ...)")
    lines = []
    for expected, form in enumerate(sx[1:], start=1):
        _, num, just_sx, prop_sx = form
        if int(num) != expected:
            raise FormatError(f"line numbered {num}, expected {expected}")
        head = just_sx[0]
        if head == "schema":
            just: object = SchemaLine(instance_from_sx(just_sx, sig))
        elif head == "mp":
            just = MpLine(int(just_sx[1]), int(just_sx[2]))
        elif head == "gen":
            just = GenLine(int(just_sx[1]), parse_var(just_sx[2]))
        elif head == "part":
            just = PartLine(int(just_sx[1]), parse_var(just_sx[2]))
        elif head == "hyp":
            just = HypLine(just_sx[1])
        else:
            raise FormatError(f"unknown justification {head!r}")
        lines.append(Line(just, prop_from_sx(prop_sx, sig)))
    return HilbertProof(tuple(lines))


# ---------------------------------------------------------------------------
# Whole documents


def dumps(sx: Sx) -> str:
    return show_pretty(sx) + "\n"


def loads(text: str) -> Sx:
    return parse(text)
