"""Concrete syntax for signatures, rules, axioms, proofs and traces.

Variables are dotted atoms ``name.sort`` (``x.0``, ``l.list``, ``p.class``);
anything else in term position is a function application ``(f a b)`` or a
nullary symbol.  Propositions use ``true``, ``false``, ``and``, ``or``,
``imp``, ``not``, ``iff``, ``forall``, ``exists`` and signature predicates.
Parsing is signature-directed, so terms carry their sorts after reading.
"""

from __future__ import annotations

import functools
import gc
from contextvars import ContextVar
from typing import Optional, Union

from . import nd
from .hilbert import (
    JUSTIFICATIONS,
    HilbertProof,
    Line,
    SchemaError,
    SchemaInstance,
    Template,
)
from .rewriting import RewriteStep, Rule, RuleError, RewriteSystem, Trace
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


class FormatError(Exception):
    pass


def _form(sx: Sx, tag: str, n: int, more: bool = False) -> list[Sx]:
    """The fields of the form ``(tag F1 .. Fn)``, or, when ``more``, of
    ``(tag F1 .. Fn ...)`` with any number of forms after them.  Any other
    head or field count is a FormatError naming the form."""
    if not (isinstance(sx, list) and sx and sx[0] == tag):
        raise FormatError(f"expected ({tag} ...)")
    if len(sx) <= n or (len(sx) > n + 1 and not more):
        raise FormatError(f"{tag} needs {n} fields, found {len(sx) - 1}")
    return sx[1:]


def _tag(sx: Sx) -> str:
    """The head atom of a form, else the form itself as text."""
    return sx[0] if isinstance(sx, list) and sx and isinstance(sx[0], str) else show(sx)


def _items(sx: Sx, what: str) -> list[Sx]:
    if not isinstance(sx, list):
        raise FormatError(f"expected a list of {what}, found {show(sx)}")
    return sx


def _label(sx: Sx) -> str:
    if not isinstance(sx, str):
        raise FormatError(f"expected a label, found {show(sx)}")
    return sx


# the memo of the document being read, from its outermost entry point's call
# to that call's return; see ``_tables``
_MEMO: ContextVar[Optional[dict]] = ContextVar("_MEMO", default=None)


def _entry(fn):
    """Mark a reader or writer as a document entry point: the cyclic garbage
    collector is paused while it runs and left as it was found.  Reading and
    writing build fresh lists and nodes, none in a cycle, so a collection
    would free nothing, and each one of the oldest generation walks every
    object built so far.  The outermost entry point's call also holds the
    memo that every read inside it shares, and drops it when it returns."""

    @functools.wraps(fn)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        outermost = _MEMO.set({kind: {} for kind in _STEPS}) if _MEMO.get() is None else None
        try:
            return fn(*args)
        finally:
            if outermost is not None:
                _MEMO.reset(outermost)
            if enabled:
                gc.enable()
    return paused


# ---------------------------------------------------------------------------
# Sorts, variables, terms, propositions


def show_sort(s: Sort) -> str:
    return str(s)


def parse_sort(atom: str) -> Sort:
    if atom == "list":
        return LIST
    if atom == "class":
        return CLASS
    if isinstance(atom, str) and atom.isdecimal():
        return arith(int(atom))
    raise FormatError(f"not a sort: {atom!r}")


def show_var(v: Var) -> str:
    return f"{v.name}.{v.sort}"


def parse_var(atom: str) -> Var:
    if not isinstance(atom, str) or "." not in atom:
        raise FormatError(f"not a variable: {atom!r}")
    name, _, sort = atom.rpartition(".")
    return Var(name, parse_sort(sort))


# each connective's tag, the function building it and its parts' field kinds;
# iff and not are read as abbreviations, so only the classes are written
_CONNECTIVES = {
    **{tag: (build, ("prop", "prop")) for tag, build in (("and", And), ("or", Or), ("imp", Imp), ("iff", iff))},
    "not": (neg, ("prop",)),
    **{tag: (build, ("var", "prop")) for tag, build in (("forall", Forall), ("exists", Exists))},
}
_TAG_OF = {build: tag for tag, (build, _) in _CONNECTIVES.items() if isinstance(build, type)}
RESERVED = {"true", "false", *_CONNECTIVES}


# each node kind's form: a leaf's whole form, or a list holding what precedes
# the children's forms, which are appended to it
_SX_OF = {
    Var: show_var,
    App: lambda t: [t.fn] if t.args else t.fn,
    Verum: lambda p: "true",
    Falsum: lambda p: "false",
    Atom: lambda p: [p.pred],
    **{cls: lambda p: [_TAG_OF[type(p)]] for cls in (And, Or, Imp)},
    **{cls: lambda p: [_TAG_OF[type(p)], show_var(p.var)] for cls in (Forall, Exists)},
}


def term_to_sx(t: Union[Term, Proposition]) -> Sx:
    """The form of a term, or of a proposition.  Each list is made when its
    node is met and its children's forms are appended in order, from an
    explicit stack, so any depth can be written."""
    root: list[Sx] = []
    stack: list[tuple[Union[Term, Proposition], list]] = [(t, root)]
    while stack:
        node, into = stack.pop()
        form = _SX_OF[type(node)](node)
        into.append(form)
        if type(form) is list:
            for sub in reversed(node.shape.children(node)):
                stack.append((sub, form))
    return root[0]


def prop_to_sx(p: Proposition) -> Sx:
    if not isinstance(p, Proposition):
        raise FormatError(f"not a proposition: {p!r}")
    return term_to_sx(p)


def _tables() -> dict[str, dict]:
    """The memo of the document being read: per field kind, a table from an
    atom's text, or a list's id, to the form and the object it was read as.
    A list is held by its entry, so its id is not reused while the memo
    lives.  Outside every entry point a memo lasts one read."""
    return _MEMO.get() or {kind: {} for kind in _STEPS}


def _read(sx: Sx, field_kind: str, sig: Signature):
    """The object of kind ``field_kind`` that ``sx`` writes.  The kind's step
    in ``_STEPS`` reads one form and gives the object, or the function that
    builds it with its parts' forms and field kinds; the parts are read first,
    in document order.  The walk keeps its own stack, so any depth is read.

    Each (form, field kind) of a document is read once: later meetings take
    the object from the memo (``_tables``), so equal sub-forms that the parser
    shares read as one object, in time linear in the distinct forms.  Only
    objects read are stored, so a failing read fails where it did unshared."""
    tables = _tables()
    done: list = []  # objects read whose parent is not built yet
    # (form, field kind) to read; ((build, table, key, form), part count) to
    # apply and store
    stack: list[tuple] = [(sx, field_kind)]
    while stack:
        form, kind = stack.pop()
        if kind.__class__ is int:
            (build, seen, key, form), cut = form, len(done) - kind
            got = build(*done[cut:])
            seen[key] = form, got
            done[cut:] = (got,)
            continue
        seen = tables[kind]
        key = form if form.__class__ is str else id(form)
        hit = seen.get(key)
        if hit is not None:
            done.append(hit[1])
            continue
        got = _STEPS[kind](form, sig)
        if got.__class__ is tuple:  # no object read is a tuple
            build, parts, part_kinds = got
            stack.append(((build, seen, key, form), len(parts)))
            stack += zip(reversed(parts), reversed(part_kinds))
        else:
            seen[key] = form, got
            done.append(got)
    return done[0]


def _term_step(sx: Sx, sig: Signature, apply=None):
    """The step for a term, or, with ``apply=sig.atom``, for an atomic
    proposition."""
    if isinstance(sx, str):
        if "." not in sx:
            return sig.app(sx)
        v = parse_var(sx)
        if v.sort not in sig.sorts:
            raise FormatError(f"variable {sx!r} has an undeclared sort")
        return v
    if not sx or not isinstance(sx[0], str):
        raise FormatError(f"bad term {show(sx)}")
    args = sx[1:]
    return functools.partial(apply or sig.app, sx[0]), args, ("term",) * len(args)


def _prop_step(sx: Sx, sig: Signature):
    if sx == "true":
        return TRUE
    if sx == "false":
        return FALSE
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise FormatError(f"bad proposition {show(sx)}")
    head, rest = sx[0], sx[1:]
    if head in _CONNECTIVES:
        build, kinds = _CONNECTIVES[head]
        if len(rest) != len(kinds):
            raise FormatError(f"{head} takes {len(kinds)} arguments, found {len(rest)}")
        return build, rest, kinds
    if head in sig.preds:
        return _term_step(sx, sig, sig.atom)
    raise FormatError(f"unknown proposition head {head!r}")


def term_from_sx(sx: Sx, sig: Signature) -> Term:
    return _read(sx, "term", sig)


def prop_from_sx(sx: Sx, sig: Signature) -> Proposition:
    return _read(sx, "prop", sig)


@_entry
def term_or_prop_from_sx(sx: Sx, sig: Signature) -> Union[Term, Proposition]:
    """A proposition when the head is a connective or a predicate, else a term."""
    head = _tag(sx)
    return _read(sx, "prop" if head in RESERVED or head in sig.preds else "term", sig)


# ---------------------------------------------------------------------------
# Signatures, rewrite systems, presentations


@_entry
def signature_to_sx(sig: Signature) -> Sx:
    out: list[Sx] = ["signature", ["sorts"] + [show_sort(s) for s in sig.sorts]]
    for d in sig.fun_decls:
        out.append(["fun", d.name, [show_sort(s) for s in d.arg_sorts], show_sort(d.result)])
    for d in sig.pred_decls:
        out.append(["pred", d.name, [show_sort(s) for s in d.arg_sorts]])
    return out


@_entry
def signature_from_sx(sx: Sx) -> Signature:
    sorts: list[Sort] = []
    funs: list[FunDecl] = []
    preds: list[PredDecl] = []
    for form in _form(sx, "signature", 0, more=True):
        head = _tag(form)
        if head == "sorts":
            sorts = [parse_sort(a) for a in _form(form, "sorts", 0, more=True)]
        elif head == "fun":
            name, args, result = _form(form, "fun", 3)
            funs.append(FunDecl(_label(name), _sorts(args), parse_sort(result)))
        elif head == "pred":
            name, args = _form(form, "pred", 2)
            preds.append(PredDecl(_label(name), _sorts(args)))
        else:
            raise FormatError(f"unknown signature entry {head!r}")
    return Signature(tuple(sorts), tuple(funs), tuple(preds))


def _sorts(sx: Sx) -> tuple[Sort, ...]:
    return tuple(parse_sort(a) for a in _items(sx, "sorts"))


FLAGS = ("terminating", "confluent")


@_entry
def system_to_sx(system: RewriteSystem) -> Sx:
    out: list[Sx] = ["rules", system.name, ["flags", *(f for f in FLAGS if getattr(system, f))]]
    for r in system.rules:  # a rule's sides are both terms or both propositions
        out.append(["rule", r.name, term_to_sx(r.lhs), term_to_sx(r.rhs)])
    return out


@_entry
def system_from_sx(sx: Sx, sig: Signature) -> RewriteSystem:
    name, flags_sx, *forms = _form(sx, "rules", 2, more=True)
    flags = _form(flags_sx, "flags", 0, more=True)
    for flag in flags:
        if flag not in FLAGS:
            raise FormatError(f"unknown flag {show(flag)} (flags are {', '.join(FLAGS)})")
    rules = []
    try:
        for form in forms:
            rname, lhs_sx, rhs_sx = _form(form, "rule", 3)
            lhs = term_or_prop_from_sx(lhs_sx, sig)
            rhs = prop_from_sx(rhs_sx, sig) if isinstance(lhs, Atom) else term_from_sx(rhs_sx, sig)
            rules.append(Rule(_label(rname), lhs, rhs))
        return RewriteSystem(_label(name), tuple(rules), **{f: f in flags for f in FLAGS})
    except RuleError as exc:
        raise FormatError(str(exc)) from None


@_entry
def presentation_to_sx(pres: Presentation) -> Sx:
    out: list[Sx] = ["axioms", pres.name]
    for name, prop in pres.axioms:
        out.append(["axiom", name, prop_to_sx(prop)])
    return out


@_entry
def presentation_from_sx(sx: Sx, sig: Signature) -> Presentation:
    name, *forms = _form(sx, "axioms", 1, more=True)
    axioms = []
    for form in forms:
        axiom, prop = _form(form, "axiom", 2)
        axioms.append((_label(axiom), prop_from_sx(prop, sig)))
    return Presentation(_label(name), tuple(axioms))


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
    return Trace(tuple(steps))


# ---------------------------------------------------------------------------
# Natural deduction proofs


def proof_to_sx(p: nd.Proof) -> Sx:
    return nd.fold_proof(p, _proof_node_to_sx)


def _proof_node_to_sx(p: nd.Proof, premises: list[Sx]) -> Sx:
    """The form of one proof node, given the forms of its premises."""
    kind = nd.KINDS.get(type(p))
    if kind is None:
        raise FormatError(f"cannot serialize {p!r}")
    out: list[Sx] = [kind.tag]
    written = iter(premises)
    for name, field_kind in kind.layout:
        out.append(next(written) if field_kind == "proof" else _FIELD_TO_SX[field_kind](getattr(p, name)))
    for slot in kind.vias:
        trace = getattr(p, slot)
        if trace is not None:
            out.append([slot, *trace_to_sx(trace)[1:]])
    return out


def _proof_step(sx: Sx, sig: Signature):
    if not (isinstance(sx, list) and sx and isinstance(sx[0], str)):
        raise FormatError(f"bad proof node {show(sx)}")
    head = sx[0]
    if head not in _KIND_OF_TAG:
        raise FormatError(f"unknown proof node {head!r}")
    cls, kind = _KIND_OF_TAG[head]
    n = len(kind.layout)
    forms = _form(sx, head, n, more=True)

    def build(*values):
        fields = {name: value for (name, _), value in zip(kind.layout, values)}
        for form in forms[n:]:
            if not (isinstance(form, list) and form and form[0] in kind.vias):
                raise FormatError(f"unexpected trailing form {show(form)}")
            fields[form[0]] = trace_from_sx(["trace"] + form[1:], sig)
        return cls(**fields)

    return build, forms[:n], [field_kind for _, field_kind in kind.layout]


def proof_from_sx(sx: Sx, sig: Signature) -> nd.Proof:
    return _read(sx, "proof", sig)


_KIND_OF_TAG = {kind.tag: (cls, kind) for cls, kind in nd.KINDS.items()}


@_entry
def nd_proof_document(p: nd.Proof) -> Sx:
    return ["nd-proof", proof_to_sx(p)]


@_entry
def nd_proof_from_document(sx: Sx, sig: Signature) -> nd.Proof:
    if not (isinstance(sx, list) and len(sx) == 2 and sx[0] == "nd-proof"):
        raise FormatError("expected (nd-proof PROOF)")
    return proof_from_sx(sx[1], sig)


# ---------------------------------------------------------------------------
# Schema instances and schematic proofs


def template_to_sx(t: Template) -> Sx:
    return ["template", [show_var(v) for v in t.params], prop_to_sx(t.body)]


def template_from_sx(sx: Sx, sig: Signature) -> Template:
    params, body = _form(sx, "template", 2)
    variables = tuple(parse_var(v) for v in _items(params, "variables"))
    try:
        return Template(variables, prop_from_sx(body, sig))
    except SchemaError as exc:
        raise FormatError(str(exc)) from None


# each entry of a schema instance: its tag, the instance field holding it, its codec
_INSTANCE_ENTRIES = {
    "prop": ("templates", template_to_sx, template_from_sx),
    "term": ("terms", term_to_sx, term_from_sx),
    "var": ("metavars", show_var, lambda sx, sig: parse_var(sx)),
}


@_entry
def instance_to_sx(inst: SchemaInstance) -> Sx:
    out: list[Sx] = ["schema", inst.schema]
    for tag, (field, to_sx, _) in _INSTANCE_ENTRIES.items():
        out += [[tag, name, to_sx(x)] for name, x in getattr(inst, field)]
    return out


@_entry
def instance_from_sx(sx: Sx, sig: Signature) -> SchemaInstance:
    schema, *forms = _form(sx, "schema", 1, more=True)
    entries: dict[str, list] = {tag: [] for tag in _INSTANCE_ENTRIES}
    for form in forms:
        tag = _tag(form)
        if tag not in _INSTANCE_ENTRIES:
            raise FormatError(f"unknown instance entry {tag!r}")
        name, payload = _form(form, tag, 2)
        entries[tag].append((_label(name), _INSTANCE_ENTRIES[tag][2](payload, sig)))
    fields = {field: tuple(entries[tag]) for tag, (field, _, _) in _INSTANCE_ENTRIES.items()}
    return SchemaInstance(_label(schema), **fields)


@_entry
def instances_from_sx(sx: Sx, sig: Signature) -> dict[str, SchemaInstance]:
    """The named schema instances of ``(instances (NAME (schema ...)) ...)``."""
    out = {}
    for form in _form(sx, "instances", 0, more=True):
        if not (isinstance(form, list) and len(form) == 2):
            raise FormatError(f"expected (NAME (schema ...)), found {show(form)}")
        out[_label(form[0])] = instance_from_sx(form[1], sig)
    return out


def _line_from_sx(sx: Sx, sig: Signature) -> int:
    if not (isinstance(sx, str) and sx.isdecimal()):
        raise FormatError(f"expected a line number, found {show(sx)}")
    return int(sx)


def _just_to_sx(j) -> Sx:
    kind = JUSTIFICATIONS.get(type(j))
    if kind is None:
        raise FormatError(f"cannot serialize justification {j!r}")
    fields = [_FIELD_TO_SX[field_kind](getattr(j, name)) for name, field_kind in kind.layout]
    return fields[0] if kind.tag == "schema" else [kind.tag, *fields]


def _just_from_sx(sx: Sx, sig: Signature):
    head = _tag(sx)
    if head not in _JUST_OF_TAG:
        raise FormatError(f"unknown justification {head!r}")
    cls, kind = _JUST_OF_TAG[head]
    fields = [sx] if head == "schema" else _form(sx, head, len(kind.layout))
    return cls(**{
        name: _read(x, field_kind, sig) for (name, field_kind), x in zip(kind.layout, fields)
    })


_JUST_OF_TAG = {kind.tag: (cls, kind) for cls, kind in JUSTIFICATIONS.items()}


@_entry
def hilbert_to_sx(proof: HilbertProof) -> Sx:
    out: list[Sx] = ["hilbert-proof"]
    for num, line in enumerate(proof.lines, start=1):
        out.append(["line", str(num), _just_to_sx(line.just), prop_to_sx(line.prop)])
    return out


@_entry
def hilbert_from_sx(sx: Sx, sig: Signature) -> HilbertProof:
    lines = []
    for expected, form in enumerate(_form(sx, "hilbert-proof", 0, more=True), start=1):
        num, just_sx, prop_sx = _form(form, "line", 3)
        if _line_from_sx(num, sig) != expected:
            raise FormatError(f"line numbered {num}, expected {expected}")
        lines.append(Line(_just_from_sx(just_sx, sig), prop_from_sx(prop_sx, sig)))
    return HilbertProof(tuple(lines))


# the field codec of proof nodes and justifications, by field kind: each kind's
# writer, and its reader's step, which reads one form as ``_read`` describes
_FIELD_TO_SX = {
    "prop": prop_to_sx,
    "term": term_to_sx,
    "var": show_var,
    "label": lambda label: label,
    "line": str,
    "instance": instance_to_sx,
}
_STEPS = {
    "prop": _prop_step,
    "term": _term_step,
    "var": lambda sx, sig: parse_var(sx),
    "label": lambda sx, sig: _label(sx),
    "proof": _proof_step,
    "line": _line_from_sx,
    "instance": instance_from_sx,
}


# ---------------------------------------------------------------------------
# Whole documents


@_entry
def dumps(sx: Sx) -> str:
    return show_pretty(sx) + "\n"


@_entry
def loads(text: str) -> Sx:
    return parse(text)
