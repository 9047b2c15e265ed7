"""Concrete syntax for signatures, rules, axioms, proofs and traces.

Variables are dotted atoms ``name.sort`` (``x.0``, ``l.list``, ``p.class``);
anything else in term position is a function application ``(f a b)`` or a
nullary symbol.  Propositions use ``true``, ``false``, ``and``, ``or``,
``imp``, ``not``, ``iff``, ``forall``, ``exists`` and signature predicates.
Parsing is signature-directed, so terms carry their sorts after reading.

The whole format is one table, ``CODECS``, keyed by field kind.  An atom kind
(``label``, ``line``, ``var``, ``sort`` ...) gives its writer and its reader.
A tagged kind maps each tag to a ``Form``: the builder of its object and its
``(field, field kind)`` layout, with an optional repeated tail.  One walk
reads every kind (``_read``) and one writes every kind (``_write``), so adding
a field or a kind is one edit to the table.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from functools import partial, wraps
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Optional, Union

from . import nd
from .hilbert import JUSTIFICATIONS, HilbertProof, Line, SchemaError, SchemaInstance, Template
from .rewriting import RewriteStep, Rule, RuleError, RewriteSystem, Trace
from .sexpr import Sx, parse, show, show_pretty
from .syntax import (
    App, And, Atom, CLASS, Exists, FALSE, Falsum, Forall, FunDecl, Imp, LIST, Or, PredDecl, Proposition,
    Signature, Sort, TRUE, Term, Var, Verum, arith, canonical_number, iff, neg,
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


def _entry(fn):
    """Mark a reader or writer as an entry point: the cyclic garbage collector
    is paused while it runs and left as it was found.  Reading and writing
    build fresh lists and nodes, none in a cycle, so a collection would free
    nothing, and each one of the oldest generation walks every object built
    so far."""

    @wraps(fn)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()
    return paused


# ---------------------------------------------------------------------------
# The two walks


def _read(sx: Sx, field_kind: str, sig: Optional[Signature]):
    """The object of kind ``field_kind`` that ``sx`` writes.  The kind's
    reader in ``CODECS`` reads one form and gives the object, or the function
    that builds it with its parts' forms and field kinds; the parts are read
    first, in document order.  The walk keeps its own stack, so any depth is
    read.  A builder's RuleError or SchemaError is a FormatError.

    Each (form, field kind) of the document is read once: later meetings take
    the object from the memo, per field kind a table from an atom's text, or a
    list's id, to the form and the object it was read as, so equal sub-forms
    that the parser shares read as one object, in time linear in the distinct
    forms.  A list is held by its entry, so its id is not reused while the
    memo lives; only objects read are stored, so a failing read fails where it
    did unshared."""
    tables: dict[str, dict] = defaultdict(dict)
    done: list = []  # objects read whose parent is not built yet
    # (form, field kind) to read; ((build, table, key, form), part count) to
    # apply and store
    stack: list[tuple] = [(sx, field_kind)]
    push = stack.append
    while stack:
        form, kind = stack.pop()
        if kind.__class__ is int:
            (build, seen, key, form), cut = form, len(done) - kind
            try:
                got = build(*done[cut:])
            except (RuleError, SchemaError) as exc:
                raise FormatError(str(exc)) from None
            seen[key] = form, got
            done[cut:] = (got,)
            continue
        seen = tables[kind]
        key = form if form.__class__ is str else id(form)
        hit = seen.get(key)
        if hit is not None:
            done.append(hit[1])
            continue
        got = _READERS[kind](form, sig)
        if got.__class__ is tuple:  # no reader gives a tuple as the object read
            build, parts, part_kinds = got
            i = len(parts)
            push(((build, seen, key, form), i))
            while i:
                i -= 1
                push((parts[i], part_kinds[i]))
        else:
            seen[key] = form, got
            done.append(got)
    return done[0]


def _write(obj, field_kind: str) -> Sx:
    """The form of ``obj`` as a field of kind ``field_kind``.  The kind's
    writer in ``CODECS`` gives an object's atom, or its list holding what
    precedes its parts, with the parts and their field kinds; each list is
    made when its object is met and its parts' forms are appended in order,
    from an explicit stack, so any depth is written."""
    root: list[Sx] = []
    stack: list[tuple] = [(obj, field_kind, root)]
    push = stack.append
    while stack:
        x, kind, into = stack.pop()
        got = _WRITERS[kind](x)
        if got.__class__ is str:
            into.append(got)
            continue
        form, parts, part_kinds = got
        into.append(form)
        i = len(parts)
        while i:  # an index loop: most lists have one or two parts
            i -= 1
            push((parts[i], part_kinds[i], form))
    return root[0]


# ---------------------------------------------------------------------------
# Codecs


class Atomic(NamedTuple):
    """A kind whose forms are atoms, or one read and written by hand: the
    writer of an object's form and the reader of a form, as ``_write`` and
    ``_read`` describe them."""

    write: Callable
    read: Callable


class Form:
    """One form of a tagged kind.  ``build`` makes its object from its fields'
    objects in order, then, with a repeated ``tail``, the tail's objects as
    one tuple; ``split`` gives an object's field values the same way, by
    default its attributes named in ``fields`` and ``tail``.  ``cls`` is the
    class it writes, by default ``build`` when that is a class.  Where its
    fields' kinds depend on their forms, ``read_kinds`` gives them; an
    ``unwrapped`` form is its one field's own form."""

    def __init__(self, build, fields=(), tail=None, *, cls=None, split=None, read_kinds=None,
                 unwrapped=False):
        self.fields, self.tail, self.read_kinds, self.unwrapped = fields, tail, read_kinds, unwrapped
        self.kinds = tuple(kind for _, kind in fields)
        self.cls = build if cls is None and isinstance(build, type) else cls
        n = len(fields)
        self.build = build if tail is None else lambda *values: build(*values[:n], values[n:])
        if split is None:
            names = [name for name, _ in fields] + ([tail[0]] if tail else [])
            get = attrgetter(*names)
            split = get if len(names) > 1 else lambda obj: (get(obj),)
        self.split = split


class Tagged:
    """A tagged kind: the Form of each tag, the kind's name in messages and
    the tag each object is written with, by default the one of its class.
    ``other`` reads the forms and writes the objects that no tag covers (the
    atoms and symbols of terms and propositions).  The tag None is a bare list
    of fields, and ``what`` says what that list holds."""

    def __init__(self, forms: dict, what: Optional[str] = None, other: Optional[Atomic] = None,
                 tag_of: Optional[Callable] = None):
        self.forms, self.what, self.other = forms, what, other
        self.bare = forms.get(None)
        if tag_of is None:
            tags = {form.cls: tag for tag, form in forms.items() if form.cls is not None}
            only = next(iter(forms), None)
            tag_of = (lambda obj: only) if len(forms) == 1 else (lambda obj: tags.get(obj.__class__))
        self.tag_of = tag_of

    def read(self, sx: Sx, sig: Optional[Signature]):
        form = self.bare
        if form is not None:
            n = len(form.fields)
            if sx.__class__ is not list or len(sx) < n or (len(sx) > n and form.tail is None):
                raise FormatError(f"expected {self.what}, found {show(sx)}")
            fields = sx
        else:
            head = sx[0] if sx.__class__ is list and sx and sx[0].__class__ is str else None
            form = self.forms.get(head)
            if form is None:
                if self.other is not None:
                    return self.other.read(sx, sig)
                if self.what is None:
                    raise FormatError(f"expected ({next(iter(self.forms))} ...)")
                raise FormatError(f"unknown {self.what} {_tag(sx)!r}")
            if form.unwrapped:
                return form.build, [sx], form.kinds
            fields = _form(sx, head, len(form.fields), form.tail is not None)
        kinds = form.kinds if form.read_kinds is None else form.read_kinds(fields, sig)
        if form.tail is not None:
            kinds += (form.tail[1],) * (len(fields) - len(kinds))
        return form.build, fields, kinds

    def write(self, obj):
        tag = self.tag_of(obj)
        form = self.forms.get(tag)
        if form is None:
            if self.other is not None:
                return self.other.write(obj)
            raise FormatError(f"cannot write {obj!r} as a {self.what}")
        values = form.split(obj)
        if form.unwrapped:
            return _WRITERS[form.kinds[0]](values[0])
        kinds = form.kinds
        if form.tail is not None:
            *values, items = values
            values += items
            kinds += (form.tail[1],) * len(items)
        return [] if tag is None else [tag], values, kinds


# ---------------------------------------------------------------------------
# Atoms, terms and propositions


def show_sort(s: Sort) -> str:
    return str(s)


def parse_sort(atom: str) -> Sort:
    if atom == "list":
        return LIST
    if atom == "class":
        return CLASS
    if canonical_number(atom):
        return arith(int(atom))
    raise FormatError(f"not a sort: {atom!r}")


def show_var(v: Var) -> str:
    return f"{v.name}.{v.sort}"


def parse_var(atom: str) -> Var:
    if not isinstance(atom, str) or "." not in atom:
        raise FormatError(f"not a variable: {atom!r}")
    name, _, sort = atom.rpartition(".")
    return Var(name, parse_sort(sort))


def _label(sx: Sx, sig=None) -> str:
    if not isinstance(sx, str):
        raise FormatError(f"expected a label, found {show(sx)}")
    return sx


def _number(what: str) -> Callable:
    """The reader of a decimal atom, the ``what`` of its form."""

    def read(sx: Sx, sig=None) -> int:
        if not canonical_number(sx):
            raise FormatError(f"expected {what}, found {show(sx)}")
        return int(sx)
    return read


FLAGS = ("terminating", "confluent")


def _flag(sx: Sx, sig=None) -> str:
    if sx not in FLAGS:
        raise FormatError(f"unknown flag {show(sx)} (flags are {', '.join(FLAGS)})")
    return sx


def _direction(sx: Sx, sig=None) -> bool:
    if sx not in ("fwd", "bwd"):
        raise FormatError(f"expected fwd or bwd, found {show(sx)}")
    return sx == "fwd"


def _term_step(sx: Sx, sig: Signature, apply=None):
    """The reader of a term, or, with ``apply=sig.atom``, of an atomic
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
    return partial(apply or sig.app, sx[0]), args, ("term",) * len(args)


def _term_form(t: Term):
    if t.__class__ is App:
        args = t.args
        return ([t.fn], args, ("term",) * len(args)) if args else t.fn
    if t.__class__ is not Var:
        raise FormatError(f"not a term: {t!r}")
    return show_var(t)


def _prop_step(sx: Sx, sig: Signature):
    """The reader of a proposition that is not a connective's form."""
    if sx == "true":
        return TRUE
    if sx == "false":
        return FALSE
    if isinstance(sx, str) or not sx or not isinstance(sx[0], str):
        raise FormatError(f"bad proposition {show(sx)}")
    if sx[0] in sig.preds:
        return _term_step(sx, sig, sig.atom)
    raise FormatError(f"unknown proposition head {sx[0]!r}")


def _prop_form(p: Proposition):
    if p.__class__ is Verum:
        return "true"
    if p.__class__ is Falsum:
        return "false"
    if p.__class__ is not Atom:
        raise FormatError(f"not a proposition: {p!r}")
    return [p.pred], p.args, ("term",) * len(p.args)


def _expr_kind(sx: Sx, sig: Signature) -> str:
    """``prop`` when the head is a connective or a predicate, else ``term``."""
    head = _tag(sx)
    return "prop" if head in RESERVED or head in sig.preds else "term"


# ---------------------------------------------------------------------------
# Builders and splitters of the documents' forms


def _fields(*values):
    return values


def _whole(obj):
    return (obj,)


def _tuple_of(kind: str, tag: Optional[str] = None, what: Optional[str] = None) -> Tagged:
    """The kind of ``(TAG K ...)``, or of the bare list ``(K ...)`` that
    ``what`` names, for field kind K: a tuple of K's objects."""
    return Tagged({tag: Form(tuple, (), ("items", kind), split=_whole)}, what)


def _signature(sorts, decls) -> Signature:
    funs = tuple(d for d in decls if d.__class__ is FunDecl)
    return Signature(sorts, funs, tuple(d for d in decls if d.__class__ is PredDecl))


def _system(name, flags, rules) -> RewriteSystem:
    return RewriteSystem(name, rules, **{f: f in flags for f in FLAGS})


def _numbered(lines) -> HilbertProof:
    """The proof of ``(NUMBER, line)`` pairs numbered 1, 2, ... in order."""
    for expected, (number, _) in enumerate(lines, start=1):
        if number != expected:
            raise FormatError(f"line numbered {number}, expected {expected}")
    return HilbertProof(tuple(line for _, line in lines))


# each entry of a schema instance: its tag, the instance field holding it and
# its field kind; entries are written grouped by tag, in this order
_ENTRIES = (("prop", "templates", "template"), ("term", "terms", "term"), ("var", "metavars", "var"))


def _instance(schema, entries) -> SchemaInstance:
    return SchemaInstance(schema, *(tuple((name, x) for t, name, x in entries if t == tag)
                                    for tag, _, _ in _ENTRIES))


def _instance_entries(inst: SchemaInstance):
    entries = tuple((tag, name, x) for tag, field, _ in _ENTRIES for name, x in getattr(inst, field))
    return inst.schema, entries


def _node(cls: type, kind: nd.Kind) -> Form:
    """A proof node's form: its layout, then a ``(SLOT STEP ...)`` form for
    each of its trace slots that holds a trace."""
    fields = attrgetter(*[name for name, _ in kind.layout])

    def build(*values):
        for slot, _ in values[-1]:
            if slot not in kind.vias:
                raise FormatError(f"unexpected trailing form ({slot} ...)")
        return cls(*values[:-1], **dict(values[-1]))

    def split(p):
        values = fields(p) if len(kind.layout) > 1 else (fields(p),)
        vias = tuple((slot, getattr(p, slot)) for slot in kind.vias if getattr(p, slot) is not None)
        return (*values, vias)

    return Form(build, kind.layout, ("vias", "via"), cls=cls, split=split)


# ---------------------------------------------------------------------------
# The table


CODECS: dict[str, Union[Atomic, Tagged]] = {
    "label": Atomic(str, _label),
    "line": Atomic(str, _number("a line number")),
    "index": Atomic(str, _number("a position index")),
    "var": Atomic(show_var, lambda sx, sig: parse_var(sx)),
    "sort": Atomic(show_sort, lambda sx, sig: parse_sort(sx)),
    "flag": Atomic(str, _flag),
    "direction": Atomic(lambda forward: "fwd" if forward else "bwd", _direction),
    "term": Atomic(_term_form, _term_step),
    # iff and not are read as abbreviations: their builders are not classes,
    # so only the classes they build are written
    "prop": Tagged({
        **{tag: Form(build, (("left", "prop"), ("right", "prop")))
           for tag, build in (("and", And), ("or", Or), ("imp", Imp), ("iff", iff))},
        "not": Form(neg, (("body", "prop"),)),
        **{tag: Form(build, (("var", "var"), ("body", "prop")))
           for tag, build in (("forall", Forall), ("exists", Exists))},
    }, "proposition head", other=Atomic(_prop_form, _prop_step)),
    # a term or a proposition, read as its head says
    "expr": Atomic(lambda x: _WRITERS["prop" if isinstance(x, Proposition) else "term"](x),
                   lambda sx, sig: _READERS[_expr_kind(sx, sig)](sx, sig)),
    "signature": Tagged({"signature": Form(_signature, (("sorts", "sorts"),), ("decls", "decl"),
                                           split=lambda s: (s.sorts, s.fun_decls + s.pred_decls))}),
    "sorts": _tuple_of("sort", "sorts"),
    "decl": Tagged({
        "fun": Form(FunDecl, (("name", "label"), ("arg_sorts", "arity"), ("result", "sort"))),
        "pred": Form(PredDecl, (("name", "label"), ("arg_sorts", "arity"))),
    }, "signature entry"),
    "arity": _tuple_of("sort", what="a list of sorts"),
    "rules": Tagged({"rules": Form(
        _system, (("name", "label"), ("flags", "flags")), ("rules", "rule"),
        split=lambda s: (s.name, tuple(f for f in FLAGS if getattr(s, f)), s.rules))}),
    "flags": _tuple_of("flag", "flags"),
    # a rule's right side has the kind of its left side
    "rule": Tagged({"rule": Form(
        Rule, (("name", "label"), ("lhs", "expr"), ("rhs", "expr")),
        read_kinds=lambda fields, sig: ("label",) + (_expr_kind(fields[1], sig),) * 2)}),
    "axioms": Tagged({"axioms": Form(Presentation, (("name", "label"),), ("axioms", "axiom"))}),
    "axiom": Tagged({"axiom": Form(_fields, (("name", "label"), ("prop", "prop")), split=tuple)}),
    "trace": Tagged({"trace": Form(Trace, (), ("steps", "step"))}),
    "step": Tagged({"step": Form(
        lambda position, rule, forward, subst: RewriteStep(position, rule, subst, forward),
        (("position", "position"), ("rule", "label"), ("forward", "direction"), ("subst", "binds")))}),
    "position": _tuple_of("index", what="a position"),
    "binds": _tuple_of("bind", what="a list of bindings"),
    "bind": Tagged({None: Form(_fields, (("var", "var"), ("term", "term")), split=tuple)}, "(VAR TERM)"),
    "nd-proof": Tagged({"nd-proof": Form(lambda proof: proof, (("proof", "proof"),), split=_whole)}),
    "proof": Tagged({kind.tag: _node(cls, kind) for cls, kind in nd.KINDS.items()}, "proof node"),
    # a node's (SLOT STEP ...) form, read and written as its (SLOT, trace) pair
    "via": Tagged({slot: Form(partial(lambda slot, steps: (slot, Trace(steps)), slot), (), ("steps", "step"),
                              split=lambda via: (via[1].steps,))
                   for slot in dict.fromkeys(slot for kind in nd.KINDS.values() for slot in kind.vias)},
                  "trailing form", tag_of=itemgetter(0)),
    "template": Tagged({"template": Form(Template, (("params", "params"), ("body", "prop")))}),
    "params": _tuple_of("var", what="a list of variables"),
    "instance": Tagged({"schema": Form(_instance, (("schema", "label"),), ("entries", "entry"),
                                       split=_instance_entries)}),
    # an instance entry, read and written as its (TAG, NAME, object) triple
    "entry": Tagged({tag: Form(partial(lambda tag, name, x: (tag, name, x), tag),
                               (("name", "label"), ("x", kind)), split=itemgetter(1, 2))
                     for tag, _, kind in _ENTRIES}, "instance entry", tag_of=itemgetter(0)),
    "instances": Tagged({"instances": Form(dict, (), ("instances", "named-instance"),
                                           split=lambda d: (tuple(d.items()),))}),
    "named-instance": Tagged({None: Form(_fields, (("name", "label"), ("instance", "instance")), split=tuple)},
                             "(NAME (schema ...))"),
    "hilbert-proof": Tagged({"hilbert-proof": Form(_numbered, (), ("lines", "hilbert-line"),
                                                   split=lambda p: (tuple(enumerate(p.lines, start=1)),))}),
    # a line, read and written as its (NUMBER, line) pair; the proof counts them
    "hilbert-line": Tagged({"line": Form(
        lambda number, just, prop: (number, Line(just, prop)),
        (("number", "line"), ("just", "just"), ("prop", "prop")),
        split=lambda numbered: (numbered[0], numbered[1].just, numbered[1].prop))}),
    # a schema justification is written as its instance's own (schema ...) form
    "just": Tagged({kind.tag: Form(cls, kind.layout, unwrapped=kind.tag == "schema")
                    for cls, kind in JUSTIFICATIONS.items()}, "justification"),
}
_READERS = {kind: codec.read for kind, codec in CODECS.items()}
_WRITERS = {kind: codec.write for kind, codec in CODECS.items()}
RESERVED = {"true", "false", *CODECS["prop"].forms}


# ---------------------------------------------------------------------------
# Readers and writers of each document kind


def _reader(name: str, kind: str) -> Callable:
    """The entry point ``name(sx, sig)`` reading an object of kind ``kind``."""

    def read(sx: Sx, sig: Signature):
        return _read(sx, kind, sig)
    read.__name__ = read.__qualname__ = name
    return _entry(read)


def _writer(name: str, kind: str) -> Callable:
    """The entry point ``name(obj)`` writing an object of kind ``kind``."""

    def write(obj) -> Sx:
        return _write(obj, kind)
    write.__name__ = write.__qualname__ = name
    return _entry(write)


term_from_sx = _reader("term_from_sx", "term")
prop_from_sx = _reader("prop_from_sx", "prop")
# a proposition when the head is a connective or a predicate, else a term
term_or_prop_from_sx = _reader("term_or_prop_from_sx", "expr")
term_to_sx = _writer("term_to_sx", "expr")  # a term, or a proposition
prop_to_sx = _writer("prop_to_sx", "prop")
signature_to_sx = _writer("signature_to_sx", "signature")
system_from_sx = _reader("system_from_sx", "rules")
system_to_sx = _writer("system_to_sx", "rules")
presentation_from_sx = _reader("presentation_from_sx", "axioms")
presentation_to_sx = _writer("presentation_to_sx", "axioms")
trace_from_sx = _reader("trace_from_sx", "trace")
trace_to_sx = _writer("trace_to_sx", "trace")
proof_from_sx = _reader("proof_from_sx", "proof")
proof_to_sx = _writer("proof_to_sx", "proof")
nd_proof_from_document = _reader("nd_proof_from_document", "nd-proof")
nd_proof_document = _writer("nd_proof_document", "nd-proof")
template_from_sx = _reader("template_from_sx", "template")
template_to_sx = _writer("template_to_sx", "template")
instance_from_sx = _reader("instance_from_sx", "instance")
instance_to_sx = _writer("instance_to_sx", "instance")
# the named schema instances of (instances (NAME (schema ...)) ...), as a dict
instances_from_sx = _reader("instances_from_sx", "instances")
hilbert_from_sx = _reader("hilbert_from_sx", "hilbert-proof")
hilbert_to_sx = _writer("hilbert_to_sx", "hilbert-proof")


@_entry
def signature_from_sx(sx: Sx) -> Signature:
    return _read(sx, "signature", None)  # a signature is read without one


# ---------------------------------------------------------------------------
# Whole documents


@_entry
def dumps(sx: Sx) -> str:
    return show_pretty(sx) + "\n"


@_entry
def loads(text: str) -> Sx:
    return parse(text)
