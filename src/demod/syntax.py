"""Many-sorted first-order syntax: sorts, signatures, terms, propositions.

Terms are variables or applications of declared function symbols; propositions
are built from atoms with the eight connective forms (falsum, verum, atom,
conjunction, disjunction, implication, universal, existential).  Equivalence
and negation are desugared eagerly (``P iff Q`` is ``(P > Q) & (Q > P)``,
``~P`` is ``P > false``).  Bound variables keep their display names; alpha
equivalence is a separate relation, substitution is capture avoiding, while
positional replacement is grafting and may capture.

Each kind of node is described once, in ``SHAPES``: its fields in order, each
marked as data (a name, a sort or the bound variable) or as children (one
subproposition, or a tuple of argument terms), and its printed text.  The
node classes are declared from that table, each carrying its entry as the
class attribute ``shape``, the one place every walk reads it.  Printing
(``str`` and the dataclass-style ``repr``), ``children``, size, positions,
free variables, substitution, alpha equivalence and the structural walk of
the sort check are derived from it, and so is each kind's constructor,
which finds whether the node is ground once, when the node is built, and
its ``rebuild`` from new children.  Substitution, free variables and alpha
equivalence skip ground subterms.  Substitution and free variables also
visit a subterm shared in the input once: once per scope, through a memo
kept for the call, and once per set of enclosing binders.  Substitution
checks for capture only at a binder whose name occurs free in a substituted
term.  Every traversal keeps its own stack, so none is limited by the
interpreter's recursion depth.

Every node is interned (hash-consed): a constructor returns the one object
with its fields, so structurally equal terms and propositions are identical,
``==`` is ``is``.  A node's hash is therefore its identity, the inherited
``object.__hash__``, so every lookup keyed by a node hashes and compares in
C.  Rebuilding, substituting, grafting, pickling and copying all go through
the constructors and so give back that object.  The tables keep every
distinct node made, for the life of the process.  Identity hashes follow
memory addresses, so the order of a set of nodes differs between runs:
nothing that is printed or returned may follow it, and the program only
tests membership in such sets or sorts them first.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from functools import cache, cached_property
from operator import attrgetter, is_not
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, Union


class SortError(Exception):
    """A term or proposition violates the sort discipline."""


class PositionError(Exception):
    """A position does not resolve in the addressed object."""


# ---------------------------------------------------------------------------
# Sorts


class Sort(NamedTuple):  # hashed, compared, ordered and pickled as the tuple, in C
    kind: str  # "arith" | "list" | "class"
    level: int = 0

    def __str__(self) -> str:
        return str(self.level) if self.kind == "arith" else self.kind


@cache  # one object per level, so comparing sorts mostly stops at identity
def arith(level: int) -> Sort:
    if level < 0:
        raise SortError(f"negative arithmetic sort level {level}")
    return Sort("arith", level)


LIST = Sort("list")
CLASS = Sort("class")


def canonical_number(text: object) -> bool:
    """Whether ``text`` is ASCII digits without a leading zero: a number, a
    sort level say, that reprints as it reads."""
    return isinstance(text, str) and text.isascii() and text.isdecimal() and (text[0] != "0" or text == "0")


# ---------------------------------------------------------------------------
# Terms and propositions, each kind described once by its shape


class Node:
    """A term or proposition, interned by its kind's constructor: one object
    per distinct node, so equality and the hash are the inherited identity
    ones.  Printing reads the node's shape.  Its one slot, ``_ground``, set
    when the node is built, is 1 when the node is ground (no variable, free
    or bound, occurs anywhere in it) and 0 otherwise."""

    __slots__ = ("_ground",)
    shape: Shape  # the kind's entry in SHAPES

    def __str__(self) -> str:
        return _show(self, lambda x: x.shape.text(x))

    def __repr__(self) -> str:
        return _show(self, _repr_text)

    def __reduce__(self):
        return type(self), self.shape.values(self)  # rebuilt through the constructor: the one object


class Proposition(Node):
    __slots__ = ()


def _fields(names: Sequence[str]) -> Callable[[Obj], tuple]:
    """A function giving the named fields of a node as a tuple."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda x: (get(x),)
    return attrgetter(*names) if names else lambda x: ()


class Shape:
    """One node kind: its fields in declaration order, each marked ``name``,
    ``variable`` (a variable's own name), ``sort`` or ``binder`` (data,
    compared by value) or ``prop`` (one child) or ``args`` (a tuple of
    argument terms, the children), and its printed text, a function from the
    node to the texts before, between and after its children.  Its
    ``rebuild(x, parts, binder=None)``, generated per kind, is ``x`` with
    children ``parts`` and, if given, bound variable ``binder``."""

    def __init__(self, layout: tuple[tuple[str, str], ...], text: Callable[[Obj], tuple[str, str, str]]):
        self.text = text
        self.names = [name for name, _ in layout]
        data = [name for name, role in layout if role not in ("prop", "args")]
        self.slots = tuple(i for i, (_, role) in enumerate(layout) if role in ("prop", "args"))
        self.variadic = any(role == "args" for _, role in layout)
        self.connective = any(role == "prop" for _, role in layout)
        self.binder = next((name for name, role in layout if role == "binder"), None)
        self.values = _fields(self.names)
        self.data = attrgetter(*data) if data else None
        kids = [self.names[i] for i in self.slots]
        self.children = attrgetter(*kids) if self.variadic else _fields(kids)

    rebuild: Callable[..., Obj]  # set by _kind, from _rebuilder


SHAPES: dict[type, Shape] = {}


def _kind(name: str, base: type, layout: tuple[tuple[str, str], ...], text: Callable) -> type:
    """A frozen node class with the fields of ``layout``, its generated
    constructor and rebuild; its shape is recorded in SHAPES and carried by
    the class as ``shape``."""
    cls = make_dataclass(name, [field for field, _ in layout], bases=(base,), frozen=True, eq=False,
                         init=False, repr=False, slots=True, namespace={"__module__": __name__})
    cls.shape = SHAPES[cls] = Shape(layout, text)
    cls.__new__ = _constructor(cls, layout)
    cls.shape.rebuild = _rebuilder(cls, layout)
    return cls


def _constructor(cls: type, layout: tuple[tuple[str, str], ...]) -> Callable:
    """The kind's ``__new__``, written out once.  It returns the one node with
    these fields from a table it keeps (hash-consing, after Filliâtre and
    Conchon, "Type-safe modular hash-consing", ML 2006), so that structurally
    equal nodes are one object.  A node not yet in the table gets each field
    set through its slot, then its ground bit in one pass over the children.
    A variable, and a node binding one, is never ground; a child that is not
    a node makes its parent not ground, so the walks reach it and reject it.

    The table is keyed by the tuple of the fields, whose child nodes hash by
    identity, so a lookup hashes each field once, in C; a kind with a tuple of
    arguments is keyed by its other fields, then by that tuple, which the node
    holds anyway.  It keeps every distinct node made for the life of the
    process."""
    names = [field for field, _ in layout]
    env = {f"set_{field}": getattr(cls, field).__set__ for field in names}
    table: dict = {}
    env.update(set_ground=Node._ground.__set__, table=table, get=table.get, new=object.__new__)
    fields = "".join(f + ", " for f in names)  # ``(fields)`` is their tuple
    args = next((field for field, role in layout if role == "args"), None)
    if args is None:
        find = [f"key = ({fields})", "self = get(key)"]
        store = "table[key] = self"
    else:
        outer = ", ".join(field for field in names if field != args)
        find = [f"inner = get(({outer}))", "if inner is None:", f"    inner = table[{outer}] = {{}}",
                f"self = inner.get({args})"]
        store = f"inner[{args}] = self"
    ground = {"prop": "g &= {}._ground", "args": "for a in {}: g &= a._ground"}
    kids = [ground[role].format(field) for field, role in layout if role in ground]
    body = [*find, "if self is not None:", "    return self", "self = new(cls)",
            *(f"set_{field}(self, {field})" for field in names)]
    if any(role in ("variable", "binder") for _, role in layout):
        body.append("g = 0")
    elif kids:
        body += ["g = 1", "try:", *(f"    {line}" for line in kids), "except AttributeError:", "    g = 0"]
    else:
        body.append("g = 1")
    body += ["set_ground(self, g)", store, "return self"]
    exec(f"def __new__(cls, {', '.join(names)}):\n" + "".join(f"    {line}\n" for line in body), env)
    return env["__new__"]


def _rebuilder(cls: type, layout: tuple[tuple[str, str], ...]) -> Callable:
    """The kind's ``rebuild``, written out once: its constructor called with
    ``x``'s data fields, the children ``parts`` in field order (a tuple of
    them for a kind with arguments), and ``binder`` in place of the bound
    variable when one is given."""
    values, kid = [], 0
    for field, role in layout:
        if role == "prop":
            values.append(f"parts[{kid}]")
            kid += 1
        elif role == "args":
            values.append("tuple(parts)")
        elif role == "binder":
            values.append(f"x.{field} if binder is None else binder")
        else:
            values.append(f"x.{field}")
    env = {"cls": cls, "new": cls.__new__}
    exec(f"def rebuild(x, parts, binder=None):\n    return new(cls, {', '.join(values)})\n", env)
    return env["rebuild"]


_BINARY = (("left", "prop"), ("right", "prop"))
_QUANTIFIED = (("var", "binder"), ("body", "prop"))

Var = _kind("Var", Node, (("name", "variable"), ("sort", "sort")), lambda x: (f"{x.name}:{x.sort}", "", ""))
App = _kind("App", Node, (("fn", "name"), ("args", "args"), ("sort", "sort")),
            lambda x: (f"{x.fn}(", ", ", ")") if x.args else (x.fn, "", ""))
Falsum = _kind("Falsum", Proposition, (), lambda x: ("false", "", ""))
Verum = _kind("Verum", Proposition, (), lambda x: ("true", "", ""))
Atom = _kind("Atom", Proposition, (("pred", "name"), ("args", "args")),
             lambda x: (f"{x.pred}(", ", ", ")") if x.args else (x.pred, "", ""))
And = _kind("And", Proposition, _BINARY, lambda x: ("(", " & ", ")"))
Or = _kind("Or", Proposition, _BINARY, lambda x: ("(", " | ", ")"))
Imp = _kind("Imp", Proposition, _BINARY, lambda x: ("(", " > ", ")"))
Forall = _kind("Forall", Proposition, _QUANTIFIED, lambda x: (f"(all {x.var}. ", "", ")"))
Exists = _kind("Exists", Proposition, _QUANTIFIED, lambda x: (f"(ex {x.var}. ", "", ")"))

Term = Union[Var, App]
Obj = Union[Term, Proposition]
FALSE = Falsum()
TRUE = Verum()


def _show(x: Obj, text: Callable[[Obj], tuple[str, str, str]]) -> str:
    """``x`` written with ``text``, which gives each node's texts before,
    between and after its children."""
    out: list[str] = []
    stack: list[Union[Obj, str]] = [x]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        before, between, after = text(item)
        out.append(before)
        subs = item.shape.children(item)
        if subs:
            stack.append(after)
            for i in range(len(subs) - 1, 0, -1):
                stack += (subs[i], between)
            stack.append(subs[0])
    return "".join(out)


def _repr_text(x: Obj) -> tuple[str, str, str]:
    """The dataclass form ``Kind(field=value, ...)`` around the children of ``x``."""
    shape = x.shape
    chunks = [f"{type(x).__qualname__}("]  # the texts between children
    for i, (name, value) in enumerate(zip(shape.names, shape.values(x))):
        chunks[-1] += f"{', ' if i else ''}{name}="
        if i not in shape.slots:
            chunks[-1] += repr(value)  # data; a bound variable has no children
        elif not shape.variadic:
            chunks.append("")
        else:  # a tuple of arguments
            chunks[-1] += "("
            chunks += [", "] * (len(value) - 1) + [""] if value else []
            chunks[-1] += ",)" if len(value) == 1 else ")"
    chunks[-1] += ")"
    return chunks[0], chunks[1] if len(chunks) > 2 else "", chunks[-1]


def neg(p: Proposition) -> Proposition:
    return Imp(p, FALSE)


def iff(p: Proposition, q: Proposition) -> Proposition:
    return And(Imp(p, q), Imp(q, p))


def forall(variables, body: Proposition) -> Proposition:
    """Close ``body`` under universal quantifiers, outermost first."""
    if isinstance(variables, Var):
        variables = (variables,)
    for v in reversed(tuple(variables)):
        body = Forall(v, body)
    return body


def exists(variables, body: Proposition) -> Proposition:
    if isinstance(variables, Var):
        variables = (variables,)
    for v in reversed(tuple(variables)):
        body = Exists(v, body)
    return body


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class FunDecl:
    name: str
    arg_sorts: tuple[Sort, ...]
    result: Sort


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_sorts: tuple[Sort, ...]


@dataclass(frozen=True)
class Signature:
    sorts: tuple[Sort, ...]
    fun_decls: tuple[FunDecl, ...]
    pred_decls: tuple[PredDecl, ...]

    def __post_init__(self) -> None:
        fn = [d.name for d in self.fun_decls]
        pn = [d.name for d in self.pred_decls]
        if len(set(fn)) != len(fn) or len(set(pn)) != len(pn):
            raise SortError("duplicate symbol declaration in signature")
        declared = set(self.sorts)
        if len(declared) != len(self.sorts):
            raise SortError("duplicate sort declaration in signature")
        for d in self.fun_decls + self.pred_decls:
            named = d.arg_sorts + ((d.result,) if isinstance(d, FunDecl) else ())
            if not declared.issuperset(named):
                undeclared = next(s for s in named if s not in declared)
                raise SortError(f"{d.name} uses the undeclared sort {undeclared}")

    @cached_property
    def funs(self) -> Mapping[str, FunDecl]:
        return {d.name: d for d in self.fun_decls}

    @cached_property
    def preds(self) -> Mapping[str, PredDecl]:
        return {d.name: d for d in self.pred_decls}

    def app(self, name: str, *args: Term) -> App:
        decl = self.funs.get(name)
        if decl is None:
            raise SortError(f"unknown function symbol {name!r}")
        _check_args(name, decl.arg_sorts, args)
        return App(name, tuple(args), decl.result)

    def atom(self, name: str, *args: Term) -> Atom:
        decl = self.preds.get(name)
        if decl is None:
            raise SortError(f"unknown predicate symbol {name!r}")
        _check_args(name, decl.arg_sorts, args)
        return Atom(name, tuple(args))

    def extend(self, sorts=(), funs=(), preds=()) -> "Signature":
        new_sorts = self.sorts + tuple(s for s in sorts if s not in self.sorts)
        return Signature(new_sorts, self.fun_decls + tuple(funs), self.pred_decls + tuple(preds))

    def well_sorted(self, x: Obj) -> bool:
        try:
            self.check(x)
        except SortError:
            return False
        return True

    def check(self, x: Obj) -> None:
        """Raise SortError unless ``x`` is well-sorted under this signature."""
        stack = [x]
        while stack:
            node = stack.pop()
            shape = getattr(type(node), "shape", None)
            if shape is None:
                raise SortError(f"not a term or proposition: {node!r}")
            if isinstance(node, Var):
                if node.sort not in self.sorts:
                    raise SortError(f"variable {node} has undeclared sort")
            elif isinstance(node, App):
                decl = self.funs.get(node.fn)
                if decl is None:
                    raise SortError(f"unknown function symbol {node.fn!r}")
                if decl.result != node.sort:
                    raise SortError(f"{node.fn} declared {decl.result}, annotated {node.sort}")
                _check_args(node.fn, decl.arg_sorts, node.args)
            elif isinstance(node, Atom):
                decl = self.preds.get(node.pred)
                if decl is None:
                    raise SortError(f"unknown predicate symbol {node.pred!r}")
                _check_args(node.pred, decl.arg_sorts, node.args)
            stack.extend(reversed(shape.children(node)))
            if shape.binder:
                stack.append(getattr(node, shape.binder))


def _check_args(name: str, expected: tuple[Sort, ...], args: tuple[Term, ...]) -> None:
    if len(expected) != len(args):
        raise SortError(f"{name} expects {len(expected)} arguments, got {len(args)}")
    for want, got in zip(expected, args):
        if sort_of(got) != want:
            raise SortError(f"{name}: argument {got} has sort {sort_of(got)}, expected {want}")


def sort_of(t: Term) -> Sort:
    return t.sort


# ---------------------------------------------------------------------------
# Structure: size, children, positions

Position = tuple[int, ...]

ROOT: Position = ()


def children(x: Obj) -> tuple[Obj, ...]:
    """Immediate subobjects, addressed by 1-based child indices."""
    return x.shape.children(x)


def size(x: Obj) -> int:
    count = 0
    stack = [x]
    while stack:
        count += 1
        stack.extend(children(stack.pop()))
    return count


def positions(x: Obj) -> Iterator[tuple[Position, Obj]]:
    """All positions, leftmost-outermost first (lexicographic pre-order)."""
    stack: list[tuple[Position, Obj]] = [(ROOT, x)]
    while stack:
        pos, obj = stack.pop()
        yield pos, obj
        subs = children(obj)
        for idx in range(len(subs), 0, -1):
            stack.append((pos + (idx,), subs[idx - 1]))


def subterm_at(x: Obj, pos: Position) -> Obj:
    cur = x
    for idx in pos:
        subs = children(cur)
        if not 1 <= idx <= len(subs):
            raise PositionError(f"position {pos} invalid in {x}")
        cur = subs[idx - 1]
    return cur


def replace_at(x: Obj, s: Obj, pos: Position) -> Obj:
    """Graft ``s`` at ``pos`` without renaming; capture is permitted."""
    spine: list[tuple[Obj, tuple[Obj, ...], int]] = []
    cur = x
    for idx in pos:
        subs = children(cur)
        if not 1 <= idx <= len(subs):
            raise PositionError(f"position {pos} invalid in {x}")
        spine.append((cur, subs, idx))
        cur = subs[idx - 1]
    new = s
    for node, subs, idx in reversed(spine):
        new = node.shape.rebuild(node, subs[: idx - 1] + (new,) + subs[idx:])
    return new


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha equivalence


def free_variables(x: Obj) -> frozenset[Var]:
    """The variables with a free occurrence in ``x``.

    Each node is remembered with the variables bound above it at its first
    visit; met again under those or more, it has nothing new below it.  So
    shared input costs one visit per distinct node and set of binders."""
    free: set[Var] = set()
    bound: frozenset[Var] = frozenset()  # the variables bound above the node visited
    seen: dict[Obj, frozenset[Var]] = {}
    stack: list = [x]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # leaving a binder's scope: node[0] was bound above it
            bound = node[0]
        elif isinstance(node, Var):
            if node not in bound:
                free.add(node)
        elif not node._ground:  # a ground node has no variables below it
            before = seen.get(node)
            if before is None or not before <= bound:
                seen[node] = bound
                shape = node.shape
                if shape.binder:
                    stack.append((bound,))
                    bound = bound | {getattr(node, shape.binder)}
                stack.extend(shape.children(node))
    return frozenset(free)


def fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


Substitution = Mapping[Var, Term]

# The substitution walk's step that substitutes into the last result.
_THEN = object()


def apply_substitution(x: Obj, sub: Substitution) -> Obj:
    """Apply ``sub`` to free occurrences only, renaming binders to avoid capture.

    A binder is renamed when a substituted term has a free variable of its
    name: the body is first renamed, then substituted.  Capture is checked
    only where it can happen: the free-variable names of the images are
    gathered at the first binder, and a binder whose name is not among them
    is crossed at once.  Only a binder whose name is among them has its
    body's free variables computed, to find the images that reach it.

    One walk with its own stacks.  Ground subterms are skipped, and an
    application or atom whose arguments are variables or ground terms is
    built on the spot.  Each scope of the walk, the substitution as it
    stands under some binders, keeps a memo from each node it has rebuilt to
    the result, so a subterm shared in the input is substituted once per
    scope.  The memos live for this call only."""
    if not sub:
        return x
    done: list[Obj] = []
    # (node, scope) visits a node, (node, (binder, scope)) rebuilds it from
    # its children's results, with a new bound variable if one is given, and
    # (_THEN, scope) substitutes into the last result.  A scope is a list:
    # the substitution; the free-variable names of its images, or None until
    # a binder asks; its memo, or None until a node is rebuilt; and the
    # scopes under a binder of a substituted variable, by that variable.
    todo: list[tuple] = [(x, [sub, None, None, None])]
    while todo:
        node, scope = todo.pop()
        if type(scope) is tuple:
            binder, scope = scope
            shape = node.shape
            subs = shape.children(node)
            cut = len(done) - len(subs)
            parts = done[cut:]
            del done[cut:]
            new = shape.rebuild(node, parts, binder) if binder is not None or any(map(is_not, parts, subs)) else node
            done.append(new)
            if todo:  # the root's result is never looked up
                if scope[2] is None:
                    scope[2] = {}
                scope[2][node] = new
            continue
        if node is _THEN:
            todo.append((done.pop(), scope))
            continue
        kind = type(node)
        if kind is Var:
            done.append(_image(node, scope[0]))
            continue
        shape = getattr(kind, "shape", None)
        if shape is None:
            raise SortError(f"not a term or proposition: {node!r}")
        if node._ground:  # ground: nothing below to substitute
            done.append(node)
            continue
        if scope[2] is not None:
            seen = scope[2].get(node)
            if seen is not None:
                done.append(seen)
                continue
        subs = shape.children(node)
        if shape.variadic:
            images = []
            for arg in subs:
                if type(arg) is Var:
                    images.append(_image(arg, scope[0]))
                elif type(arg) is App and arg._ground:
                    images.append(arg)
                else:
                    break
            else:  # every argument a variable or ground: built on the spot
                done.append(shape.rebuild(node, images) if any(map(is_not, images, subs)) else node)
                continue
        elif shape.binder:
            var, body = getattr(node, shape.binder), subs[0]
            inner = scope
            if var in scope[0]:  # shadowed below: the body has a scope without it
                if scope[3] is None:
                    scope[3] = {}
                inner = scope[3].get(var)
                if inner is None:
                    rest = {v: t for v, t in scope[0].items() if v is not var}
                    inner = scope[3][var] = [rest, None, None, None]
                if not inner[0]:
                    done.append(node)
                    continue
            if inner[1] is None:
                inner[1] = _free_names(inner[0].values())
            if var.name in inner[1]:  # capture is possible: find the images that reach the body
                body_free = free_variables(body)
                live = {v: t for v, t in inner[0].items() if v in body_free}
                if not live:
                    done.append(node)
                    continue
                clash = _free_names(live.values())
                if var.name in clash:
                    taken = clash | {w.name for w in body_free} | {v.name for v in live}
                    fresh = Var(fresh_name(var.name, taken), var.sort)
                    todo += [(node, (fresh, scope)), (_THEN, [live, clash, None, None]),
                             (body, [{var: fresh}, {fresh.name}, None, None])]
                    continue
            todo += [(node, (None, scope)), (body, inner)]
            continue
        todo.append((node, (None, scope)))
        for child in reversed(subs):
            todo.append((child, scope))
    return done[0]


def _image(v: Var, sub: Substitution) -> Term:
    """The image of ``v`` under ``sub``, which must have ``v``'s sort."""
    img = sub.get(v, v)
    if img is not v and img.sort is not v.sort and img.sort != v.sort:
        raise SortError(f"substitution maps {v} to {img} of sort {sort_of(img)}")
    return img


def _free_names(terms) -> set[str]:
    """The names of the free variables of ``terms``."""
    names: set[str] = set()
    for t in terms:
        if type(t) is Var:
            names.add(t.name)
        elif not t._ground:
            names.update(w.name for w in free_variables(t))
    return names


def alpha_equal(p: Obj, q: Obj) -> bool:
    """Equality modulo renaming of bound variables."""
    # each pair carries the depth of the innermost binder of each bound variable
    stack: list[tuple] = [(p, q, {}, {}, 0)]
    while stack:
        a, b, lenv, renv, depth = stack.pop()
        ground = a._ground & b._ground  # no variables below: alpha equality is identity
        if (ground or not depth) and a is b:
            continue  # syntactic equality implies alpha equality
        if ground or type(a) is not type(b):
            return False
        if isinstance(a, Var):
            li, ri = lenv.get(a), renv.get(b)
            if li is None and ri is None:
                if a is not b:
                    return False
            elif li != ri or a.sort != b.sort:
                return False
            continue
        shape = a.shape
        left, right = shape.children(a), shape.children(b)
        if shape.binder:
            lvar, rvar = getattr(a, shape.binder), getattr(b, shape.binder)
            if lvar.sort != rvar.sort:
                return False
            lenv, renv, depth = {**lenv, lvar: depth}, {**renv, rvar: depth}, depth + 1
        elif shape.data is not None and shape.data(a) != shape.data(b) or len(left) != len(right):
            return False
        for x, y in zip(reversed(left), reversed(right)):
            stack.append((x, y, lenv, renv, depth))
    return True


def freely_substitutable(t: Term, x: Var, p: Proposition) -> bool:
    """True iff no free occurrence of ``x`` in ``p`` is under a binder catching a variable of ``t``."""
    tvars = free_variables(t)
    stack, seen = [p], set()
    while stack:
        q = stack.pop()
        if q._ground or q in seen:
            continue  # ground: no binder below; seen: its verdict does not depend on the path
        seen.add(q)
        shape = q.shape
        subs = shape.children(q)
        if shape.binder:
            var = getattr(q, shape.binder)
            if var == x:
                continue  # x no longer free below
            if var in tvars and x in free_variables(subs[0]):
                return False
        stack.extend(subs)
    return True
