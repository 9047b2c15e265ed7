"""Term and proposition rewriting: matching, normalization, congruence.

A rewrite system carries capability flags.  ``congruent_auto`` (normalize and
compare) is only available when the system is declared terminating and
confluent; for systems without those guarantees a congruence can instead be
certified by an explicit trace, replayed by ``verify_trace``.  A trace is its
steps alone; its two ends are the sides of the congruence it certifies.  A
system may also name a terminating subsystem (``auto_fallback``) used for
sound normalize-and-compare checks when the full system does not terminate.
``normalize`` always rewrites the leftmost-outermost redex.  It walks the
object once with a cursor: after each step it resumes where it rewrote and
rechecks only the ancestors within the rules' reach (``RewriteSystem.reach``).

Deciding a congruence by normalizing both sides (``congruent``,
``congruent_auto``, ``joinable``, the checker's obligations) normalizes each
distinct input once per system: the system keeps a table from an input node
to its normal form and the number of steps to it, with no trace.  Nodes are
interned, so the node is the key.  A hit is taken only if a fresh run would
succeed: its steps must be within the fuel given, or within the default fuel
when none is, and it raises the fresh run's ``FuelExhausted`` otherwise.  An
input that runs out of fuel is not entered.  ``connecting_trace`` needs the
traces themselves and calls ``normalize``, which keeps no table.

Each rule is compiled once (``Compiled``, shared by equal rules through one
table): a matcher written out for its left side, and a builder for each side
that puts the matched images in without capture checks unless the side binds.
Matching (``match`` included), ``normalize``, the redex listing,
``longest_derivation`` and trace replay all run these compiled forms; a
system keeps each rule's form beside it, by name, and trace replay checks a
forward step by the rule's matcher, without building its left side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from operator import is_
from typing import Callable, Mapping, Optional, Union

from .syntax import (
    App,
    Atom,
    Obj,
    Position,
    Proposition,
    SortError,
    Term,
    Var,
    alpha_equal,
    apply_substitution,
    children,
    free_variables,
    positions,
    replace_at,
    size,
    sort_of,
)


class RuleError(Exception):
    """A rewrite rule violates the rule format."""


class FuelExhausted(Exception):
    """Normalization ran out of fuel; the system may not terminate here."""

    def __init__(self, message: str, steps_taken: int = 0):
        super().__init__(message)
        self.steps_taken = steps_taken


class CongruenceError(Exception):
    """Preconditions for an automatic congruence check are not met."""


Lhs = Union[Term, Atom]

# The head symbols of an object's arguments; None for a variable argument.
ArgHeads = tuple[Optional[str], ...]


def _head(x: Obj) -> Optional[str]:
    """The key under which rules for this head symbol are indexed."""
    if isinstance(x, App):
        return x.fn
    if isinstance(x, Atom):
        return "@" + x.pred
    return None


def _arg_heads(x: Union[App, Atom]) -> ArgHeads:
    return tuple(a.fn if isinstance(a, App) else None for a in x.args)


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Lhs
    rhs: Obj

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise RuleError(f"{self.name}: left side must not be a bare variable")
        if isinstance(self.lhs, Atom):
            if not isinstance(self.rhs, Proposition):
                raise RuleError(f"{self.name}: proposition rule needs a proposition right side")
        elif isinstance(self.lhs, App):
            if not isinstance(self.rhs, (Var, App)):
                raise RuleError(f"{self.name}: term rule needs a term right side")
            if sort_of(self.lhs) != sort_of(self.rhs):
                raise RuleError(f"{self.name}: left and right sides have different sorts")
        else:
            raise RuleError(f"{self.name}: left side must be a term or an atom")
        extra = free_variables(self.rhs) - free_variables(self.lhs)
        if extra:
            names = ", ".join(sorted(map(str, extra)))
            raise RuleError(f"{self.name}: right side has extra variables {names}")

    @property
    def is_term_rule(self) -> bool:
        return not isinstance(self.lhs, Atom)


# normalizing x may take up to FUEL_COEFF * size(x) ** FUEL_DEGREE steps by default
FUEL_COEFF = 200
FUEL_DEGREE = 2


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    rules: tuple[Rule, ...]
    terminating: bool = False
    confluent: bool = False
    auto_fallback: Optional["RewriteSystem"] = None

    def __post_init__(self) -> None:
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            duplicate = next(n for i, n in enumerate(names) if n in names[:i])
            raise RuleError(f"{self.name}: duplicate rule name {duplicate}")

    def rule(self, name: str) -> Rule:
        got = self._named.get(name)
        if got is None:
            raise KeyError(f"{self.name} has no rule {name!r}")
        return got[0]

    @cached_property
    def _named(self) -> dict[str, tuple[Rule, "Compiled"]]:
        """Each rule by name, beside its compiled form, looked up in ``_COMPILED`` once."""
        return {r.name: (r, compiled(r.lhs, r.rhs)) for r in self.rules}

    @cached_property
    def reach(self) -> Optional[int]:
        """How far above a rewritten position a new redex can appear: the depth
        of the deepest non-variable position of any left side.  A left side
        reads a variable's image only for its sort, which rewriting keeps, so
        a step changes no match more than this many levels above it.  None when
        the system is not left-linear: a repeated variable compares whole
        subterms, however deep the step."""
        deepest = 0
        for rule in self.rules:
            seen: set[Var] = set()
            for pos, sub in positions(rule.lhs):
                if not isinstance(sub, Var):
                    deepest = max(deepest, len(pos))
                elif sub in seen:
                    return None
                else:
                    seen.add(sub)
        return deepest

    @cached_property
    def _by_head(self) -> dict[str, tuple[tuple[Rule, ArgHeads], ...]]:
        index: dict[str, list[tuple[Rule, ArgHeads]]] = {}
        for r in self.rules:
            index.setdefault(_head(r.lhs), []).append((r, _arg_heads(r.lhs)))
        return {k: tuple(v) for k, v in index.items()}

    @cached_property
    def _by_shape(self) -> dict[tuple[str, ArgHeads], tuple[tuple[Rule, "Compiled"], ...]]:
        return {}

    @cached_property
    def _normal_form_table(self) -> dict[Obj, tuple[Obj, int]]:
        """Each input ``_normal_form`` normalized under this system: its normal
        form and the number of steps to it, no trace.  Nodes are interned, so
        the key is the object itself; only successes are entered."""
        return {}

    def candidates(self, subject: Obj) -> tuple[Rule, ...]:
        """Rules whose left side could match at the root of the subject, in rule order.

        A one-level discrimination tree: a rule is kept when its head symbol
        is the subject's and each argument of its left side is a variable or
        has the head symbol of the subject's argument.
        """
        return tuple(rule for rule, _ in self._candidate_forms(subject))

    def _candidate_forms(self, subject: Obj) -> tuple[tuple[Rule, "Compiled"], ...]:
        """``candidates``, each beside its compiled form."""
        head = _head(subject)
        rules = self._by_head.get(head)
        if rules is None:
            return ()
        args = _arg_heads(subject)
        got = self._by_shape.get((head, args))
        if got is None:
            got = self._by_shape[head, args] = tuple(
                self._named[r.name]
                for r, want in rules
                if len(want) == len(args) and all(w is None or w == a for w, a in zip(want, args))
            )
        return got

    def default_fuel(self, x: Obj) -> int:
        return FUEL_COEFF * size(x) ** FUEL_DEGREE

    def congruence_system(self) -> "RewriteSystem":
        """The system used for normalize-and-compare congruence checks."""
        if self.terminating:
            return self
        if self.auto_fallback is not None and self.auto_fallback.terminating:
            return self.auto_fallback
        raise CongruenceError(
            f"{self.name} is not declared terminating and has no terminating subsystem"
        )


EMPTY_SYSTEM = RewriteSystem("empty", (), terminating=True, confluent=True)


@dataclass(frozen=True)
class RewriteStep:
    position: Position
    rule: str
    subst: tuple[tuple[Var, Term], ...]
    forward: bool = True

    def substitution(self) -> dict[Var, Term]:
        return dict(self.subst)


@dataclass(frozen=True)
class Trace:
    """A rewrite derivation; ``verify_trace`` is given its two ends beside it."""

    steps: tuple[RewriteStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def reversed(self) -> "Trace":
        flipped = tuple(
            RewriteStep(s.position, s.rule, s.subst, not s.forward) for s in reversed(self.steps)
        )
        return Trace(flipped)


# ---------------------------------------------------------------------------
# Rules compiled once


class Compiled:
    """A rule's two sides, or a pattern alone, compiled once into functions
    written out for their shapes, each a straight line of tests or of node
    constructions (a matcher specialised to one pattern, in the manner of
    Maranget, "Compiling pattern matching to good decision trees", ML 2008):

    - ``match(subject)`` tests heads, arities and variable sorts in pre-order
      and reads the slots straight out.  It gives the images of ``variables``,
      the left side's variables in the order they first occur, as a tuple, or
      None.  A variable's image is a ``Var`` or ``App`` of its sort, a
      repeated variable needs equal images, and an application's sort is not
      tested.
    - ``build_lhs(images)`` and ``build_rhs(images)`` give a side with the
      images put in for ``variables``.  A side with no binder is built with no
      capture check, and its ground subterms are reused as they are.  A side
      with one goes through the capture-avoiding ``apply_substitution``.
    - ``rhs_variables`` lists the right side's variables in the order
      ``apply_substitution`` meets them, or is None if the side binds.
    - ``subst(images)`` gives a ``RewriteStep.subst``: the bindings sorted by
      variable, in an order worked out here.

    Forms live in ``_COMPILED``, keyed by the pair of sides, so equal rules of
    systems built again share one; a form pickles as its sides.
    """

    __slots__ = (
        "lhs", "rhs", "variables", "rhs_variables", "match", "build_lhs", "build_rhs", "subst"
    )

    def __reduce__(self):
        return compiled, (self.lhs, self.rhs)

    def lhs_under(self, sigma: Mapping[Var, Term]) -> Obj:
        """``apply_substitution(self.lhs, sigma)``, with the same SortError."""
        return self.build_lhs(_images(self.variables, sigma, self.variables))

    def rhs_under(self, sigma: Mapping[Var, Term]) -> Obj:
        """``apply_substitution(self.rhs, sigma)``, with the same SortError."""
        if self.rhs_variables is None:
            # which binders are renamed depends on the variables sigma binds
            return apply_substitution(self.rhs, sigma)
        return self.build_rhs(_images(self.variables, sigma, self.rhs_variables))


_COMPILED: dict[tuple[Obj, Optional[Obj]], Compiled] = {}


def compiled(lhs: Obj, rhs: Optional[Obj] = None) -> Compiled:
    """The compiled form of a rule's sides, or of the pattern ``lhs`` alone."""
    got = _COMPILED.get((lhs, rhs))
    if got is None:
        got = _COMPILED[lhs, rhs] = _compile(lhs, rhs)
    return got


def _images(
    variables: tuple[Var, ...], sigma: Mapping[Var, Term], checked: tuple[Var, ...]
) -> tuple:
    """The images of ``variables`` under ``sigma``, an unbound one itself.  Of
    ``checked``, in the order ``apply_substitution`` meets them, the first one
    bound to a term of another sort raises the SortError it would."""
    for v in checked:
        t = sigma.get(v)
        if t is not None and t.sort != v.sort:
            raise SortError(f"substitution maps {v} to {t} of sort {t.sort}")
    return tuple([sigma.get(v, v) for v in variables])


def _compile(lhs: Obj, rhs: Optional[Obj]) -> Compiled:
    env: dict[str, object] = {}
    names: dict[int, str] = {}  # by id: the values are kept alive in env

    def const(value: object) -> str:
        """An expression for ``value`` in the generated code."""
        if type(value) is str:
            return repr(value)
        name = names.get(id(value))
        if name is None:
            name = names[id(value)] = f"c{len(names)}"
            env[name] = value
        return name

    form = Compiled()
    variables = _first_occurrences(lhs)
    form.lhs, form.rhs, form.variables = lhs, rhs, variables
    unpack = ["".join(f"i{k}, " for k in range(len(variables))) + "= i"] if variables else []
    order = sorted(range(len(variables)), key=lambda k: (variables[k].name, variables[k].sort))
    pairs = "".join(f"({const(variables[k])}, i{k}), " for k in order)
    bodies = {
        "match": ("s", _matcher_lines(lhs, variables, const)),
        "subst": ("i", [*unpack, f"return ({pairs})"]),
    }
    form.build_rhs = form.rhs_variables = None
    for name, side in (("build_lhs", lhs), ("build_rhs", rhs)):
        lines = None if side is None else _builder_lines(side, variables, const)
        if lines is not None:
            bodies[name] = ("i", [*unpack, *lines])
        elif side is not None:
            setattr(form, name, partial(_substituted, side, variables))
    if "build_rhs" in bodies:
        form.rhs_variables = _first_occurrences(rhs)
    # one exec for the form's functions, each of them a straight line
    exec("".join(f"def {name}({param}):\n" + "".join(f"    {line}\n" for line in body)
                 for name, (param, body) in bodies.items()), env)
    for name in bodies:
        setattr(form, name, env[name])
    return form


def _first_occurrences(side: Obj) -> tuple[Var, ...]:
    """The variables of a side with no binder, in the order ``apply_substitution`` meets them."""
    return tuple(dict.fromkeys(sub for _, sub in positions(side) if type(sub) is Var))


def _matcher_lines(
    pattern: Obj, variables: tuple[Var, ...], const: Callable[[object], str]
) -> list[str]:
    """The body of ``match(s)`` for ``pattern``, one line per test in
    pre-order, returning the images of ``variables``."""
    lines: list[str] = []
    at: dict[Var, str] = {}  # where each variable first occurs
    count = 0
    stack = [(pattern, "s")]
    while stack:
        p, s = stack.pop()
        kind = type(p)
        if kind is Var:
            if p in at:
                lines.append(f"if {s} != {at[p]}: return None")
                continue
            at[p] = s
            sort = const(p.sort)
            lines.append(
                f"if type({s}) is not {const(Var)} and type({s}) is not {const(App)}"
                f" or {s}.sort is not {sort} and {s}.sort != {sort}: return None"
            )
        elif kind is App or kind is Atom:
            head = "fn" if kind is App else "pred"
            name = getattr(p, head)
            lines.append(f"if type({s}) is not {const(kind)} or {s}.{head} != {name!r}: return None")
            kids = [f"s{count + k}" for k in range(len(p.args))]
            count += len(kids)
            if kids:
                lines += [f"a = {s}.args", f"if len(a) != {len(kids)}: return None"]
                lines.append("".join(f"{k}, " for k in kids) + "= a")
            else:
                lines.append(f"if {s}.args: return None")
            stack.extend(reversed(list(zip(p.args, kids))))
        else:
            lines.append("return None")  # only variables, applications and atoms match
            break
    else:
        lines.append("return (" + "".join(f"{at[v]}, " for v in variables) + ")")
    return lines


def _builder_lines(
    side: Obj, variables: tuple[Var, ...], const: Callable[[object], str]
) -> Optional[list[str]]:
    """The lines building ``side`` from the images ``i0``, ``i1``, ... of
    ``variables``, one node per line; None if ``side`` binds."""
    index = {v: k for k, v in enumerate(variables)}
    lines: list[str] = []
    built: dict[Obj, str] = {}
    stack = [side]
    while stack:
        node = stack[-1]
        if node in built:
            stack.pop()
        elif type(node) is Var:
            built[node] = f"i{index[node]}"
        elif node._ground:  # ground: reused as it is
            built[node] = const(node)
        elif node.shape.binder:
            return None
        else:
            shape = node.shape
            kids = shape.children(node)
            todo = [k for k in kids if k not in built]
            if todo:
                stack.extend(reversed(todo))
                continue
            parts = [const(v) for v in shape.values(node)]
            if shape.variadic:
                parts[shape.slots[0]] = "(" + "".join(f"{built[k]}, " for k in kids) + ")"
            else:
                for slot, k in zip(shape.slots, kids):
                    parts[slot] = built[k]
            built[node] = f"t{len(lines)}"
            lines.append(f"{built[node]} = {const(type(node))}({', '.join(parts)})")
    return [*lines, f"return {built[side]}"]


def _substituted(side: Obj, variables: tuple[Var, ...], images: tuple) -> Obj:
    return apply_substitution(side, dict(zip(variables, images)))


def match(pattern: Obj, subject: Obj) -> Optional[dict[Var, Term]]:
    """First-order matching by ``pattern``'s compiled form; repeated pattern
    variables need equal images."""
    form = compiled(pattern)
    images = form.match(subject)
    return None if images is None else dict(zip(form.variables, images))


Redex = tuple[Position, Rule, dict[Var, Term]]


def rewrite_redexes(x: Obj, system: RewriteSystem) -> list[Redex]:
    """All redexes, leftmost-outermost first; rule order breaks ties."""
    out = []
    for pos, sub in positions(x):
        for rule, form in system._candidate_forms(sub):
            images = form.match(sub)
            if images is not None:
                out.append((pos, rule, dict(zip(form.variables, images))))
    return out


def apply_redex(x: Obj, redex: Redex) -> Obj:
    pos, rule, sigma = redex
    return replace_at(x, compiled(rule.lhs, rule.rhs).rhs_under(sigma), pos)


def _redex_at(sub: Obj, system: RewriteSystem) -> Optional[tuple[Rule, Compiled, tuple]]:
    """The first rule, in rule order, whose left side matches at the root of
    ``sub``, with its compiled form and the images of its variables."""
    for rule, form in system._candidate_forms(sub):
        images = form.match(sub)
        if images is not None:
            return rule, form, images
    return None


# A cursor into an object is the focus beside a spine and a path: the spine
# holds a pair (node, kids) for each ancestor of the focus, root first, where
# ``kids`` lists the node's children as the walk last left them, and the path
# holds the focus's position, so the focus is ``kids[path[-1] - 1]`` of the
# last pair (Huet, "The Zipper", JFP 1997).


def _leave(node: Obj, kids: list[Obj], idx: int, focus: Obj) -> Obj:
    """``node`` with ``focus`` as its child ``idx``; rebuilt only if a child changed."""
    kids[idx - 1] = focus
    return node if all(map(is_, kids, children(node))) else node.shape.rebuild(node, kids)


def normalize(x: Obj, system: RewriteSystem, fuel: Optional[int] = None) -> tuple[Obj, Trace]:
    """Rewrite leftmost-outermost to normal form; raises FuelExhausted before looping forever.

    One pre-order walk over a cursor.  After a step at p the subtrees left of
    p are unchanged and were found redex-free, so the next redex is one of
    p's ancestors, rechecked outermost first, or lies at or after p, where
    the walk resumes.  Only the ancestors within ``system.reach`` of p can
    have become redexes; they are rebuilt and rechecked at once, every other
    ancestor once, when the walk leaves it.
    """
    if fuel is None:
        fuel = system.default_fuel(x)
    if fuel <= 0:
        raise FuelExhausted("normalize needs positive fuel")
    reach, heads = system.reach, system._by_head
    steps: list[RewriteStep] = []
    spine: list[tuple[Obj, list[Obj]]] = []
    path: list[int] = []
    focus = x
    found = _redex_at(focus, system)
    while True:
        if found is not None:
            if len(steps) >= fuel:
                raise FuelExhausted(
                    f"no normal form within {fuel} steps under {system.name}", len(steps)
                )
            rule, form, images = found
            focus = form.build_rhs(images)
            steps.append(RewriteStep(tuple(path), rule.name, form.subst(images)))
            near = 0 if reach is None else max(0, len(spine) - reach)
            # a head no rule has stays no redex, so such outer ancestors need no rebuild yet
            while near < len(spine) and _head(spine[near][0]) not in heads:
                near += 1
            sub = focus
            for j in range(len(spine) - 1, near - 1, -1):
                node, kids = spine[j]
                sub = _leave(node, kids, path[j], sub)
                spine[j] = sub, kids
            for j in range(near, len(spine)):
                found = _redex_at(spine[j][0], system)
                if found is not None:
                    focus = spine[j][0]
                    del spine[j:], path[j:]
                    break
            else:
                found = _redex_at(focus, system)
            continue
        kids = children(focus)
        if kids:
            spine.append((focus, list(kids)))
            path.append(1)
            focus = kids[0]
        else:
            while spine:
                node, kids = spine[-1]
                idx = path[-1]
                if idx < len(kids):
                    kids[idx - 1] = focus
                    path[-1] = idx + 1
                    focus = kids[idx]
                    break
                spine.pop()
                focus = _leave(node, kids, path.pop(), focus)
            else:
                return focus, Trace(tuple(steps))
        found = _redex_at(focus, system)


def _normal_form(x: Obj, system: RewriteSystem, fuel: Optional[int]) -> tuple[Obj, int]:
    """``normalize(x, system, fuel)``'s normal form and the length of its
    trace, normalizing each input once per system.

    A hit in ``system._normal_form_table`` raises what a fresh run would: a
    run of n steps needs fuel of at least n, and the default fuel, at least
    ``FUEL_COEFF`` since a node's size is at least 1, is worked out only for
    a longer one.  An input that ran out of fuel is run afresh every time.
    """
    table = system._normal_form_table
    got = table.get(x)
    if got is None:
        nf, trace = normalize(x, system, fuel)
        got = table[x] = nf, len(trace)
        return got
    steps = got[1]
    if fuel is None:
        if steps <= FUEL_COEFF:
            return got
        fuel = system.default_fuel(x)
    if fuel <= 0:
        raise FuelExhausted("normalize needs positive fuel")
    if steps > fuel:
        raise FuelExhausted(f"no normal form within {fuel} steps under {system.name}", fuel)
    return got


def _normal_forms(
    p: Obj, q: Obj, system: RewriteSystem, fuel: Optional[int]
) -> tuple[bool, tuple[Obj, int], tuple[Obj, int]]:
    """Normalize p, then q, under ``system`` and compare the results.

    Returns whether the normal forms are alpha-equal, and each side's normal
    form beside the number of steps to it.
    """
    got_p = _normal_form(p, system, fuel)
    got_q = _normal_form(q, system, fuel)
    return alpha_equal(got_p[0], got_q[0]), got_p, got_q


def congruent_auto(p: Obj, q: Obj, system: RewriteSystem, fuel: Optional[int] = None) -> bool:
    """Decide p <->* q by joint normalization; needs both capability flags."""
    if not (system.terminating and system.confluent):
        raise CongruenceError(
            f"congruent_auto needs a terminating and confluent system, got {system.name}"
        )
    return alpha_equal(p, q) or _normal_forms(p, q, system, fuel)[0]


def congruent(p: Obj, q: Obj, system: RewriteSystem, fuel: Optional[int] = None) -> bool:
    """Sound congruence check: joint normalization under the congruence system.

    A positive answer always certifies p <->* q (the two normalization traces
    are rewrite derivations); a negative answer is only conclusive when the
    system used is confluent.
    """
    if alpha_equal(p, q):
        return True
    return _normal_forms(p, q, system.congruence_system(), fuel)[0]


def connecting_trace(p: Obj, q: Obj, system: RewriteSystem, fuel: Optional[int] = None) -> Trace:
    """Build a trace certifying p <->* q via their common normal form."""
    if alpha_equal(p, q):
        return Trace()
    sub = system.congruence_system()
    nf_p, tp = normalize(p, sub, fuel)
    nf_q, tq = normalize(q, sub, fuel)
    if not alpha_equal(nf_p, nf_q):
        raise CongruenceError(f"{p} and {q} have distinct normal forms")
    return Trace(tp.steps + tq.reversed().steps)


def verify_trace(p: Obj, q: Obj, trace: Trace, system: RewriteSystem) -> bool:
    """Replay a trace step by step; backward steps replay the inverse rewrite.

    The replay walks a cursor as ``normalize`` does: each step climbs to the
    common prefix of the last step's position and its own, then descends.
    A forward step is checked by its rule's matcher: the images the step's
    bindings give, sort-checked first, must be the ones the matcher reads off
    the focus, so the left side is never built.  Like ``normalize``, this does
    not compare the sorts annotated on the left side's applications.
    """
    named = system._named
    spine: list[tuple[Obj, list[Obj]]] = []
    path: Position = ()
    focus = p
    for step in trace.steps:
        got = named.get(step.rule)
        if got is None:
            return False
        form = got[1]
        pos = step.position
        while pos[: len(path)] != path:
            focus = _leave(*spine.pop(), path[-1], focus)
            path = path[:-1]
        for idx in pos[len(path) :]:
            kids = children(focus)
            if not 1 <= idx <= len(kids):
                return False
            spine.append((focus, list(kids)))
            focus = kids[idx - 1]
        path = pos
        sigma = step.substitution()
        if step.forward:
            images = _images(form.variables, sigma, form.variables)
            if form.match(focus) != images:
                return False
            focus = form.rhs_under(sigma)
        else:
            if not alpha_equal(focus, form.rhs_under(sigma)):
                return False
            focus = form.lhs_under(sigma)
    for (node, kids), idx in zip(reversed(spine), reversed(path)):
        focus = _leave(node, kids, idx, focus)
    return alpha_equal(focus, q)


# ---------------------------------------------------------------------------
# Critical pairs


def unify(a: Obj, b: Obj) -> Optional[dict[Var, Term]]:
    """Syntactic sort-respecting unification of binder-free objects."""
    sub: dict[Var, Term] = {}

    def resolve(t: Obj) -> Obj:
        while isinstance(t, Var) and t in sub:
            t = sub[t]
        return t

    def occurs(v: Var, t: Obj) -> bool:
        t = resolve(t)
        if t == v:
            return True
        return any(occurs(v, c) for c in children(t))

    def go(s: Obj, t: Obj) -> bool:
        s, t = resolve(s), resolve(t)
        if s == t:
            return True
        if isinstance(s, Var):
            if isinstance(t, Proposition) or sort_of(t) != s.sort or occurs(s, t):
                return False
            sub[s] = t
            return True
        if isinstance(t, Var):
            return go(t, s)
        head = _head(s)
        if head is None or type(s) is not type(t) or head != _head(t) or len(s.args) != len(t.args):
            return False
        return all(go(a, b) for a, b in zip(s.args, t.args))

    if not go(a, b):
        return None
    # fully apply bindings
    out: dict[Var, Term] = {}
    for v in sub:
        t = v
        while isinstance(t, Var) and t in sub:
            t = sub[t]
        out[v] = apply_substitution(t, sub) if isinstance(t, App) else t
    changed = True
    while changed:
        changed = False
        for v, t in out.items():
            t2 = apply_substitution(t, out)
            if t2 != t:
                out[v] = t2
                changed = True
    return out


@dataclass(frozen=True)
class CriticalPair:
    peak: Obj
    left: Obj
    right: Obj
    rules: tuple[str, str]
    position: Position


def _rename_apart(rule: Rule, taken: frozenset[Var]) -> Rule:
    ren: dict[Var, Term] = {}
    for v in sorted(free_variables(rule.lhs), key=str):
        if v in taken:
            name = v.name
            avoid = {w.name for w in taken} | {w.name for w in ren}
            while name in avoid:
                name += "_"
            ren[v] = Var(name, v.sort)
    if not ren:
        return rule
    return Rule(rule.name, apply_substitution(rule.lhs, ren), apply_substitution(rule.rhs, ren))


def critical_pairs(system: RewriteSystem) -> list[CriticalPair]:
    """All overlaps between left sides of renamed-apart rule pairs."""
    out: list[CriticalPair] = []
    for outer in system.rules:
        for inner_raw in system.rules:
            inner = _rename_apart(inner_raw, frozenset(free_variables(outer.lhs)))
            for pos, sub in positions(outer.lhs):
                if isinstance(sub, Var):
                    continue
                if pos == () and inner_raw.name >= outer.name:
                    continue  # self-overlap, or the mirror image of another root pair
                if isinstance(sub, Atom) != isinstance(inner.lhs, Atom):
                    continue
                sigma = unify(sub, inner.lhs)
                if sigma is None:
                    continue
                peak = apply_substitution(outer.lhs, sigma)
                left = replace_at(peak, apply_substitution(inner.rhs, sigma), pos)
                right = apply_substitution(outer.rhs, sigma)
                out.append(CriticalPair(peak, left, right, (inner_raw.name, outer.name), pos))
    return out


def joinable(pair: CriticalPair, system: RewriteSystem, fuel: Optional[int] = None) -> bool:
    return _normal_forms(pair.left, pair.right, system, fuel)[0]


def check_left_linear(system: RewriteSystem) -> bool:
    return system.reach is not None


# ---------------------------------------------------------------------------
# Derivational-length probe


def longest_derivation(
    x: Obj,
    system: RewriteSystem,
    fuel: int = 100_000,
    known: Optional[Mapping[Obj, int]] = None,
    table: Optional[dict[Obj, tuple[Obj, ...]]] = None,
) -> int:
    """Exact maximal derivation length from x, by exhaustive memoized search.

    Below a node whose head symbol no rule has, rewrites in different
    children never interact and the node itself never becomes a redex, so
    the search adds up the children's longest derivations.  The test is on
    the head symbol alone: rewriting a child can change its head, so the
    argument shapes ``candidates`` filters on are not stable under search.

    Each searched term spends one unit of ``fuel`` per one-step reduct, a
    reduct counted once for each redex that gives it.  The search is one
    depth-first walk with its own stack, so neither the depth of a term nor
    the length of a derivation is bounded by the interpreter's recursion
    limit.

    ``known`` maps objects to their exact longest derivations under this
    same system, as earlier calls returned them; it is only read.  Every
    subterm and every reduct the search meets is looked up in it before it
    is split or searched, and a hit is taken as the answer without spending
    any of ``fuel``, so with ``known`` a search may finish where it would
    otherwise exhaust its budget.  A wrong entry gives a wrong result.

    ``table`` maps nodes to their one-step reducts under this same system.
    The search reads it and enters every node whose reducts it computes, so
    a caller may share one table over many calls.  An entry depends only on
    the node and the system, and a searched term spends ``fuel`` on its
    reducts whether or not they were in the table, so sharing changes no
    result and no ``FuelExhausted``.
    """
    heads = system._by_head
    done = known if known is not None else {}
    memo: dict[Obj, int] = {}  # searched term -> its longest derivation
    if table is None:
        table = {}  # subterm -> its one-step reducts
    budget = fuel
    # A frame is [term, its reducts, index of the reduct being split, best so
    # far, the known part of that reduct's sum, its parts still to search].
    # The bottom frame stands for x itself, split as if it were a reduct.
    total, todo = _split(x, done, heads, table)
    frames: list[list] = [[x, (x,), 0, 0, total, todo]]
    while True:
        frame = frames[-1]
        todo = frame[5]
        while todo:
            t = todo.pop()
            got = memo.get(t)
            if got is None:
                break
            frame[4] += got
        else:
            if len(frames) == 1:
                return frame[4]
            best = frame[3] = max(frame[3], 1 + frame[4])
            i = frame[2] = frame[2] + 1
            if i < len(frame[1]):
                frame[4], frame[5] = _split(frame[1][i], done, heads, table)
            else:
                frames.pop()
                memo[frame[0]] = best
                frames[-1][4] += best
            continue
        reducts = _reducts(t, system, done, table)
        budget -= len(reducts)
        if budget < 0:
            raise FuelExhausted("longest_derivation search budget exhausted")
        if reducts:
            frames.append([t, reducts, 0, 0, *_split(reducts[0], done, heads, table)])
        else:
            memo[t] = 0


def _split(
    x: Obj, known: Mapping[Obj, int], heads: Mapping, table: Mapping[Obj, tuple[Obj, ...]]
) -> tuple[int, list[Obj]]:
    """``x`` cut at the nodes that are known or have a head some rule has:
    the sum of the known parts' longest derivations, and the other parts.
    A headless node that ``table`` gives no reducts is a normal form: it
    adds 0 and is not walked, so a chain of reducts that each hold the last
    one's normal prefix walks each node of the prefix once."""
    total = 0
    todo: list[Obj] = []
    stack = [x]
    while stack:
        u = stack.pop()
        got = known.get(u)
        if got is not None:
            total += got
        elif _head(u) in heads:
            todo.append(u)
        elif table.get(u, True):  # not a known normal form
            stack.extend(children(u))
    return total, todo


def _reducts(
    x: Obj, system: RewriteSystem, known: Mapping[Obj, int], table: dict[Obj, tuple[Obj, ...]]
) -> tuple[Obj, ...]:
    """The one-step reducts of ``x``, leftmost-outermost first and in rule
    order at one node, one per redex: the right sides of the redexes at the
    root, then each child's reducts put in its place.  A child ``known`` to
    have no derivation has no reducts and is not walked.  Each subterm's
    reducts are entered in ``table``, which later calls reuse."""
    stack = [x]
    while stack:
        node = stack[-1]
        if node in table:
            stack.pop()
            continue
        kids = children(node)
        todo = [k for k in kids if k not in table and known.get(k) != 0]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        out = []
        for _, form in system._candidate_forms(node):
            images = form.match(node)
            if images is not None:
                out.append(form.build_rhs(images))
        for idx, kid in enumerate(kids):
            for r in table.get(kid, ()):
                parts = list(kids)
                parts[idx] = r
                out.append(node.shape.rebuild(node, parts))
        table[node] = tuple(out)
    return table[x]
