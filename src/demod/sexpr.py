"""A minimal s-expression reader and printer.

Documents are atoms (symbols) and parentheses, nothing else; semicolon
comments run to the end of the line.  Whatever an atom means (sort, variable,
rule name) is decided by the consumer, so parse-print round trips are
identity up to whitespace.  The reader shares equal sub-forms, so what it
gives must be treated as immutable.
"""

from __future__ import annotations

import re
from typing import Optional, Union

Sx = Union[str, list]


class SexprError(Exception):
    pass


# A token is a parenthesis, an atom (a run of anything but whitespace,
# parentheses and ``;``) or a comment, which is dropped.  Whitespace is
# space, tab, carriage return and newline only.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")


def tokenize(text: str) -> list[str]:
    """The tokens of ``text``."""
    return [tok for tok in _TOKEN.findall(text) if tok[0] != ";"]


def parse(text: str) -> Sx:
    """The one form of ``text``.  Equal sub-forms come back as one object
    (see ``parse_many``), so a parsed form must be treated as immutable."""
    forms = parse_many(text)
    if len(forms) != 1:
        raise SexprError(f"expected one form, found {len(forms)}")
    return forms[0]


def parse_many(text: str) -> list[Sx]:
    """The forms of ``text``, in order.  Forms are hash-consed: equal atoms,
    and equal lists, are one object each, so the forms are a graph with one
    node per distinct sub-form.  A list is keyed by the ids of its elements,
    which are already shared when it closes."""
    atoms: dict[str, str] = {}
    lists: dict[tuple[int, ...], list] = {}
    stack: list[list] = []  # the open lists around ``top``
    top: list = []
    for tok in tokenize(text):
        if tok == "(":
            stack.append(top)
            top = []
        elif tok == ")":
            if not stack:
                raise SexprError("unbalanced closing parenthesis")
            done = lists.setdefault(tuple(map(id, top)), top)
            top = stack.pop()
            top.append(done)
        else:
            top.append(atoms.setdefault(tok, tok))
    if stack:
        raise SexprError("unclosed parenthesis")
    return top


def show(sx: Sx) -> str:
    """``sx`` on one line.  The walk keeps its own stack, so any depth prints."""
    out: list[str] = []
    stack: list[Sx] = [sx]  # forms to print, and the texts between them
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        out.append("(")
        stack.append(")")
        for i in range(len(x) - 1, 0, -1):
            stack += (x[i], " ")
        if x:
            stack.append(x[0])
    return "".join(out)


# Lists that would be indented deeper than this print flat, so pretty text
# stays linear in the flat text: a deep proof would otherwise repeat its
# nesting depth as indentation on every line.  The deepest fragment
# (HHA times-s) needs 47 levels.
PRETTY_DEPTH = 48


def show_pretty(sx: Sx, width: int = 100, depth: int = PRETTY_DEPTH) -> str:
    """Print lists wider than ``width`` as their head, then one element per line.

    Each element line is indented two spaces deeper than its list.  A list
    whose lines would be indented more than ``depth`` levels is printed flat
    instead, so the output is at most ``depth + 1`` times ``show``'s.  Flat
    widths are computed once per subtree, so printing is linear in the
    output.  Both walks keep their own stacks.
    """
    lists: list[list] = []  # every list, each before the lists inside it
    todo = [sx] if isinstance(sx, list) else []
    while todo:
        x = todo.pop()
        lists.append(x)
        todo += [y for y in x if isinstance(y, list)]
    flat_width: dict[int, int] = {}
    for x in reversed(lists):
        w = 1 + len(x) if x else 2
        for y in x:
            w += len(y) if isinstance(y, str) else flat_width[id(y)]
        flat_width[id(x)] = w

    out: list[str] = []
    # (form, level) prints a form whose first line is indented ``level``
    # levels; (text, None) is text between forms
    stack: list[tuple[Sx, Optional[int]]] = [(sx, 0)]
    while stack:
        x, level = stack.pop()
        if level is None:
            out.append(x)
        elif isinstance(x, str) or flat_width[id(x)] <= width or level >= depth:
            out.append(show(x))
        else:
            head, *rest = x
            stack.append((")", None))
            if not rest:
                stack.append(("\n" + "  " * level, None))
            inner = "\n" + "  " * (level + 1)
            for y in reversed(rest):
                stack += ((y, level + 1), (inner, None))
            stack.append((head, level))
            out.append("(")
    return "".join(out)
