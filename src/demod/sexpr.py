"""A minimal s-expression reader and printer.

Documents are atoms (symbols) and parentheses, nothing else; semicolon
comments run to the end of the line.  Whatever an atom means (sort, variable,
rule name) is decided by the consumer, so parse-print round trips are
identity up to whitespace.
"""

from __future__ import annotations

from typing import Iterator, Union

Sx = Union[str, list]


class SexprError(Exception):
    pass


def tokenize(text: str) -> Iterator[str]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c
            i += 1
        else:
            start = i
            while i < n and text[i] not in " \t\r\n();":
                i += 1
            yield text[start:i]


def parse(text: str) -> Sx:
    forms = parse_many(text)
    if len(forms) != 1:
        raise SexprError(f"expected one form, found {len(forms)}")
    return forms[0]


def parse_many(text: str) -> list[Sx]:
    stack: list[list] = [[]]
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SexprError("unbalanced closing parenthesis")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SexprError("unclosed parenthesis")
    return stack[0]


def show(sx: Sx) -> str:
    if isinstance(sx, str):
        return sx
    return "(" + " ".join(show(x) for x in sx) + ")"


def show_pretty(sx: Sx, width: int = 100) -> str:
    """Print lists wider than ``width`` as their head, then one element per line.

    Each element line is indented two spaces deeper than its list.  Flat
    widths are computed once per subtree, so printing is linear in the output.
    """
    flat_width: dict[int, int] = {}

    def measure(x: Sx) -> int:
        if isinstance(x, str):
            return len(x)
        w = 2 + max(len(x) - 1, 0) + sum(measure(y) for y in x)
        flat_width[id(x)] = w
        return w

    out: list[str] = []

    def emit(x: Sx, indent: str) -> None:
        if isinstance(x, str) or flat_width[id(x)] <= width:
            out.append(show(x))
            return
        head, *rest = x
        out.append("(")
        emit(head, indent)
        inner = indent + "  "
        for y in rest:
            out.append("\n" + inner)
            emit(y, inner)
        if not rest:
            out.append("\n" + indent)
        out.append(")")

    measure(sx)
    emit(sx, "")
    return "".join(out)
