"""Known answers computed apart from the program.

Each function here states a fact the program's output must agree with,
worked out by other means: integer arithmetic for ``Add``, a counting
recurrence for the probe's term universe, closed-form proof lengths, and a
Hilbert proof generator in which each round's result is cited twice.
"""

from __future__ import annotations

import random
from functools import lru_cache

# Criterion 6 and criterion 8 pin these lengths; a fragment's length does not
# depend on the template it is instantiated at.
FZ_LENGTHS = {"leibniz": 1, "ind": 1, "comp^0": 5}
HHA_LENGTHS = {
    "refl": 3,
    "leibniz-ax": 5,
    "zero-ne-s": 5,
    "inj-s": 7,
    "onto-s": 14,
    "plus-zero": 11,
    "plus-s": 12,
    "times-zero": 11,
    "times-s": 152,
    "leibniz": 6,
    "ind": 5,
    "comp^0": 5,
}

# Criterion 7's pinned linear bounds: output length over input length.
C_HILBERT_TO_ND = 6
C_ZI_TO_FZ = 8
K_ABSTRACTION = 37


def numeral_value(term) -> int | None:
    """The integer a closed numeral s(...s(0)...) denotes, else None."""
    value = 0
    while getattr(term, "fn", None) == "s" and len(term.args) == 1:
        value += 1
        term = term.args[0]
    if getattr(term, "fn", None) == "0" and not term.args:
        return value
    return None


def add_holds(a: int, b: int, c: int) -> bool:
    """The truth of Add(a, b, c) in the integers."""
    return a + b == c


def add_axiomatic_length(n: int) -> int:
    """One universal instance at the base plus five inferences per unfolding."""
    return 5 * n + 1


# The probe's ground-term signature: name, argument sorts, result sort.  It is
# written out here, not read from the program, so the counts below are an
# independent check of the enumeration.
PROBE_SIGNATURE = (
    ("0", (), "nat"),
    ("1^0", (), "nat"),
    ("s", ("nat",), "nat"),
    ("S^0", ("nat",), "nat"),
    ("+", ("nat", "nat"), "nat"),
    ("sub^0", ("nat", "list"), "nat"),
    ("nil", (), "list"),
    ("cons^0", ("nat", "list"), "list"),
)


@lru_cache(maxsize=None)
def terms_of(sort: str, size: int) -> int:
    """Number of ground terms of ``sort`` with exactly ``size`` symbols."""
    if size < 1:
        return 0
    total = 0
    for _, args, result in PROBE_SIGNATURE:
        if result != sort:
            continue
        if not args:
            total += size == 1
        elif len(args) == 1:
            total += terms_of(args[0], size - 1)
        else:
            total += sum(
                terms_of(args[0], i) * terms_of(args[1], size - 1 - i) for i in range(1, size - 1)
            )
    return total


def term_count(size: int) -> int:
    """Ground terms of both sorts with exactly ``size`` symbols."""
    return terms_of("nat", size) + terms_of("list", size)


def random_probe_term(rng: random.Random, max_size: int):
    """A seeded ground term of the probe signature with at most ``max_size`` symbols."""
    from demod.syntax import LIST, App, arith

    sorts = {"nat": arith(0), "list": LIST}

    def build(sort: str, budget: int):
        fits = [f for f in PROBE_SIGNATURE if f[2] == sort and 1 + len(f[1]) <= budget]
        name, args, result = rng.choice(fits)
        share = (budget - 1) // max(len(args), 1)
        return App(name, tuple(build(a, share) for a in args), sorts[result])

    return build("nat", max_size)


def reuse_proof(rounds: int):
    """A Hilbert proof of T in which every round's result is used twice.

    Line 1 is the schema T.  Each round adds K(P, P) : P > (P > P), then
    modus ponens with P for P > P, then modus ponens with P again for P.
    The proof has 1 + 3 * rounds lines; a translation that copies the proof
    of a line at each use doubles in size with every round.
    """
    from demod.hilbert import HilbertProof, Line, MpLine, SchemaLine, instance
    from demod.syntax import TRUE, Imp

    prop = TRUE
    lines = [Line(SchemaLine(instance("T")), prop)]
    last = 1
    for _ in range(rounds):
        lines.append(Line(SchemaLine(instance("K", templates=[("A", prop), ("B", prop)])),
                          Imp(prop, Imp(prop, prop))))
        lines.append(Line(MpLine(last, len(lines)), Imp(prop, prop)))
        lines.append(Line(MpLine(last, len(lines)), prop))
        last = len(lines)
    return HilbertProof(tuple(lines))


def reuse_proof_lines(rounds: int) -> int:
    return 1 + 3 * rounds


def hilbert_references(proof) -> list[int]:
    """How many later lines cite each line, by line number from 1."""
    uses = [0] * len(proof.lines)
    for line in proof.lines:
        for ref in (getattr(line.just, "minor", None), getattr(line.just, "major", None),
                    getattr(line.just, "ref", None)):
            if ref is not None:
                uses[ref - 1] += 1
    return uses
