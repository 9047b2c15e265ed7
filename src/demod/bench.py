"""Benchmark harness: proof generators, growth measurements and probes.

The headline experiment contrasts the one-inference proofs of the addition
facts modulo the Add rules with their axiomatic counterparts whose length
grows with the numeral.  The growth harness runs the translators over a
generated corpus and fits the measured lengths against candidate growth
classes; fits illustrate the bounds, they never assert asymptotics.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .fragments import FZ_LIBRARY, HHA_LIBRARY, fz_fragment, hha_fragment
from .hilbert import (
    GenLine as HGenLine,
    PartLine as HPartLine,
    HilbertProof,
    QUANTIFIER_RULES,
    Template,
    check_hilbert,
    hilbert_length,
    instance,
    split_schema_id,
    zi_axiom_schemata,
)
from .nd import (
    AndE,
    OrE,
    AndI,
    Assume,
    ExistsE,
    ExistsI,
    ForallE,
    Hyp,
    ImpE,
    ImpI,
    OrI,
    Proof,
    TopI,
    check_nd,
    conclusion_of,
    nd_length,
)
from .rewriting import FuelExhausted, RewriteSystem, longest_derivation, normalize
from .syntax import (
    And,
    CLASS,
    App,
    Exists,
    Forall,
    Imp,
    LIST,
    Or,
    Proposition,
    TRUE,
    Term,
    Var,
    alpha_equal,
    apply_substitution,
    arith,
    free_variables,
    size,
)
from .theories import (
    OrderConfig,
    ZERO,
    add_atom,
    add_compatible_axioms,
    add_system,
    build_HHA,
    build_HO,
    build_WS,
    encode_prop,
    eq,
    fz_axioms,
    member,
    mem,
    numeral,
    plus,
    s_,
    var0,
)
from .translate import expand_congruences, hilbert_to_nd, nd_to_hilbert, zi_hilbert_to_fz_modulo


@dataclass
class BenchReport:
    experiment: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"experiment": self.experiment, "rows": self.rows, "summary": self.summary},
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        keys = sorted({k for row in self.rows for k in row})
        lines = [",".join(keys)]
        for row in self.rows:
            lines.append(",".join(str(row.get(k, "")) for k in keys))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Growth fitting


def fit_growth(xs: Sequence[float], ys: Sequence[float]) -> dict:
    """Least-squares fit against {constant, linear, power, exponential}.

    Reported with residuals; a fit illustrates a growth class, it is not a
    proof of asymptotics.
    """
    n = len(xs)
    if n == 0:
        return {"class": "empty", "residual": 0.0}

    def rel_residual(preds):
        return math.sqrt(
            sum(((p - y) / max(abs(y), 1.0)) ** 2 for p, y in zip(preds, ys)) / n
        )

    fits = {}
    mean_y = sum(ys) / n
    fits["constant"] = ({"value": mean_y}, rel_residual([mean_y] * n))

    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    denom = n * sxx - sx * sx
    if denom:
        a = (n * sxy - sx * sy) / denom
        b = (sy - a * sx) / n
        fits["linear"] = ({"slope": a, "intercept": b}, rel_residual([a * x + b for x in xs]))

    if all(x > 0 for x in xs) and all(y > 0 for y in ys):
        lx = [math.log(x) for x in xs]
        ly = [math.log(y) for y in ys]
        sx2, sy2 = sum(lx), sum(ly)
        sxx2 = sum(v * v for v in lx)
        sxy2 = sum(u * v for u, v in zip(lx, ly))
        denom2 = n * sxx2 - sx2 * sx2
        if denom2:
            d = (n * sxy2 - sx2 * sy2) / denom2
            c = (sy2 - d * sx2) / n
            fits["power"] = (
                {"degree": d, "coefficient": math.exp(c)},
                rel_residual([math.exp(c) * x**d for x in xs]),
            )
        sxy3 = sum(x * v for x, v in zip(xs, ly))
        if denom:
            a3 = (n * sxy3 - sx * sy2) / denom
            b3 = (sy2 - a3 * sx) / n
            fits["exponential"] = (
                {"rate": a3, "coefficient": math.exp(b3)},
                rel_residual([math.exp(b3) * math.exp(a3 * x) for x in xs]),
            )

    best = min(fits, key=lambda k: fits[k][1])
    params, residual = fits[best]
    return {
        "class": best,
        "params": params,
        "residual": residual,
        "all": {k: {"params": p, "residual": r} for k, (p, r) in fits.items()},
    }


# ---------------------------------------------------------------------------
# The Add speed-up


def gen_add_modulo_proof(n: int) -> Proof:
    """One top-introduction concluding Add(n, n, 2n) modulo the Add rules."""
    return TopI(add_atom(numeral(n), numeral(n), numeral(2 * n)))


def gen_add_axiomatic_proof(n: int) -> Proof:
    """The axiomatic proof: the base instance plus n fixed unfolding blocks."""
    axioms = add_compatible_axioms().as_dict()
    y, x, z = var0("y"), var0("x"), var0("z")
    nums = [ZERO]  # nums[k] is the numeral k; the blocks share its nodes
    for _ in range(2 * n - 1):
        nums.append(s_(nums[-1]))
    proof: Proof = ForallE(
        add_atom(ZERO, nums[n], nums[n]),
        var=y,
        body=add_atom(ZERO, y, y),
        term=nums[n],
        sub=Assume("add-base-ax", axioms["add-base-ax"]),
    )
    step_body = Forall(
        x,
        Forall(
            y,
            Forall(
                z,
                And(
                    Imp(add_atom(s_(x), y, s_(z)), add_atom(x, y, z)),
                    Imp(add_atom(x, y, z), add_atom(s_(x), y, s_(z))),
                ),
            ),
        ),
    )
    for k in range(1, n + 1):
        a, b, c = nums[k - 1], nums[n], nums[n + k - 1]
        fwd = Imp(add_atom(s_(a), b, s_(c)), add_atom(a, b, c))
        bwd = Imp(add_atom(a, b, c), add_atom(s_(a), b, s_(c)))
        e1 = ForallE(
            Forall(y, Forall(z, And(Imp(add_atom(s_(a), y, s_(z)), add_atom(a, y, z)),
                                     Imp(add_atom(a, y, z), add_atom(s_(a), y, s_(z)))))),
            var=x,
            body=step_body.body,
            term=a,
            sub=Assume("add-step-ax", axioms["add-step-ax"]),
        )
        e2 = ForallE(
            Forall(z, And(Imp(add_atom(s_(a), b, s_(z)), add_atom(a, b, z)),
                          Imp(add_atom(a, b, z), add_atom(s_(a), b, s_(z))))),
            var=y,
            body=conclusion_of(e1).body,
            term=b,
            sub=e1,
        )
        e3 = ForallE(
            And(fwd, bwd),
            var=z,
            body=conclusion_of(e2).body,
            term=c,
            sub=e2,
        )
        back = AndE(bwd, other=fwd, side="right", sub=e3)
        proof = ImpE(add_atom(s_(a), b, s_(c)), minor=proof, major=back)
    return proof


def bench_add(n_max: int) -> BenchReport:
    report = BenchReport("add-speedup")
    contexts = (("modulo", gen_add_modulo_proof, {"system": add_system()}),
                ("axiomatic", gen_add_axiomatic_proof, {"assumptions": add_compatible_axioms().as_dict()}))
    for n in range(1, n_max + 1):
        for system, generate, context in contexts:
            t0 = time.monotonic()
            verdict = check_nd(generate(n), **context)
            wall_time = time.monotonic() - t0
            if not verdict.ok:
                raise RuntimeError(f"{system} proof for {n} failed: {verdict.error}")
            report.rows.append({"n": n, "system": system, "length": verdict.length,
                                "rewrite_steps": verdict.rewrite_steps, "wall_time": wall_time})
    for system, _, _ in contexts:
        rows = [r for r in report.rows if r["system"] == system]
        report.summary[f"{system}_fit"] = fit_growth([r["n"] for r in rows], [r["length"] for r in rows])
    return report


# ---------------------------------------------------------------------------
# Fragment constancy


def _random_template(rng: random.Random, sort_level: int = 0) -> Template:
    hole = Var("hole", arith(sort_level))
    free = var0("m")

    def atom():
        if sort_level == 0:
            return rng.choice(
                [eq(hole, ZERO), eq(s_(hole), free), eq(plus(hole, hole), hole), eq(free, free)]
            )
        return mem(sort_level - 1, ZERO if sort_level == 1 else Var("u", arith(sort_level - 1)), hole)

    def go(depth):
        if depth <= 0:
            return atom()
        pick = rng.randrange(5)
        if pick == 0:
            return And(go(depth - 1), go(depth - 1))
        if pick == 1:
            return Or(go(depth - 1), go(depth - 1))
        if pick == 2:
            return Imp(go(depth - 1), go(depth - 1))
        if pick == 3:
            v = Var(f"q{depth}", arith(0))
            return Forall(v, go(depth - 1))
        return atom()

    return Template((hole,), go(rng.randrange(0, 3)))


def bench_fragments(samples: int = 100, seed: int = 2024) -> BenchReport:
    rng = random.Random(seed)
    report = BenchReport("fragment-constancy")
    cfg = OrderConfig(1)
    libraries = (
        ("fz", FZ_LIBRARY, fz_fragment, {"assumptions": dict(fz_axioms().axioms), "system": build_HO(cfg)}),
        ("hha", HHA_LIBRARY, hha_fragment, {"system": build_HHA(cfg), "mode": "mixed"}),
    )
    for library, names, fragment, context in libraries:
        for name in names:
            lengths = set()
            for _ in range(samples):
                tmpl = _random_template(rng, split_schema_id(name)[1])
                verdict = check_nd(fragment(name, tmpl).proof, **context)
                if not verdict.ok:
                    raise RuntimeError(f"{library}/{name}: {verdict.error}")
                lengths.add(verdict.length)
            report.rows.append(
                {
                    "library": library,
                    "fragment": name,
                    "samples": samples,
                    "min_length": min(lengths),
                    "max_length": max(lengths),
                    "constant": len(lengths) == 1,
                }
            )
    report.summary = {"all_constant": all(r["constant"] for r in report.rows)}
    return report


# ---------------------------------------------------------------------------
# Corpus generation


def random_hilbert_corpus(count: int, seed: int, order: int = 2) -> list[HilbertProof]:
    """Schematic-system proofs over sorts 0..order-1 with all rule kinds."""
    rng = random.Random(seed)
    cat = zi_axiom_schemata(OrderConfig(order))
    out = []
    for _ in range(count):
        out.append(_random_hilbert_proof(rng, cat))
    return out


def _small_prop(rng: random.Random) -> Proposition:
    x = var0("x")
    atoms = [eq(ZERO, ZERO), eq(x, x), eq(s_(ZERO), s_(ZERO)), TRUE]
    p = rng.choice(atoms)
    if rng.random() < 0.4:
        q = rng.choice(atoms)
        p = rng.choice([And(p, q), Or(p, q), Imp(p, q)])
    return p


def _random_hilbert_proof(rng: random.Random, cat) -> HilbertProof:
    from .hilbert import Line, MpLine, SchemaLine

    lines = []

    def add(just, prop):
        lines.append(Line(just, prop))
        return len(lines)

    def schema(inst):
        return add(SchemaLine(inst), cat.instantiate(inst))

    h = var0("h")
    b = var0("b")
    a_var = var0("a")
    moves = rng.randrange(2, 9)
    schema(instance("T"))
    for _ in range(moves):
        kind = rng.randrange(6)
        if kind == 0:
            p, q = _small_prop(rng), _small_prop(rng)
            schema(instance("K", templates=[("A", p), ("B", q)]))
        elif kind == 1 and lines:
            ref = rng.randrange(len(lines)) + 1
            p = lines[ref - 1].prop
            q = _small_prop(rng)
            k = schema(instance("K", templates=[("A", p), ("B", q)]))
            add(MpLine(ref, k), Imp(q, p))
        elif kind == 2:
            tmpl = Template((h,), rng.choice([eq(h, ZERO), eq(h, h), eq(s_(h), s_(h))]))
            schema(instance(rng.choice(["leibniz", "ind"]), templates=[("A", tmpl)]))
        elif kind == 3 and cat.top >= 1:
            tmpl = Template((h,), eq(h, ZERO))
            schema(instance("comp^0", templates=[("A", tmpl)]))
        elif kind == 4:
            # generalization block: T > all a. a = a
            r1 = schema(instance("refl"))
            ui = instance(
                "UI^0",
                templates=[("A", Template((h,), eq(h, h)))],
                terms=[("tau", b)],
            )
            r2 = schema(ui)
            r3 = add(MpLine(r1, r2), eq(b, b))
            r4 = schema(instance("K", templates=[("A", eq(b, b)), ("B", TRUE)]))
            r5 = add(MpLine(r3, r4), Imp(TRUE, eq(b, b)))
            add(
                HGenLine(r5, b),
                Imp(TRUE, Forall(a_var, eq(a_var, a_var))),
            )
        else:
            # particularization block: (ex a. a = a) > T
            r1 = schema(instance("T"))
            r2 = schema(instance("K", templates=[("A", TRUE), ("B", eq(b, b))]))
            r3 = add(MpLine(r1, r2), Imp(eq(b, b), TRUE))
            add(
                HPartLine(r3, b),
                Imp(Exists(a_var, eq(a_var, a_var)), TRUE),
            )
    proof = HilbertProof(tuple(lines))
    verdict = check_hilbert(proof, cat)
    if not verdict.ok:
        raise RuntimeError(f"generated proof does not check: {verdict.error}")
    return proof


def random_shared_hilbert_corpus(count: int, seed: int) -> list[HilbertProof]:
    """Schematic-system proofs whose lines are cited many times over.

    Each move cites lines drawn from all the earlier ones.  A gen or part
    line takes as eigenvariable a variable free in its premise, and that
    premise is cited once more, so the translations meet lemmas that hold a
    dependent eigenvariable free.
    """
    rng = random.Random(seed)
    cat = zi_axiom_schemata(OrderConfig(2))
    return [_random_shared_proof(rng, cat) for _ in range(count)]


def _random_shared_proof(rng: random.Random, cat) -> HilbertProof:
    from .hilbert import Line, MpLine, SchemaLine

    lines: list[Line] = []
    cited: set[int] = set()

    def add(just, prop):
        lines.append(Line(just, prop))
        return len(lines)

    def prop(k: int) -> Proposition:
        return lines[k - 1].prop

    def schema(inst):
        return add(SchemaLine(inst), cat.instantiate(inst))

    def mp(minor: int, major: int) -> int:
        cited.update((minor, major))
        return add(MpLine(minor, major), prop(major).right)

    def weaken(f: int, z: Proposition) -> int:  # z > P_f, from P_f
        return mp(f, schema(instance("K", templates=[("A", prop(f)), ("B", z)])))

    def quantify(k: int, just: type) -> None:
        """gen or part on line k over a variable free on the quantified side only."""
        rule, shape = QUANTIFIER_RULES[just], prop(k)
        if not isinstance(shape, Imp):
            return
        inner, outer = (shape.right, shape.left) if rule.side == "right" else (shape.left, shape.right)
        eigens = sorted(free_variables(inner) - free_variables(outer), key=str)
        if not eigens:
            return
        v, bound = rng.choice(eigens), var0(f"a{len(lines)}")
        q = rule.binder(bound, apply_substitution(inner, {v: bound}))
        cited.add(k)
        line = add(just(k, v), Imp(outer, q) if rule.side == "right" else Imp(q, outer))
        pool.extend((line, weaken(k, TRUE)))  # the premise is cited again: a shared lemma

    h, names = var0("h"), [var0("b"), var0("c"), var0("d")]
    refl = schema(instance("refl"))
    pool = [schema(instance("T"))]
    for _ in range(rng.randrange(6, 16)):
        kind = rng.randrange(5)
        if kind == 0:  # v = v, the fact that gen and part close over
            v = rng.choice(names)
            ui = instance("UI^0", templates=[("A", Template((h,), eq(h, h)))], terms=[("tau", v)])
            pool.append(mp(refl, schema(ui)))
        elif kind == 1:  # P_z > P_f, then sometimes P_f again through it
            f, z = rng.choice(pool), rng.choice(pool)
            w = weaken(f, prop(z))
            pool.append(mp(z, w) if rng.random() < 0.5 else w)
        elif kind == 2:
            quantify(rng.choice(pool), HGenLine)
        elif kind == 3:
            quantify(rng.choice(pool), HPartLine)
        else:  # v = v > P_x: a premise for part
            v = rng.choice(names)
            pool.append(weaken(rng.choice(pool), eq(v, v)))
    tips = [k for k in range(1, len(lines) + 1) if k not in cited]
    last = tips.pop()
    for k in tips:  # P_k > P_last, then P_last again: every uncited line is reached
        last = mp(k, weaken(last, prop(k)))
    proof = HilbertProof(tuple(lines))
    verdict = check_hilbert(proof, cat)
    if not verdict.ok:
        raise RuntimeError(f"generated proof does not check: {verdict.error}")
    return proof


def random_nd_corpus(
    count: int, seed: int, restricted: bool = False
) -> list[tuple[Proof, dict]]:
    """Closed pure proofs with schema-instance assumptions.

    With ``restricted`` the proofs avoid implication introduction, case
    splits and existential elimination, the cases that square the
    translation.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(_random_nd_proof(rng, restricted))
    return out


def _random_nd_proof(rng: random.Random, restricted: bool) -> tuple[Proof, dict]:
    cat = zi_axiom_schemata(OrderConfig(1))
    instances: dict[str, object] = {}
    counter = itertools.count(1)

    def assume(inst):
        name = f"{inst.schema}.{next(counter)}"
        instances[name] = inst
        return Assume(name, cat.instantiate(inst))

    h = var0("h")
    a_var = var0("a")

    def refl_elim(term):
        return ForallE(
            eq(term, term), var=a_var, body=eq(a_var, a_var), term=term, sub=assume(instance("refl"))
        )

    def leibniz_elim(term):
        tmpl = Template((h,), eq(h, h))
        leaf = assume(instance("leibniz", templates=[("A", tmpl)]))
        alpha, beta = var0("a"), var0("b")
        body1 = Forall(beta, Imp(eq(alpha, beta), Imp(eq(alpha, alpha), eq(beta, beta))))
        e1 = ForallE(
            apply_inst(body1, alpha, term),
            var=alpha,
            body=body1,
            term=term,
            sub=leaf,
        )
        body2 = Imp(eq(term, beta), Imp(eq(term, term), eq(beta, beta)))
        e2 = ForallE(
            apply_inst(body2, beta, term), var=beta, body=body2, term=term, sub=e1
        )
        e3 = ImpE(Imp(eq(term, term), eq(term, term)), minor=refl_elim(term), major=e2)
        return ImpE(eq(term, term), minor=refl_elim(term), major=e3)

    def apply_inst(body, var, term):
        from .syntax import apply_substitution

        return apply_substitution(body, {var: term})

    def base(depth) -> Proof:
        pick = rng.randrange(4)
        if pick == 0:
            return TopI(TRUE)
        if pick == 1:
            return refl_elim(numeral(rng.randrange(3)))
        if pick == 2:
            return leibniz_elim(numeral(rng.randrange(2)))
        witness = numeral(rng.randrange(3))
        return ExistsI(
            Exists(a_var, eq(a_var, a_var)),
            var=a_var,
            body=eq(a_var, a_var),
            term=witness,
            sub=refl_elim(witness),
        )

    def grow(p: Proof, depth: int) -> Proof:
        if depth <= 0:
            return p
        choices = ["and", "or", "ande"]
        if not restricted:
            choices += ["impi", "ore", "existse"]
        kind = rng.choice(choices)
        c = conclusion_of(p)
        if kind == "and":
            q = base(0)
            both = AndI(And(c, conclusion_of(q)), p, q)
            return grow(both, depth - 1)
        if kind == "or":
            other = rng.choice([TRUE, eq(ZERO, ZERO)])
            side = rng.choice(["left", "right"])
            concl = Or(c, other) if side == "left" else Or(other, c)
            return grow(OrI(concl, other=other, side=side, sub=p), depth - 1)
        if kind == "ande":
            q = base(0)
            both = AndI(And(c, conclusion_of(q)), p, q)
            return grow(AndE(c, other=conclusion_of(q), side="left", sub=both), depth - 1)
        if kind == "impi":
            hyp = rng.choice([TRUE, eq(ZERO, ZERO)])
            label = f"u{next(counter)}"
            return grow(ImpI(Imp(hyp, c), hyp=hyp, label=label, sub=p), depth - 1)
        if kind == "ore":
            label = f"u{next(counter)}"
            dis = Or(c, c)
            inner = OrE(
                c,
                left=c,
                right=c,
                label_left=f"{label}l",
                label_right=f"{label}r",
                major=Hyp(label, dis),
                sub_left=Hyp(f"{label}l", c),
                sub_right=Hyp(f"{label}r", c),
            )
            wrapped = ImpI(Imp(dis, c), hyp=dis, label=label, sub=inner)
            both = ImpE(c, minor=OrI(dis, other=c, side="left", sub=p), major=wrapped)
            return grow(both, depth - 1)
        if kind == "existse":
            label = f"u{next(counter)}"
            w = var0("w")
            ex = Exists(a_var, eq(a_var, a_var))
            inner = ExistsE(
                TRUE,
                var=a_var,
                body=eq(a_var, a_var),
                eigen=w,
                label=f"{label}w",
                major=Hyp(label, ex),
                sub=TopI(TRUE),
            )
            wrapped = ImpI(Imp(ex, TRUE), hyp=ex, label=label, sub=inner)
            start = ExistsI(ex, var=a_var, body=eq(a_var, a_var), term=ZERO, sub=refl_elim(ZERO))
            side = ImpE(TRUE, minor=start, major=wrapped)
            return grow(AndI(And(c, TRUE), p, side), depth - 1)
        return p

    proof = grow(base(2), rng.randrange(1, 5))
    return proof, instances


# ---------------------------------------------------------------------------
# The paper's length claims

# a seeded family: generate(count(hilbert_count, nd_count), seed + offset), its rows of kind ``kind``
Corpus = NamedTuple("Corpus", [("kind", str), ("generate", Callable), ("count", Callable), ("offset", int)])

# each linear form's bound over C, at input length (or rewrite steps) n and k open hypotheses (or layers)
_UNITS = {"C*n": lambda n, k: n, "C*n*(h+1)": lambda n, k: n * (k + 1),
          "C*steps*(depth+1)": lambda n, k: n * (k + 1), "C*(n+1)": lambda n, k: n + 1}


@dataclass(frozen=True)
class Claim:
    """One length claim: on every input of ``family``, ``translator``'s output,
    counted by ``measure``, is within the bound of ``form`` with C = ``constant``."""

    name: str
    family: Corpus | str  # a seeded corpus, or the family a test drives
    translator: Callable
    measure: str  # the output length counted, as bench_growth's rows name it
    form: str  # a key of _UNITS, or "C^n": log(length) <= log(C) * n
    constant: int

    def ratio(self, length: int, n: int, k: int = 0) -> float:
        """``length`` against the bound's unit; at most ``ceiling`` while the claim holds."""
        return math.log(length) / n if self.form == "C^n" else length / _UNITS[self.form](n, k)

    @property
    def ceiling(self) -> float:
        return math.log(self.constant) if self.form == "C^n" else self.constant

    def within(self, length: int, n: int, k: int = 0) -> bool:
        return self.ratio(length, n, k) <= self.ceiling


_HILBERT = Corpus("hilbert", random_hilbert_corpus, lambda h, nd: h, 0)
_K = 37  # ND to Hilbert: one constant for its three claims

CLAIMS = {claim.name: claim for claim in (
    Claim("hilbert_to_nd", _HILBERT, hilbert_to_nd, "nd_length", "C*n", 6),
    Claim("zi_hilbert_to_fz", _HILBERT, zi_hilbert_to_fz_modulo, "fz_length", "C*n", 8),
    Claim("nd_to_hilbert_restricted",
          Corpus("nd-restricted", partial(random_nd_corpus, restricted=True), lambda h, nd: nd // 2, 1),
          nd_to_hilbert, "hilbert_length", "C*n", _K),
    Claim("nd_to_hilbert_general", Corpus("nd-general", random_nd_corpus, lambda h, nd: nd - nd // 2, 2),
          nd_to_hilbert, "hilbert_length", "C^n", _K),
    Claim("nd_to_hilbert_open_hypotheses", "nested ImpI over AndI chains, and the ND corpora",
          nd_to_hilbert, "hilbert_length", "C*n*(h+1)", _K),
    Claim("expand_add", "gen_add_modulo_proof(n)", expand_congruences, "nd_length", "C*(n+1)", 10),
    Claim("expand_per_layer", "a > b by its hypothesis, a and b add-rule steps apart under depth - 1 layers",
          expand_congruences, "nd_length", "C*steps*(depth+1)", 8),
)}


def seeded_claims() -> list[Claim]:
    """The claims ``bench_growth`` measures, in ``CLAIMS`` order."""
    return [claim for claim in CLAIMS.values() if isinstance(claim.family, Corpus)]


def broken_claims(report: BenchReport) -> list[str]:
    """The seeded claims that some row of a ``bench_growth`` report breaks."""
    return [c.name for c in seeded_claims()
            if not all(c.within(r[c.measure], r["input"]) for r in report.rows if r["kind"] == c.family.kind)]


def bench_growth(hilbert_count: int = 120, nd_count: int = 120, seed: int = 2024) -> BenchReport:
    """The seeded claims on their corpora: a row per input with each claim's
    length, and per claim its largest ratio and a growth fit.  An output that
    fails to check, proves another conclusion or, modulo, assumes more than
    FZ raises, and so does a count below the least ``demod bench-growth``
    accepts: each corpus needs an input, and the ND corpus is split in two."""
    for name, value, least in (("hilbert_count", hilbert_count, 1), ("nd_count", nd_count, 2)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    report = BenchReport("translation-growth")
    cat1, cat2 = zi_axiom_schemata(OrderConfig(1)), zi_axiom_schemata(OrderConfig(2))

    def measure(translator, item) -> tuple[int, int]:  # the input's length and the output's
        if translator is nd_to_hilbert:
            proof, instances = item
            out = nd_to_hilbert(proof, cat1, instances)
            n, v, got, want = nd_length(proof), check_hilbert(out, cat1), out.conclusion(), conclusion_of(proof)
        else:
            out, modulo = translator(item, cat2), translator is zi_hilbert_to_fz_modulo
            system = build_HO(OrderConfig(1)) if modulo else None
            v = check_nd(out.proof, assumptions=out.assumption_dict(), system=system)
            n, got, want = hilbert_length(item), conclusion_of(out.proof), item.conclusion()
            if modulo and not dict(out.assumptions).keys() <= dict(fz_axioms().axioms).keys():
                raise RuntimeError(f"{translator.__name__} assumes more than FZ")
        if not (v.ok and alpha_equal(got, want)):
            raise RuntimeError(f"{translator.__name__} fails: {v.error or f'proves {got}, not {want}'}")
        return n, v.length

    claims = seeded_claims()
    for corpus in dict.fromkeys(c.family for c in claims):
        for item in corpus.generate(corpus.count(hilbert_count, nd_count), seed + corpus.offset):
            row = {"kind": corpus.kind}
            for c in claims:
                if c.family is corpus:
                    row["input"], row[c.measure] = measure(c.translator, item)
            report.rows.append(row)
    report.summary = {"corpus_size": len(report.rows)}
    for c in claims:
        xs, ys = zip(*[(r["input"], r[c.measure]) for r in report.rows if r["kind"] == c.family.kind])
        key = "max_log_ratio" if c.form == "C^n" else "max_ratio"
        report.summary[c.name] = {key: max(map(c.ratio, ys, xs)), "fit": fit_growth(xs, ys)}
    return report


# ---------------------------------------------------------------------------
# Derivational-complexity probes

PROBE_FUNS = (
    ("0", (), arith(0)),
    ("1^0", (), arith(0)),
    ("s", (arith(0),), arith(0)),
    ("S^0", (arith(0),), arith(0)),
    ("+", (arith(0), arith(0)), arith(0)),
    ("sub^0", (arith(0), LIST), arith(0)),
    ("nil", (), LIST),
    ("cons^0", (arith(0), LIST), LIST),
)


def enumerate_probe_terms(max_size: int) -> Iterable[tuple[Term, bool, bool]]:
    """All ground terms of the substitution fragment.

    Yields (term, has substitution node, has nested substitutions).  The
    fragment covers every weak-substitution rule shape at one arithmetic
    sort; higher sorts and the second binary operator behave identically.
    A substitution is nested when another substitution occurs inside the
    term it is applied to; decoding an encoded proposition never produces
    that shape.
    """
    for _, (terms, has, nested), _ in _probe_terms_by_size(max_size):
        yield from zip(terms, map(bool, has), map(bool, nested))


ProbeBucket = tuple[list[Term], bytearray, bytearray]


def _probe_terms_by_size(max_size: int, build_all: bool = True) -> Iterable[tuple[int, ProbeBucket, int]]:
    """The terms of ``enumerate_probe_terms`` in buckets of one size and sort:
    the terms, and for each one byte saying whether it has a substitution
    node and one whether it has nested substitutions, so a bucket holds no
    object per term besides the term.  Each bucket comes with the number of
    its substitution-free terms left out of it: without ``build_all`` the
    largest size's buckets hold only terms with a substitution node."""
    by_key: dict[tuple[str, int], ProbeBucket] = {}
    none: ProbeBucket = ([], bytearray(), bytearray())
    for k in range(1, max_size + 1):
        lean = k == max_size and not build_all
        for sort in ("0", "list"):
            terms, has, nested = bucket = ([], bytearray(), bytearray())
            left_out = 0
            for fn, args, result in PROBE_FUNS:
                if str(result) != sort:
                    continue
                if len(args) == 0:
                    if k == 1 and lean:
                        left_out += 1
                    elif k == 1:
                        terms.append(App(fn, (), result))
                        has.append(0)
                        nested.append(0)
                elif len(args) == 1:
                    sub = by_key.get((str(args[0]), k - 1), none)
                    if lean:
                        left_out += _free_count(sub)
                        sub = _with_substitution(sub)
                    subs, sub_has, sub_nested = sub
                    terms += [App(fn, (t,), result) for t in subs]
                    has += sub_has
                    nested += sub_nested
                else:
                    is_sub = fn == "sub^0"
                    for i in range(1, k - 1):
                        lefts, has1, nested1 = left = by_key.get((str(args[0]), i), none)
                        rights, _, nested2 = right = by_key.get((str(args[1]), k - 1 - i), none)
                        ones = b"\1" * len(rights)
                        # the right sides paired with a substitution-free left side
                        tails, tails_has, tails_nested = right
                        if lean and not is_sub:  # a pair of substitution-free sides is only counted
                            left_out += _free_count(left) * _free_count(right)
                            tails, tails_has, tails_nested = _with_substitution(right)
                        for t1, h1, n1 in zip(lefts, has1, nested1):
                            if h1 or is_sub:
                                terms += [App(fn, (t1, t2), result) for t2 in rights]
                                has += ones
                                nested += ones if n1 or (is_sub and h1) else nested2
                            else:
                                terms += [App(fn, (t1, t2), result) for t2 in tails]
                                has += tails_has
                                nested += tails_nested
            by_key[(sort, k)] = bucket
            yield k, bucket, left_out


def _free_count(bucket: ProbeBucket) -> int:
    """The number of the bucket's terms with no substitution node."""
    return len(bucket[0]) - bucket[1].count(1)


def _with_substitution(bucket: ProbeBucket) -> ProbeBucket:
    """The bucket's terms that have a substitution node, with their flags."""
    terms, has, nested = bucket
    kept = list(itertools.compress(terms, has))
    return kept, bytearray(b"\1" * len(kept)), bytearray(itertools.compress(nested, has))


def probe_ws_exhaustive(max_size: int = 10, include_nested: bool = True) -> BenchReport:
    """Exhaustive longest-derivation search; the linearity check.

    Single substitution applications stay within the term size.  Stacked
    substitutions can exceed it (each stacked layer re-traverses the term),
    while still observing the finer bound: the sum of the sizes of the
    substitution redex parts.
    """
    ws = build_WS(OrderConfig(1))
    heads = ws._by_head
    report = BenchReport("ws-linearity")
    worst_nested = None
    # The loop runs by size, so a term's children, and its smaller reducts,
    # were probed before it and are in ``known``, a term with no
    # substitution node at 0; a term of the largest size is never one of
    # those, so it is not kept, and one with no substitution node is only
    # counted, never built.  The one-step reducts of every subterm the
    # searches meet are shared through ``table``.
    known: dict[Term, int] = {}
    table: dict[Term, tuple[Term, ...]] = {}
    by_size = _probe_terms_by_size(max_size, build_all=False)
    for n, buckets in itertools.groupby(by_size, key=lambda entry: entry[0]):
        keep = n < max_size
        count = max_derivation = flat_violations = nested_over_size = 0
        for _, bucket, left_out in buckets:
            terms, has, nested = bucket
            count += _free_count(bucket) + left_out
            if keep:
                free = itertools.compress(terms, map(operator.not_, has))
                known.update(zip(free, itertools.repeat(0)))
            for term, nest in itertools.compress(zip(terms, nested), has):
                if nest and not include_nested:
                    continue
                count += 1
                if term.fn in heads:
                    longest = longest_derivation(term, ws, known=known, table=table)
                else:  # no rule for the head: the children's derivations do not interact
                    longest = sum([known[arg] for arg in term.args])
                if keep:
                    known[term] = longest
                max_derivation = max(max_derivation, longest)
                if longest > n:
                    if nest:
                        nested_over_size += 1
                        if worst_nested is None or longest - n > worst_nested[2] - worst_nested[1]:
                            worst_nested = (str(term), n, longest)
                        if longest > _stacked_bound(term):
                            flat_violations += 1  # even the finer bound failed
                    else:
                        flat_violations += 1
        report.rows.append(
            {
                "size": n,
                "count": count,
                "max_derivation": max_derivation,
                "flat_violations": flat_violations,
                "nested_over_size": nested_over_size,
            }
        )
    report.summary = {
        "total_terms": sum(r["count"] for r in report.rows),
        "flat_within_size": all(r["flat_violations"] == 0 for r in report.rows),
        "nested_over_size": sum(r["nested_over_size"] for r in report.rows),
        "worst_nested": worst_nested,
        "fit": fit_growth(
            [r["size"] for r in report.rows], [max(r["max_derivation"], 1) for r in report.rows]
        ),
    }
    return report


def _stacked_bound(term: Term) -> int:
    """Sum of the substitution redex part sizes: the per-application bound."""
    from .syntax import positions

    total = 0
    for _, sub in positions(term):
        if isinstance(sub, App) and sub.fn.startswith("sub^"):
            total += size(sub.args[0]) + size(sub.args[1])
    return total


def probe_sampled(system: RewriteSystem, samples: int, seed: int) -> BenchReport:
    """Normalization lengths of random encoded propositions under a system."""
    rng = random.Random(seed)
    report = BenchReport(f"probe-{system.name}")
    sub = system.congruence_system()
    for _ in range(samples):
        tmpl = _random_template(rng)
        enc = encode_prop(tmpl.body, tmpl.params)
        t = member([numeral(rng.randrange(4))], enc.cls)
        n = size(t)
        _, trace = normalize(t, sub)
        report.rows.append({"size": n, "steps": len(trace)})
    report.summary = {
        "fit": fit_growth([r["size"] for r in report.rows], [max(r["steps"], 1) for r in report.rows])
    }
    return report


def probe_hha_nontermination(fuels: Sequence[int] = (10, 100, 1000)) -> BenchReport:
    """The induction redex defeats any finite fuel."""
    hha = build_HHA(OrderConfig(1))
    x, p = var0("x"), Var("p", CLASS)
    atom = member([x], p)
    report = BenchReport("hha-nontermination")
    for fuel in fuels:
        try:
            normalize(atom, hha, fuel=fuel)
            exhausted = False
        except FuelExhausted:
            exhausted = True
        report.rows.append({"fuel": fuel, "fuel_exhausted": exhausted})
    report.summary = {"always_exhausts": all(r["fuel_exhausted"] for r in report.rows)}
    return report
