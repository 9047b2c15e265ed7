"""The four workloads: their inputs, their operations and the checks.

``setup(seed, workdir, tracer)`` builds a workload's fixed input set and
returns one ``Op`` per operation of a round.  An op's ``run`` is the timed
call into the program; its ``check`` looks at the result afterwards, outside
the timed window, and says whether the output is correct and whether the
operation failed.  Every call goes through a module attribute of ``demod``
at call time, so the tracer sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracles

# add-sweep: n stays below 124, where the modulo check gives "proof too deep".
ADD_RANGE = range(1, 41)
# ws-probe: the smallest size at which stacked substitutions exceed the size.
WS_MAX_SIZE = 9
WS_SAMPLE = 200
# translate-corpus: three times criterion 7's corpus sizes per round, so that the
# draw of one seed moves a round's cost less, and the line-reuse proofs.
HILBERT_COUNT = 360
ND_COUNT = 180
REUSE_ROUNDS = (5, 6, 7, 8)
# check-files: axiomatic Add files, the Hilbert corpus, and the templated fragments.
FILE_ADD_NS = (5, 10, 20)
FILE_HILBERT_COUNT = 96
TEMPLATED = ("leibniz", "ind", "comp^0")
# Seeded templates per templated fragment, one per connective: a round checks
# four, so that rounds of every seed stay close in cost.
TEMPLATES = 4
# witness_all's traces fail their own replay on onto-s and on templates with a
# quantifier (see CHANGES.md), so witnessed copies use the default template and
# leave onto-s out.
WITNESS_SKIP = ("onto-s",)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool, str]]  # -> (correct, failed, problem)


def _ok() -> tuple[bool, bool, str]:
    return True, False, ""


def _wrong(problem: str) -> tuple[bool, bool, str]:
    return False, True, problem


# ---------------------------------------------------------------------------
# add-sweep


def _add_statement(proof) -> tuple[Optional[int], ...]:
    from demod import nd

    atom = nd.conclusion_of(proof)
    if getattr(atom, "pred", None) != "Add":
        return (None, None, None)
    return tuple(oracles.numeral_value(t) for t in atom.args)


def _add_op(kind: str, proof, statement: tuple[int, int, int], length: int, **kwargs) -> Op:
    from demod import nd

    def run():
        return nd.check_nd(proof, **kwargs)

    def check(verdict):
        if _add_statement(proof) != statement:
            return _wrong(f"{kind}: generated proof does not conclude Add{statement}")
        if verdict.ok != oracles.add_holds(*statement):
            return _wrong(f"{kind} Add{statement}: verdict {verdict.ok} ({verdict.error})")
        if verdict.length != length:
            return _wrong(f"{kind} Add{statement}: length {verdict.length}, expected {length}")
        return _ok()

    return Op(kind, run, check)


def setup_add_sweep(seed: int, workdir: str, tracer) -> list[Op]:
    from demod import bench, nd, theories

    rng = random.Random(seed)
    add = theories.add_system()
    axioms = theories.add_compatible_axioms().as_dict()
    ops = []
    for n in ADD_RANGE:
        ops.append(_add_op("modulo", bench.gen_add_modulo_proof(n), (n, n, 2 * n), 1, system=add))
        c = 2 * n + rng.randrange(1, 4)
        forged = nd.TopI(theories.add_atom(theories.numeral(n), theories.numeral(n),
                                           theories.numeral(c)))
        ops.append(_add_op("forged", forged, (n, n, c), 1, system=add))
        ops.append(_add_op("axiomatic", bench.gen_add_axiomatic_proof(n), (n, n, 2 * n),
                           oracles.add_axiomatic_length(n), assumptions=axioms))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# ws-probe


def setup_ws_probe(seed: int, workdir: str, tracer) -> list[Op]:
    from demod import bench

    def run():
        return bench.probe_ws_exhaustive(WS_MAX_SIZE)

    def check(report):
        counts = {row["size"]: row["count"] for row in report.rows}
        want = {k: oracles.term_count(k) for k in range(1, WS_MAX_SIZE + 1)}
        if counts != want:
            return _wrong(f"term counts {counts}, recurrence gives {want}")
        if not report.summary["flat_within_size"]:
            return _wrong("a single substitution application exceeded the term size")
        if report.rows[-1]["nested_over_size"] == 0:
            return _wrong(f"no stacked substitution exceeds the size at size {WS_MAX_SIZE}")
        return _ok()

    return [Op("probe", run, check)]


def ws_sample_problems(seed: int) -> list[str]:
    """Longest derivations against normalization on a seeded sample of terms."""
    from demod import rewriting, theories

    ws = theories.build_WS(theories.OrderConfig(1))
    rng = random.Random(seed)
    problems = []
    for _ in range(WS_SAMPLE):
        term = oracles.random_probe_term(rng, WS_MAX_SIZE)
        longest = rewriting.longest_derivation(term, ws)
        normal, trace = rewriting.normalize(term, ws)
        if longest < len(trace.steps):
            problems.append(f"{term}: longest derivation {longest} < normalize {len(trace.steps)}")
        if rewriting.rewrite_redexes(normal, ws):
            problems.append(f"{term}: normal form {normal} has a redex")
    return problems


# ---------------------------------------------------------------------------
# translate-corpus


def _translation_op(kind: str, run: Callable, conclusion_of_output: Callable, source_conclusion,
                    source_length: int, within: Callable[[int], bool], reuse: bool, tracer,
                    extra: Callable = lambda out: "") -> Op:
    """One translation plus the check of its output.

    The op fails when the output does not check, its conclusion differs from
    the input's, or its length breaks criterion 7's bound.  Only a bound
    broken by a line-reuse proof is a known fault; anything else is wrong.
    """
    from demod import syntax

    def check(result):
        out, verdict = result
        if not verdict.ok:
            return _wrong(f"{kind}: output does not check: {verdict.error}")
        if not syntax.alpha_equal(conclusion_of_output(out), source_conclusion):
            return _wrong(f"{kind}: conclusion differs from the input's")
        problem = extra(out)
        if problem:
            return _wrong(f"{kind}: {problem}")
        if tracer is not None:
            tracer.count("translate.out_nodes", verdict.length)
            tracer.peak("translate.max_ratio", verdict.length / source_length)
        if within(verdict.length):
            return _ok()
        if reuse:
            return True, True, ""
        return _wrong(f"{kind}: length {verdict.length} from {source_length} breaks the bound")

    return Op(kind, run, check)


def setup_translate_corpus(seed: int, workdir: str, tracer) -> list[Op]:
    from demod import bench, hilbert, nd, theories, translate

    cat2 = hilbert.zi_axiom_schemata(theories.OrderConfig(2))
    cat1 = hilbert.zi_axiom_schemata(theories.OrderConfig(1))
    ho = theories.build_HO(theories.OrderConfig(1))
    fz = set(dict(theories.fz_axioms().axioms))

    def nd_output(out):
        return nd.conclusion_of(out.proof)

    def fz_only(out):
        extra = set(dict(out.assumptions)) - fz
        return f"assumptions outside FZ: {sorted(extra)}" if extra else ""

    def to_nd(proof):
        out = translate.hilbert_to_nd(proof, cat2)
        return out, nd.check_nd(out.proof, assumptions=out.assumption_dict())

    def to_fz(proof):
        out = translate.zi_hilbert_to_fz_modulo(proof, cat2)
        return out, nd.check_nd(out.proof, assumptions=out.assumption_dict(), system=ho)

    def to_hilbert(proof, instances):
        out = translate.nd_to_hilbert(proof, cat1, instances)
        return out, hilbert.check_hilbert(out, cat1)

    ops = []
    hilberts = [(p, False) for p in bench.random_hilbert_corpus(HILBERT_COUNT, seed)]
    hilberts += [(oracles.reuse_proof(r), True) for r in REUSE_ROUNDS]
    for proof, reuse in hilberts:
        n = len(proof.lines)
        share = "/reuse" if reuse else ""
        ops.append(_translation_op(
            "hilbert_to_nd" + share, lambda proof=proof: to_nd(proof), nd_output,
            proof.conclusion(), n, lambda m, n=n: m <= oracles.C_HILBERT_TO_ND * n, reuse, tracer))
        ops.append(_translation_op(
            "fz_modulo" + share, lambda proof=proof: to_fz(proof), nd_output, proof.conclusion(),
            n, lambda m, n=n: m <= oracles.C_ZI_TO_FZ * n, reuse, tracer, fz_only))

    for restricted, offset in ((True, 1), (False, 2)):
        for proof, instances in bench.random_nd_corpus(ND_COUNT, seed + offset, restricted):
            n = nd.nd_length(proof)
            if restricted:
                kind = "nd_to_hilbert_restricted"
                within = lambda m, n=n: m <= oracles.K_ABSTRACTION * n  # noqa: E731
            else:
                kind = "nd_to_hilbert_general"
                within = lambda m, n=n: math.log(m) <= math.log(oracles.K_ABSTRACTION) * n  # noqa: E731
            ops.append(_translation_op(
                kind, lambda proof=proof, instances=instances: to_hilbert(proof, instances),
                lambda out: out.conclusion(), nd.conclusion_of(proof), n, within, False, tracer))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# check-files


def random_template(rng: random.Random, connective: int):
    """A seeded template A(hole) over sort 0: one connective over seeded atoms.

    ``connective`` 0..3 is ∧, ∨, → or ∀.  Deeper templates cost up to ten
    times more to check than shallow ones, so the connective is fixed and
    only the atoms are drawn.
    """
    from demod.hilbert import Template
    from demod.syntax import And, Forall, Imp, Or, Var, arith
    from demod.theories import ZERO, eq, plus, s_, var0

    hole, free = Var("hole", arith(0)), var0("m")

    def atom():
        return rng.choice([eq(hole, ZERO), eq(s_(hole), free), eq(plus(hole, hole), hole),
                           eq(free, free)])

    if connective == 3:
        return Template((hole,), Forall(Var("q1", arith(0)), atom()))
    return Template((hole,), (And, Or, Imp)[connective](atom(), atom()))


def _cli_op(kind: str, argv: list[str], code: int, ok: bool, length: int) -> Op:
    from demod import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.main(argv)
        return got, out.getvalue(), err.getvalue()

    def check(result):
        got, out, err = result
        if got != code:
            return _wrong(f"{kind} {argv[1]}: exit {got}, expected {code}: {err.strip()[-200:]}")
        try:
            payload = json.loads(out)
        except ValueError:
            return _wrong(f"{kind} {argv[1]}: output is not JSON")
        if payload.get("ok") != ok or payload.get("length") != length:
            return _wrong(f"{kind} {argv[1]}: ok={payload.get('ok')} length="
                          f"{payload.get('length')}, expected ok={ok} length={length}")
        return _ok()

    return Op(kind, run, check)


def setup_check_files(seed: int, workdir: str, tracer) -> list[Op]:
    from demod import bench, fileformat as ff, fragments, nd, theories

    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name: str, sx) -> str:
        path = os.path.join(workdir, name.replace("^", "_"))
        with open(path, "w") as fh:
            fh.write(ff.dumps(sx))
        return path

    add_axioms = write("add-axioms.sexp", ff.presentation_to_sx(theories.add_compatible_axioms()))
    fz_axioms = write("fz-axioms.sexp", ff.presentation_to_sx(theories.fz_axioms()))
    ops = []
    for n in FILE_ADD_NS:
        path = write(f"add-{n}.sexp", ff.nd_proof_document(bench.gen_add_axiomatic_proof(n)))
        ops.append(_cli_op("add-axiomatic", ["check-nd", path, "--system", "add", "--axioms",
                                             add_axioms], 0, True, oracles.add_axiomatic_length(n)))
    n, c = 10, 20 + rng.randrange(1, 4)
    forged = nd.TopI(theories.add_atom(theories.numeral(n), theories.numeral(n),
                                       theories.numeral(c)))
    path = write("add-forged.sexp", ff.nd_proof_document(forged))
    ops.append(_cli_op("add-forged", ["check-nd", path, "--system", "add"], 1, False, 1))

    for name, length in oracles.FZ_LENGTHS.items():
        for k in range(TEMPLATES):
            frag = fragments.fz_fragment(name, random_template(rng, k))
            path = write(f"fz-{name}-{k}.sexp", ff.nd_proof_document(frag.proof))
            ops.append(_cli_op("fz", ["check-nd", path, "--system", "ho", "--axioms",
                                      fz_axioms], 0, True, length))

    hha = theories.build_HHA(theories.OrderConfig(1))
    for name, length in oracles.HHA_LENGTHS.items():
        for k in range(TEMPLATES if name in TEMPLATED else 1):
            template = random_template(rng, k) if name in TEMPLATED else None
            frag = fragments.hha_fragment(name, template)
            path = write(f"hha-{name}-{k}.sexp", ff.nd_proof_document(frag.proof))
            ops.append(_cli_op("hha-mixed", ["check-nd", path, "--system", "hha", "--mode",
                                             "mixed"], 0, True, length))
        if name == "refl":
            ops.append(_cli_op("hha-plain-witnessed", ["check-nd", path, "--system", "hha",
                                                       "--mode", "witnessed"], 1, False, length))
        if name in WITNESS_SKIP:
            continue
        witnessed = nd.witness_all(fragments.hha_fragment(name).proof, hha)
        path = write(f"hha-{name}-witnessed.sexp", ff.nd_proof_document(witnessed))
        ops.append(_cli_op("hha-witnessed", ["check-nd", path, "--system", "hha", "--mode",
                                             "witnessed"], 0, True, length))

    for k, proof in enumerate(bench.random_hilbert_corpus(FILE_HILBERT_COUNT, seed)):
        path = write(f"hilbert-{k}.sexp", ff.hilbert_to_sx(proof))
        ops.append(_cli_op("hilbert", ["check-hilbert", path, "--order", "2"], 0, True,
                           len(proof.lines)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "add-sweep": setup_add_sweep,
    "ws-probe": setup_ws_probe,
    "translate-corpus": setup_translate_corpus,
    "check-files": setup_check_files,
}
