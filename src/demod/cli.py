"""Command-line front end.

Exit codes: 0 on success, 1 when a proof fails to check or an experiment
detects a violation, 2 for usage, parse or sort errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import Callable, Optional

from . import bench, fileformat as ff
from .hilbert import SchemaError, check_hilbert, zi_axiom_schemata
from .nd import check_nd, nd_length
from .rewriting import (
    EMPTY_SYSTEM,
    FuelExhausted,
    _normal_forms,
    check_left_linear,
    critical_pairs,
    normalize,
)
from .sexpr import SexprError
from .syntax import SortError
from .theories import (
    OrderConfig,
    add_signature,
    add_system,
    build_HHA,
    build_HO,
    build_WS,
    classes_signature,
    fz_axioms,
    hha_signature,
)
from .translate import (
    TranslationError,
    hilbert_to_nd,
    nd_to_hilbert,
    zi_hilbert_to_fz_modulo,
    zi_nd_to_hha,
)

# each builtin system id to its system and signature at an order
_BUILTINS: dict[str, Callable[[OrderConfig], tuple]] = {
    "empty": lambda cfg: (EMPTY_SYSTEM, classes_signature(cfg.i, True)),
    "add": lambda cfg: (add_system(), add_signature()),
    "ho": lambda cfg: (build_HO(cfg), classes_signature(cfg.i)),
    "ws": lambda cfg: (build_WS(cfg), classes_signature(cfg.i)),
    "hha": lambda cfg: (build_HHA(cfg), hha_signature(cfg)),
    "hha-noind": lambda cfg: (build_HHA(cfg).auto_fallback, hha_signature(cfg)),
}
BUILTIN_SYSTEMS = tuple(_BUILTINS)


def _resolve_system(name: Optional[str], order: int):
    """A builtin system id or a rules file; returns (system, signature)."""
    builtin = _BUILTINS.get("empty" if name is None else name)
    if builtin is not None:
        return builtin(OrderConfig(order))
    path = Path(name)
    if not path.exists():  # neither a builtin nor a file: a usage error, like a missing file
        raise FileNotFoundError(f"unknown system {name!r} (builtins: {', '.join(BUILTIN_SYSTEMS)})")
    sig_path = Path(str(path) + ".sig")
    if not sig_path.exists():
        raise SexprError(f"rules file {name} needs a signature file {sig_path}")
    sig = ff.signature_from_sx(ff.loads(sig_path.read_text()))
    system = ff.system_from_sx(ff.loads(path.read_text()), sig)
    return system, sig


def _read(path: Optional[str], decode, sig):
    """The document in ``path`` read by ``decode``, or None without a path."""
    return None if path is None else decode(ff.loads(Path(path).read_text()), sig)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if getattr(args, "json", None):
        Path(args.json).write_text(text + "\n")
    else:
        print(text)


def cmd_check_nd(args) -> int:
    system, sig = _resolve_system(args.system, args.order)
    doc = ff.loads(Path(args.proof).read_text())
    proof = ff.nd_proof_from_document(doc, sig)
    axioms = _read(args.axioms, ff.presentation_from_sx, sig)
    if axioms is None and args.system is None:
        axioms = fz_axioms()
    assumptions = {} if axioms is None else axioms.as_dict()
    verdict = check_nd(proof, assumptions=assumptions, system=system, mode=args.mode, fuel=args.fuel)
    _emit(args, {
        "ok": verdict.ok,
        "length": verdict.length,
        "rewrite_steps": verdict.rewrite_steps,
        "error": verdict.error,
    })
    if not verdict.ok:
        print(f"{args.proof}: {verdict.error}", file=sys.stderr)
    return 0 if verdict.ok else 1


def cmd_check_hilbert(args) -> int:
    sig = classes_signature(args.order, True)
    proof = ff.hilbert_from_sx(ff.loads(Path(args.proof).read_text()), sig)
    cat = zi_axiom_schemata(OrderConfig(args.order), classical=not args.intuitionistic)
    verdict = check_hilbert(proof, cat)
    _emit(args, {"ok": verdict.ok, "length": verdict.length, "error": verdict.error})
    if not verdict.ok:
        print(f"{args.proof}: {verdict.error}", file=sys.stderr)
    return 0 if verdict.ok else 1


def cmd_normalize(args) -> int:
    system, sig = _resolve_system(args.system, args.order)
    try:
        text = Path(args.input).read_text()
    except OSError:  # no such file, or a name too long for one: the argument is the input
        text = args.input
    obj = ff.term_or_prop_from_sx(ff.loads(text), sig)
    try:
        nf, trace = normalize(obj, system, fuel=args.fuel)
    except FuelExhausted as exc:
        _emit(args, {"ok": False, "error": str(exc), "steps": exc.steps_taken})
        return 1
    _emit(args, {"ok": True, "normal_form": ff.dumps(ff.term_to_sx(nf)).strip(), "steps": len(trace)})
    return 0


def cmd_confluence(args) -> int:
    system, _ = _resolve_system(args.system, args.order)
    if args.fuel is None and not system.terminating:
        # the default fuel grows with the square of each pair's size, so an
        # unbounded normalization may run out of memory before it runs out of fuel
        print(f"error: system {system.name} is not declared terminating; give --fuel to bound "
              "each normalization", file=sys.stderr)
        return 2
    pairs = critical_pairs(system)
    rows = []
    all_joined = True
    for pair in pairs:
        try:
            joined, (_, n_l), (_, n_r) = _normal_forms(pair.left, pair.right, system, args.fuel)
            steps = n_l + n_r
        except FuelExhausted:
            joined, steps = False, None
        all_joined &= joined
        rows.append({
            "rules": list(pair.rules),
            "peak": str(pair.peak),
            "position": list(pair.position),
            "joinable": joined,
            "steps": steps,
        })
    _emit(args, {
        "system": system.name,
        "left_linear": check_left_linear(system),
        "critical_pairs": rows,
        "all_joinable": all_joined,
    })
    return 0 if all_joined else 1


def cmd_probe(args) -> int:
    for flag, value in (("--max-size", args.max_size), ("--samples", args.samples)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 2
    if args.system == "ws" and args.exhaustive:
        report = bench.probe_ws_exhaustive(args.max_size)
        ok = report.summary["flat_within_size"]
    elif args.system == "hha":
        report = bench.probe_hha_nontermination()
        ok = report.summary["always_exhausts"]
    else:
        system, _ = _resolve_system(args.system, args.order)
        report = bench.probe_sampled(system, args.samples, args.seed)
        ok = True
    _emit(args, json.loads(report.to_json()))
    return 0 if ok else 1


def cmd_translate(args) -> int:
    order = args.order
    sig = hha_signature(OrderConfig(order))
    if args.direction in ("hilbert-nd", "hilbert-fz"):
        cat = zi_axiom_schemata(OrderConfig(order + 1))
        proof = ff.hilbert_from_sx(ff.loads(Path(args.proof).read_text()), sig)
        if args.direction == "hilbert-nd":
            out = hilbert_to_nd(proof, cat)
        else:
            out = zi_hilbert_to_fz_modulo(proof, cat)
        doc = ff.nd_proof_document(out.proof)
        report = {
            "input_length": len(proof.lines),
            "output_length": nd_length(out.proof),
            "assumptions": [name for name, _ in out.assumptions],
        }
    else:
        proof = ff.nd_proof_from_document(ff.loads(Path(args.proof).read_text()), sig)
        instances = _read(args.instances, ff.instances_from_sx, sig) or {}
        if args.direction == "nd-hilbert":
            out_h = nd_to_hilbert(proof, zi_axiom_schemata(OrderConfig(order)), instances)
            doc = ff.hilbert_to_sx(out_h)
            report = {"input_length": nd_length(proof), "output_length": len(out_h.lines)}
        else:
            out_p = zi_nd_to_hha(proof, instances)
            doc = ff.nd_proof_document(out_p)
            report = {"input_length": nd_length(proof), "output_length": nd_length(out_p)}
    text = ff.dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    print(json.dumps(report), file=sys.stderr)
    return 0


def cmd_bench_add(args) -> int:
    report = bench.bench_add(args.n)
    _emit(args, json.loads(report.to_json()))
    modulo = [r["length"] for r in report.rows if r["system"] == "modulo"]
    return 0 if all(l == 1 for l in modulo) else 1


def cmd_bench_fragments(args) -> int:
    report = bench.bench_fragments(args.samples, args.seed)
    _emit(args, json.loads(report.to_json()))
    return 0 if report.summary["all_constant"] else 1


def cmd_bench_growth(args) -> int:
    report = bench.bench_growth(args.count, args.count, args.seed)
    _emit(args, json.loads(report.to_json()))
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="demod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True, order="order parameter i"):
        p.add_argument("--order", type=int, default=1, help=order)
        p.add_argument("--fuel", type=int, default=None)
        p.add_argument("--json", metavar="OUT", default=None, help="write the report to a file")
        if system:
            p.add_argument("--system", default=None, help="builtin system id or rules file")

    p = sub.add_parser("check-nd", help="check a natural-deduction-modulo proof")
    p.add_argument("proof")
    p.add_argument("--axioms", default=None, help="axioms file for named assumptions")
    p.add_argument("--mode", choices=("auto", "witnessed", "mixed"), default="mixed")
    common(p)
    p.set_defaults(func=cmd_check_nd)

    p = sub.add_parser("check-hilbert", help="check a schematic-system proof")
    p.add_argument("proof")
    p.add_argument("--intuitionistic", action="store_true")
    common(p, system=False)
    p.set_defaults(func=cmd_check_hilbert)

    p = sub.add_parser("normalize", help="rewrite a term or proposition to normal form")
    p.add_argument("input", help="an s-expression or a file containing one")
    common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("confluence", help="critical pairs and joinability")
    common(p)
    p.set_defaults(func=cmd_confluence)

    p = sub.add_parser("probe", help="derivational-length probes")
    p.add_argument("--max-size", type=int, default=10,
                   help="largest term size to enumerate; read only with --exhaustive")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--exhaustive", action="store_true")
    common(p, order="order parameter i; selects the system only, not the sample")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("translate", help="run a proof translation")
    p.add_argument("direction", choices=("hilbert-nd", "hilbert-fz", "nd-hilbert", "nd-hha"))
    p.add_argument("proof")
    p.add_argument("--instances", default=None, help="schema instances for nd inputs")
    p.add_argument("--out", default=None)
    common(p, system=False)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("bench-add", help="the addition speed-up experiment")
    p.add_argument("n", type=int, nargs="?", default=16)
    common(p, system=False)
    p.set_defaults(func=cmd_bench_add)

    p = sub.add_parser("bench-fragments", help="fragment length constancy")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=2024)
    common(p, system=False)
    p.set_defaults(func=cmd_bench_fragments)

    p = sub.add_parser("bench-growth", help="translation growth on a random corpus")
    p.add_argument("--count", type=int, default=120)
    p.add_argument("--seed", type=int, default=2024)
    common(p, system=False)
    p.set_defaults(func=cmd_bench_growth)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.order < 1:
        parser.error("argument --order: order parameter must be at least 1")
    if args.fuel is not None and args.fuel < 1:
        print(f"error: --fuel must be at least 1, got {args.fuel}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SexprError, ff.FormatError, SortError, SchemaError, TranslationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
