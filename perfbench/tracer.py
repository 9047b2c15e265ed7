"""Per-layer tracing by wrapping the program's functions at run time.

Every module of ``demod`` that holds one of the traced functions, under its
own name or under a name it imported from another module (``nd.normalize``,
``rewriting.positions``, ``cli.check_nd``), gets the same wrapper, so calls
between layers are seen as well as calls from the benchmark.  Nothing under
``src/`` changes.

Each wrapped call pushes a frame.  When it returns, its duration goes to its
metric (outermost calls only, so recursion is not counted twice), its self
time (duration minus the wrapped calls it made) and its call count.  Coarse
functions also record a span ``(name, start, end, id, parent)``; spans stay
in memory and are written out when the run ends.  Fine-grained functions
(matching, substitution, positions) are only counted and timed, because a
span per call would take more memory than the program.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

SPAN_LIMIT = 200_000

# (module, attribute, metric, keep spans).  Methods are given as "Class.method".
TRACED = (
    ("sexpr", "parse", "sexpr.parse", True),
    ("fileformat", "dumps", "sexpr.show", True),
    ("fileformat", "nd_proof_from_document", "fileformat.decode", True),
    ("fileformat", "hilbert_from_sx", "fileformat.decode", True),
    ("fileformat", "presentation_from_sx", "fileformat.decode", True),
    ("fileformat", "signature_from_sx", "fileformat.decode", True),
    ("fileformat", "system_from_sx", "fileformat.decode", True),
    ("cli", "main", "cli.main", True),
    ("theories", "add_system", "theories.build", True),
    ("theories", "add_signature", "theories.build", True),
    ("theories", "add_compatible_axioms", "theories.build", True),
    ("theories", "build_WS", "theories.build", True),
    ("theories", "build_HO", "theories.build", True),
    ("theories", "build_HHA", "theories.build", True),
    ("theories", "classes_signature", "theories.build", True),
    ("theories", "hha_signature", "theories.build", True),
    ("theories", "fz_axioms", "theories.build", True),
    ("hilbert", "zi_axiom_schemata", "theories.build", True),
    ("bench", "gen_add_modulo_proof", "bench.generate", True),
    ("bench", "gen_add_axiomatic_proof", "bench.generate", True),
    ("bench", "random_hilbert_corpus", "bench.generate", True),
    ("bench", "random_nd_corpus", "bench.generate", True),
    ("fragments", "fz_fragment", "fragments.build", True),
    ("fragments", "hha_fragment", "fragments.build", True),
    ("syntax", "apply_substitution", "syntax.subst", False),
    ("syntax", "alpha_equal", "syntax.alpha", False),
    ("syntax", "free_variables", "syntax.fv", False),
    ("syntax", "replace_at", "syntax.replace_at", False),
    ("rewriting", "normalize", "rewriting.normalize", True),
    ("rewriting", "match", "rewriting.match", False),
    ("rewriting", "apply_redex", "rewriting.apply_redex", False),
    ("rewriting", "longest_derivation", "rewriting.longest_derivation", True),
    ("rewriting", "verify_trace", "rewriting.verify_trace", True),
    ("nd", "check_nd", "nd.check", True),
    ("nd", "_Ctx.congruent", "nd.obligation", False),
    ("hilbert", "check_hilbert", "hilbert.check", True),
    ("hilbert", "Catalogue.instantiate", "hilbert.instantiate", False),
    ("translate", "hilbert_to_nd", "translate.hilbert_to_nd", True),
    ("translate", "zi_hilbert_to_fz_modulo", "translate.fz_modulo", True),
    ("translate", "nd_to_hilbert", "translate.nd_to_hilbert", True),
    # a span only: the root of each ws-probe operation in the spans file
    ("bench", "probe_ws_exhaustive", "bench.probe", True),
)

# Generators: wrapping them times nothing useful, so only yields are counted.
COUNTED_GENERATORS = (("syntax", "positions", "syntax.positions"),)


@dataclass
class _Frame:
    span_id: int
    child: float = 0.0


@dataclass
class Tracer:
    """Wraps the program's functions and accumulates per-layer figures."""

    incl: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    spans_dropped: int = 0
    _depth: dict[str, int] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 1
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)
    _paused: bool = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def active(self, metric: str) -> bool:
        return self._depth.get(metric, 0) > 0

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for mod_name in {entry[0] for entry in TRACED + COUNTED_GENERATORS}:
            importlib.import_module(f"demod.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if (name == "demod" or name.startswith("demod.")) and m]
        for mod_name, attr, metric, keep in TRACED:
            owner = sys.modules[f"demod.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._wrap(getattr(cls, meth), metric, keep))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, keep)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)
        for mod_name, attr, metric in COUNTED_GENERATORS:
            original = getattr(sys.modules[f"demod.{mod_name}"], attr)
            wrapper = self._wrap_generator(original, metric)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _replace(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn: Callable, metric: str, keep: bool) -> Callable:
        after = _AFTER.get(metric)
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent.span_id if parent else 0
            frame = _Frame(span_id)
            stack.append(frame)
            depth[metric] = depth.get(metric, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child += elapsed
                depth[metric] -= 1
                if depth[metric] == 0:
                    self.incl[metric] = self.incl.get(metric, 0.0) + elapsed
                self.self_time[metric] = self.self_time.get(metric, 0.0) + elapsed - frame.child
                self.calls[metric] = self.calls.get(metric, 0) + 1
                if keep:
                    if len(self.spans) < SPAN_LIMIT:
                        self.spans.append(
                            (metric, start, end, span_id, parent.span_id if parent else 0)
                        )
                    else:
                        self.spans_dropped += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn: Callable, metric: str) -> Callable:
        def wrapper(*args, **kwargs):
            if self._paused:
                yield from fn(*args, **kwargs)
                return
            in_normalize = self.active("rewriting.normalize")
            for item in fn(*args, **kwargs):
                self.count(metric)
                if in_normalize:
                    self.count("syntax.positions_in_normalize")
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flat totals: inclusive, self and call figures plus the counters."""
        out: dict[str, float] = {}
        for metric, value in self.incl.items():
            out[f"{metric}.incl"] = value
        for metric, value in self.self_time.items():
            out[f"{metric}.self"] = value
        for metric, value in self.calls.items():
            out[f"{metric}.calls"] = value
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, span_id, parent in self.spans:
                fh.write(json.dumps([name, start, end, span_id, parent]) + "\n")


def _after_normalize(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("rewriting.steps", len(result[1].steps))
    if tracer.active("nd.check"):
        tracer.count("nd.normalize_calls")


def _after_match(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("rewriting.match_hits")


def _after_verify_trace(tracer: Tracer, args, kwargs, result) -> None:
    trace = args[2] if len(args) > 2 else kwargs["trace"]
    tracer.count("rewriting.replayed_steps", len(trace.steps))


_AFTER: dict[str, Optional[Callable]] = {
    "rewriting.normalize": _after_normalize,
    "rewriting.match": _after_match,
    "rewriting.verify_trace": _after_verify_trace,
}


def layer_metrics(setup: dict[str, float], timed: dict[str, float], rounds: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per set-up plus one round.

    ``setup`` and ``timed`` are snapshots taken over the set-up and over the
    timed rounds; the timed part is divided by the number of rounds so the
    figures do not depend on how many rounds fit into the run.
    """

    def get(key: str) -> float:
        return setup.get(key, 0.0) + timed.get(key, 0.0) / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "sexpr.parse_s": get("sexpr.parse.incl"),
        "sexpr.show_s": get("sexpr.show.incl"),
        "fileformat.decode_s": get("fileformat.decode.incl"),
        "cli.main_self_s": get("cli.main.self"),
        "theories.build_s": get("theories.build.incl"),
        "theories.build_calls": get("theories.build.calls"),
        "bench.generate_s": get("bench.generate.incl"),
        "fragments.build_s": get("fragments.build.incl"),
        "syntax.subst_s": get("syntax.subst.incl"),
        "syntax.subst_calls": get("syntax.subst.calls"),
        "syntax.alpha_s": get("syntax.alpha.incl"),
        "syntax.alpha_calls": get("syntax.alpha.calls"),
        "syntax.fv_s": get("syntax.fv.incl"),
        "syntax.fv_calls": get("syntax.fv.calls"),
        "syntax.replace_at_calls": get("syntax.replace_at.calls"),
        "syntax.positions_yielded": get("syntax.positions"),
        "rewriting.normalize_s": get("rewriting.normalize.incl"),
        "rewriting.normalize_calls": get("rewriting.normalize.calls"),
        "rewriting.steps": get("rewriting.steps"),
        "rewriting.positions_per_step": ratio(
            get("syntax.positions_in_normalize"), get("rewriting.steps")
        ),
        "rewriting.match_s": get("rewriting.match.incl"),
        "rewriting.match_calls": get("rewriting.match.calls"),
        "rewriting.match_hit_ratio": ratio(
            get("rewriting.match_hits"), get("rewriting.match.calls")
        ),
        "rewriting.apply_redex_calls": get("rewriting.apply_redex.calls"),
        "rewriting.longest_derivation_s": get("rewriting.longest_derivation.incl"),
        "rewriting.verify_trace_s": get("rewriting.verify_trace.incl"),
        "rewriting.replayed_steps": get("rewriting.replayed_steps"),
        "nd.check_self_s": get("nd.check.self"),
        "nd.obligations": get("nd.obligation.calls"),
        "nd.normalize_per_obligation": ratio(
            get("nd.normalize_calls"), get("nd.obligation.calls")
        ),
        "hilbert.check_s": get("hilbert.check.incl"),
        "hilbert.instantiate_s": get("hilbert.instantiate.incl"),
        "translate.hilbert_to_nd_s": get("translate.hilbert_to_nd.incl"),
        "translate.fz_modulo_s": get("translate.fz_modulo.incl"),
        "translate.nd_to_hilbert_s": get("translate.nd_to_hilbert.incl"),
        "translate.out_nodes": get("translate.out_nodes"),
        "translate.max_ratio": max(setup.get("translate.max_ratio", 0.0),
                                   timed.get("translate.max_ratio", 0.0)),
    }
