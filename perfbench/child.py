"""One workload in a fresh interpreter: set up, signal, run rounds, report.

Started by ``run.py``.  It prints ``READY`` once set-up is done, so the
parent can time set-up from before the interpreter started, with the
yardstick chunks that ran during set-up.  Then it runs a batch of chunks,
the "after" side of the set-up's speed reading.  It runs whole rounds of
the workload's operations, one at a time, until ``--seconds`` have passed,
with yardstick chunks running beside them.  Last it prints one JSON line
with every operation's time, as measured and at the reference speed, and
the checks' outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None, help="where to write the spans of a traced run")
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    import tracer as tracing
    import workloads

    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    tracer = None
    try:
        with yardstick.Sampler(periodic=not args.trace) as sampler:
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
            ops = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        print("READY " + json.dumps({"spent": sampler.spent, "chunks": sampler.chunks}),
              flush=True)
        after_setup = yardstick.batch()
        setup_figures = tracer.snapshot() if tracer else {}
        result = run_rounds(ops, args.seconds, tracer)
        result["after_setup"] = after_setup
        if tracer:
            totals = tracer.snapshot()
            timed = {k: v - setup_figures.get(k, 0) for k, v in totals.items()}
            result["layers"] = tracing.layer_metrics(setup_figures, timed, result["rounds"])
            result["spans_dropped"] = tracer.spans_dropped
            tracer.uninstall()
            if args.spans:
                tracer.write_spans(args.spans)
        if args.workload == "ws-probe":
            problems = workloads.ws_sample_problems(args.seed)
            result["problems"] += problems
            result["correct"] = result["correct"] and not problems
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_rounds(ops, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: each op starts when the previous one is done.

    An op's time is the CPU time of its call, less the yardstick chunks
    that ran inside it, scaled to the reference speed by the chunks around
    it.  A traced run takes no chunks between the first and the last: it
    reports no times.
    """
    times: list[float] = []
    walls: list[tuple[float, float]] = []
    kind_time: dict[str, float] = {}
    attempted = failed = rounds = 0
    correct = True
    problems: list[str] = []
    clock, cpu = time.perf_counter, time.thread_time
    with yardstick.Sampler(periodic=tracer is None) as sampler:
        start = clock()
        while True:
            for op in ops:
                w0, t0, spent = clock(), cpu(), sampler.spent
                try:
                    output = op.run()
                except Exception as exc:  # a crash is a wrong answer, reported with the rest
                    output, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
                else:
                    error = None
                elapsed = cpu() - t0 - (sampler.spent - spent)
                walls.append((w0, clock()))
                times.append(elapsed)
                kind_time[op.kind] = kind_time.get(op.kind, 0.0) + elapsed
                attempted += 1
                if error:
                    ok, bad, problem = False, True, error
                else:
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        ok, bad, problem = op.check(output)
                failed += bad
                if not ok:
                    correct = False
                    if len(problems) < 10:
                        problems.append(problem)
            rounds += 1
            if clock() - start >= seconds:
                break
    adjusted = [t * sampler.factor_between(*wall) for t, wall in zip(times, walls)]
    return {
        "times": times,
        "adjusted": adjusted,
        "chunks": sampler.chunks,
        "kind_time": kind_time,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "correct": correct,
        "problems": problems,
    }

if __name__ == "__main__":
    sys.exit(main())
