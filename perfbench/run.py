"""The demod benchmark: one workload per run, or all four in turn.

    python3 perfbench/run.py --workload add-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from the root of a checkout of the repository; it uses ``src/`` from
there and needs nothing installed.  Each workload runs in fresh interpreters
(``child.py``), one at a time: an untraced run splits its timed phase over
``PROCESSES`` of them.  Set-up is timed from before the interpreter starts to
the first timed operation, once per process, and its median is reported.
Every time is reported at the reference speed of ``yardstick.py``, read from
chunks run next to it.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of a traced run.
Raw results, with the environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("add-sweep", "ws-probe", "translate-corpus", "check-files")
PROCESSES = 3
CHILD_TIMEOUT = 170.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
RATIO_METRICS = {"rewriting.positions_per_step", "rewriting.match_hit_ratio",
                 "nd.normalize_per_obligation", "translate.max_ratio"}


class BenchError(Exception):
    pass


def unit_of(metric: str) -> str:
    if metric in RATIO_METRICS:
        return "ratio"
    return "s" if metric.endswith("_s") else "count"


def git_revision(root: str) -> str:
    """The commit checked out at ``root``, read from ``.git`` if there is one."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_revision": git_revision(root),
        "seed": seed,
    }


def start_child(workload: str, seed: int, seconds: float, trace: int, spans: str | None):
    """Start one workload interpreter.

    Return it, its set-up time as measured, the yardstick chunks run just
    before it started, and what the child said of the chunks it ran during
    set-up.
    """
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        argv += ["--spans", spans]
    # the seed also fixes string hashing, so set and dict orders repeat per seed
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    before = yardstick.batch()
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - started
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: set-up did not finish (got {line.strip()!r})")
    return proc, setup, before, json.loads(line[len("READY "):])


def finish_child(proc, workload: str) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: the run did not finish in {CHILD_TIMEOUT:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: the workload process exited with {proc.returncode}")
    return out


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten operations beyond it."""
    n = len(times)
    if n < 40:
        return None
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, cuts[round(p * 10) - 1]
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    setups, raw_setups, children = [], [], []
    # An untraced run splits the timed phase over PROCESSES interpreters, one
    # after another: a process's memory layout alone moves its speed by a few
    # per cent, and set-up is sampled once per process.
    count = 1 if trace else PROCESSES
    for _ in range(count):
        proc, setup, before, during = start_child(workload, seed, seconds / count, trace,
                                                  stem + ".spans.jsonl" if trace else None)
        child = json.loads(finish_child(proc, workload).strip().splitlines()[-1])
        raw_setups.append(setup - during["spent"])
        chunks = before + during["chunks"] + child["after_setup"]
        setups.append((setup - during["spent"]) * yardstick.factor(chunks))
        children.append(child)
    times = [t for c in children for t in c["adjusted"]]
    raw = [t for c in children for t in c["times"]]
    kind_time: dict[str, float] = {}
    for c in children:
        for kind, t in c["kind_time"].items():
            kind_time[kind] = kind_time.get(kind, 0.0) + t
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in children[0]["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in children), "unit": "MB"},
        }
    tail = tail_percentile(times)
    total = sum(kind_time.values())
    record = {
        "workload": workload,
        "environment": environment(os.getcwd(), seed),
        "seconds": seconds,
        "trace": trace,
        "rounds": sum(c["rounds"] for c in children),
        "ops": len(times),
        "op_mean_ms": sum(times) / len(times) * 1e3,
        "setups_s": setups,
        # as measured, before scaling to the reference speed
        "raw": {"setups_s": raw_setups, "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3,
                "speed": yardstick.REFERENCE_S / statistics.fmean(
                    [t for c in children for t in c["chunks"]])},
        "kind_share": {k: v / total for k, v in sorted(kind_time.items())},
        "tail": {"percentile": tail[0], "ms": tail[1] * 1e3, "ops": len(times)} if tail else None,
        "problems": [p for c in children for p in c["problems"]][:10],
        "spans_dropped": children[0].get("spans_dropped", 0),
        "result": {"correct": all(c["correct"] for c in children),
                   "attempted": sum(c["attempted"] for c in children),
                   "failed": sum(c["failed"] for c in children), "metrics": metrics},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    w = record["workload"]
    print(f"# {w}: environment {json.dumps(record['environment'])}")
    res = record["result"]
    print(f"# {w}: {record['rounds']} rounds, attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for name, m in res["metrics"].items():
        print(f"# {w}: {name} = {m['value']:.6g} {m['unit']}")
    raw = record["raw"]
    print(f"# {w}: as measured: ops_per_s = {raw['ops_per_s']:.6g} op/s, op_p50_ms = "
          f"{raw['op_p50_ms']:.6g} ms, machine at {raw['speed']:.3g}x the reference speed")
    if record["tail"]:
        t = record["tail"]
        print(f"# {w}: tail p{t['percentile']:g} = {t['ms']:.6g} ms over {t['ops']} ops "
              "(reference only)")
    for problem in record["problems"]:
        print(f"# {w}: PROBLEM {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "demod", "__init__.py")):
        print("run.py: no src/demod here; run from the root of a demod checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, args.trace))
            report(records[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    results = [r["result"] for r in records]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['workload']}/{name}": m for rec in records
                        for name, m in rec["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
