"""A fixed pure-Python load that measures how fast the machine runs right now.

The machines this benchmark runs on are shared: the same call can take 12 ms
for a few seconds and 21 ms for the next few, with no steal time showing and
CPU time following wall time.  So the benchmark runs this load next to the
program's operations and its set-ups, and reports their times at the speed
at which one chunk of the load takes ``REFERENCE_S``:

    adjusted time = measured time * REFERENCE_S / (mean chunk time around it)

The load is the benchmark's own code and never changes with the program, so
any change in the program's speed shows in full.  It is built like the
program's hot paths: frozen dataclass terms with a cached hash, a recursive
substitution with a dict memo, equality, ``str`` and sorting.  The cyclic
garbage collector is off while a chunk runs, so the program's heap does not
slow the chunk down.

During the timed phase a ``Sampler`` runs one chunk every ``QUANTUM_S`` of
wall time, from a timer signal, so also in the middle of a long operation.
The chunk runs on the operation's own thread and CPU, and its time is taken
out of the operation's.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import sys
import time
from dataclasses import dataclass

# One chunk's time at the reference speed, a round figure near the chunk's
# time on the 2-vCPU machine the README's figures come from.
REFERENCE_S = 0.008
# The sampler runs one chunk every QUANTUM_S of wall time (about 8 % extra load).
QUANTUM_S = 0.1
# An operation is scaled by the chunks that ran within HALO_S of it, and at
# least by its NEAREST nearest chunks.
HALO_S = 1.0
NEAREST = 4
# Frames a chunk may add to the stack: a chunk is skipped where the program
# runs closer than this to the recursion limit, so that it cannot make the
# program fail.
HEADROOM = 100
# Chunks run on each side of a set-up.
BATCH = 20
# Chunks run and dropped the first time a process uses the yardstick, while
# the interpreter specialises the load's code.
WARM_UP = 5
_warm = False


@dataclass(frozen=True, eq=False)
class _Node:
    head: str
    args: tuple

    def __hash__(self) -> int:
        return hash((self.head, self.args))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _Node) and self.head == other.head
                and self.args == other.args)

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


def _build(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(("x", "y", "z", "0")[k % 4], ())
    args = (_build(depth - 1, 2 * k + 1), _build(depth - 1, 3 * k + 2))
    return _Node(("f", "g", "h")[k % 3], args)


def _subst(term: _Node, sigma: dict, memo: dict) -> _Node:
    got = memo.get(term)
    if got is not None:
        return got
    if not term.args:
        out = sigma.get(term.head, term)
    else:
        out = _Node(term.head, tuple(_subst(a, sigma, memo) for a in term.args))
    memo[term] = out
    return out


def _load() -> int:
    total = 0
    for k in range(6):
        term = _build(7, k)
        sigma = {"x": _Node("s", (_Node("y", ()),)), "y": _Node("0", ())}
        out = _subst(term, sigma, {})
        total += (out == _subst(term, sigma, {})) + len(str(out.args[0].args[0]))
        total += len(sorted({str(a) for a in out.args[1].args}, key=len))
    return total


def chunk() -> float:
    """Run the fixed load once; return the CPU time it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _load()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def _warm_up() -> None:
    global _warm
    if not _warm:
        for _ in range(WARM_UP):
            chunk()
        _warm = True


def batch(count: int = BATCH) -> list[float]:
    _warm_up()
    return [chunk() for _ in range(count)]


def factor(samples: list[float]) -> float:
    """How much to scale a time measured next to ``samples`` to the reference speed.

    The mean, not the median: a slow spell slows the program's calls and the
    chunks alike, and a median would drop the chunks it slowed.
    """
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Runs a chunk every ``QUANTUM_S`` while in a ``with``; main thread only.

    ``spent`` is the CPU time all its chunks took so far, warm-up included;
    subtract its growth over an operation from the operation's time.  With ``periodic``
    false it runs one chunk on entry and one on exit and nothing between.
    """

    def __init__(self, periodic: bool = True) -> None:
        self.starts: list[float] = []  # wall clock at each chunk's start
        self.chunks: list[float] = []
        self.spent = 0.0
        self._periodic = periodic
        self._busy = False

    def __enter__(self) -> "Sampler":
        t0 = time.thread_time()
        _warm_up()
        self.spent += time.thread_time() - t0
        self._sample()
        if self._periodic:
            self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, QUANTUM_S, QUANTUM_S)
        return self

    def __exit__(self, *exc) -> None:
        if self._periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        depth = 0
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        if depth + HEADROOM > sys.getrecursionlimit():
            return
        if not self._busy:  # a late chunk is not run twice over
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def _sample(self) -> None:
        start = time.perf_counter()
        spent = chunk()
        self.chunks.append(spent)
        self.starts.append(start)
        self.spent += spent

    def factor_between(self, begin: float, end: float) -> float:
        """The scale for an operation that ran from ``begin`` to ``end`` (wall clock)."""
        lo = bisect.bisect_left(self.starts, begin - HALO_S)
        hi = bisect.bisect_right(self.starts, end + HALO_S)
        while hi - lo < min(NEAREST, len(self.chunks)):
            before = begin - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - end if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return factor(self.chunks[lo:hi])
