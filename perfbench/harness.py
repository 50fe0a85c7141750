"""Span tracing, counters and reporting helpers for the benchmark.

Everything here acts on the ``pilotopt`` package from outside: public
functions are replaced by wrappers in every ``pilotopt`` module that binds
them, and restored afterwards.  Nothing in the package itself changes.
"""

import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from array import array
from pathlib import Path

# Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10
REFERENCE_PASSES = 3


class Tracer:
    """Spans kept in flat arrays: parent id, name id, start and end times.

    A span's id is its position.  Spans nest by call order, so the span open
    on top of the stack is the parent of the next one.  Recording is on only
    while ``enabled`` is set; wrappers with a hook run the hook either way.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: dict[str, list] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self._name_id(name))
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block when tracing is enabled."""
        sid = self.open(name) if self.enabled else -1
        try:
            yield
        finally:
            if sid >= 0:
                self.close(sid)

    def wrap(self, group: str, module, attr: str, name: str, hook=None) -> None:
        """Replace ``module.attr`` by a recording wrapper in every ``pilotopt``
        module that binds the same function.

        ``hook(args, kwargs, result, exc)`` runs after each call, traced or
        not; ``exc`` is the exception the call raised, if any.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name) if tracer.enabled else -1
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if sid >= 0:
                    tracer.close(sid)
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            if sid >= 0:
                tracer.close(sid)
            if hook is not None:
                hook(args, kwargs, result, None)
            return result

        patches = self._patches.setdefault(group, [])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pilotopt" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                patches.append((mod, attr, original))

    def unwrap(self, group: str) -> None:
        """Restore every function the group replaced."""
        for mod, attr, original in reversed(self._patches.pop(group, [])):
            setattr(mod, attr, original)

    def spans_of(self, first: int, last: int | None = None):
        """Spans with ids in [first, last) as (id, parent, name, start, end)."""
        last = len(self) if last is None else last
        for sid in range(first, last):
            yield sid, self.parent[sid], self.names[self.name[sid]], self.start[sid], self.end[sid]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans_of(0):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": None if parent < 0 else parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    ``spans`` is an iterable of (id, parent, name, start, end).
    """
    spans = list(spans)
    children: dict[int, list] = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def tail_percentile(samples, ceiling: float = 100.0):
    """(percentile, value) for the highest percentile in ``TAIL_PERCENTILES``,
    at most ``ceiling``, that has at least ten samples beyond it.

    Uses the nearest-rank definition: the q-th percentile of n sorted samples
    is the one at rank ceil(q*n/100), and the samples beyond it are the
    n - rank above that rank.  With too few samples for any of them the
    median (as ``median`` computes it) is returned.  Returns (None, None)
    for no samples.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None, None
    for q in TAIL_PERCENTILES:
        if q > ceiling:
            continue
        rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
        if n - rank >= MIN_BEYOND:
            return q, values[rank - 1]
    return 50.0, median(values)


class Reference:
    """A fixed piece of numpy and interpreter work that does not touch the
    package: its time tracks the speed the host gives this process."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        small = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self.small = small @ small.conj().T + 12 * np.eye(12)
        self.vec = rng.standard_normal(12) + 0j
        self.big = rng.standard_normal((64, 14, 12)) + 1j * rng.standard_normal((64, 14, 12))
        self.mix = rng.standard_normal((14, 14, 12, 12))

    def measure(self) -> float:
        """Median time of ``REFERENCE_PASSES`` passes."""
        return median([self.run() for _ in range(REFERENCE_PASSES)])

    def run(self) -> float:
        """Seconds one pass of the reference work takes."""
        np = self.np
        t0 = time.perf_counter()
        x = self.vec
        for _ in range(60):
            x = np.linalg.solve(self.small, x)
            x = x / np.linalg.norm(x)
        np.einsum("rnm,nkml->rkl", self.big, self.mix)
        return time.perf_counter() - t0


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def fmt12(x) -> str:
    return format(float(x), ".12g")


class Digest:
    """SHA-256 over canonical output lines, in the order they were added."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *fields) -> None:
        self._hash.update(("|".join(str(f) for f in fields) + "\n").encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read from ``.git`` directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    """Interpreter, library and machine facts recorded with every result."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
    }
