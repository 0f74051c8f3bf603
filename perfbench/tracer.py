"""In-memory span recorder that wraps multsum's public functions from outside.

A span is (name, start, end, parent, thread).  Wrappers are installed at every
name a caller binds: `from .lab import growth_profile` in the CLI and the
`growth_profile` defined in `lab` are the same function object, so both names
are replaced.  Nothing under `src/` changes; spans are kept in memory and
written out by the caller at the end.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (defining module, function) pairs; the span name is "<module>.<function>".
TARGETS = [
    ("arith", "primes_upto"),
    ("arith", "squarefree_block"),
    ("accum", "compensated_cumsum"),
    ("multfun", "stream_profile"),
    ("multfun", "eval_range"),
    ("characters", "character_by_index"),
    ("characters", "first_nonzero_sigma"),
    ("lab", "random_walk_mc"),
    ("lab", "growth_profile"),
    ("lab", "factorize_big"),
    ("lab", "is_squarefree_big"),
    ("lab", "rotation_witness"),
    ("lab", "squarefree_pair"),
    ("lab", "concentration_experiment"),
    ("pretentious", "distance"),
    ("pretentious", "delange_mean"),
    ("pretentious", "f_of_q_sum"),
    ("series", "dirichlet_partial"),
    ("series", "l_chi"),
    ("series", "zeta"),
    ("series", "residual_check"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a pool thread's first span belongs to the call that started the pool
            parent = self._main_stack[-1]
        else:
            parent = None
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "thread": threading.get_ident()}
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def _replace_everywhere(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "multsum" or mod_name.startswith("multsum.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self) -> None:
        """Wrap every target at each name it is bound to; `uninstall` undoes it."""
        import importlib

        for mod_name, fn_name in TARGETS:
            mod = importlib.import_module(f"multsum.{mod_name}")
            fn = getattr(mod, fn_name)
            self._replace_everywhere(fn, self.wrap(f"{mod_name}.{fn_name}", fn))
        # windows found / candidates tested: wrap the private CRT-class scanner
        # and the acceptance predicate it is handed
        lab = importlib.import_module("multsum.lab")
        scan = lab._first_admissible

        def first_admissible(congruences, accept, scan_limit):
            def counted(m):
                self.count("lab.window_candidates")
                return accept(m)

            m = scan(congruences, counted, scan_limit)
            self.count("lab.windows_found")
            return m

        self._replace_everywhere(scan, first_admissible)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds (outermost spans of that name only,
    so recursion is not counted twice) and self seconds (duration minus the
    part covered by child spans)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        if s["end"] is None:
            continue
        dur = s["end"] - s["start"]
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children.get(i, [])
                if spans[k]["end"] is not None]
        self_s = dur - _covered(kids, s["start"], s["end"])
        nested = False
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                nested = True
                break
            p = spans[p]["parent"]
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += self_s
        if not nested:
            agg["total_s"] += dur
    return out
