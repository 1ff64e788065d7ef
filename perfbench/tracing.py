"""Layer tracing from outside the program.

``Tracer.install`` wraps public functions of the ``stopgames`` modules and
rebinds every module attribute that refers to them, because the package
imports names with ``from .x import f``; ``uninstall`` puts the originals
back.  Each wrapped call records a span (name, start, end, parent) in
memory, plus counters read from its arguments and result.  The untraced
benchmark never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _rows(args):
    return len(args[0])


def _removed(args, result):
    return args[0].n - result[0].n


def _iterations(args, result):
    return result.iterations


# (module, function, counter from the arguments, counter from the result);
# spans are named after the function and counters summed per name.
TARGETS = [
    ("generate", "generate_fully_reduced", None, None),
    ("generate", "generate_reduced", None, None),
    ("generate", "find_valid_arcs", None, None),
    ("reduce", "reduce_game", None, _removed),
    ("reduce", "check_assumptions", None, None),
    ("reduce", "merge_terminal_valued", None, None),
    ("game", "find_bad_core", None, None),
    ("evaluate", "evaluate_strategy_pair", None, None),
    ("evaluate", "best_response", None, None),
    ("evaluate", "is_stable", None, None),
    ("linsolve", "solve_float", _rows, None),
    ("linsolve", "solve_exact", _rows, None),
    ("solve", "solve_hoffman_karp", None, _iterations),
    ("solve", "solve_permutation_improvement", None, _iterations),
    ("bench", "build_instance_set", None, None),
    ("bench", "run_benchmark", None, None),
    ("bench", "summarize", None, None),
]


class Tracer:
    """Span recorder; one per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counter]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counter: int = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counter
        self._stack.pop()

    def _wrap(self, name, fn, arg_counter, result_counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            counter = 0
            try:
                result = fn(*args, **kwargs)
                if arg_counter is not None:
                    counter = arg_counter(args)
                if result_counter is not None:
                    counter = result_counter(args, result)
                return result
            finally:
                tracer.close(idx, counter)

        return traced

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "stopgames" or key.startswith("stopgames."))
        ]
        self.absent = []
        for modname, fname, arg_counter, result_counter in TARGETS:
            try:
                home = importlib.import_module(f"stopgames.{modname}")
            except ImportError:
                self.absent.append(f"{modname}.{fname}")
                continue
            original = getattr(home, fname, None)
            if not callable(original):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(fname, original, arg_counter, result_counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    # -- summaries ---------------------------------------------------------

    def window(self, first: int, last: int) -> dict:
        """Per-name totals over spans[first:last]: calls, inclusive
        seconds, self seconds and the summed counter."""
        spans = self.spans
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            parent = spans[i][3]
            if parent >= first:
                child_time[parent - first] += spans[i][2] - spans[i][1]
        out: dict[str, dict] = {}
        for i in range(first, last):
            name, start, end, _, counter = spans[i]
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counter": 0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i - first]
            agg["counter"] += counter
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "counter"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
