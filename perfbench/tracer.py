"""Span tracing of calls into navscribe's public functions, from outside.

A ``Tracer`` replaces each target function with a timing wrapper in every
loaded navscribe module that binds it, so calls between modules (the crafter
calling ``observe``, the CLI calling ``craft_instruction``) are seen, not
just calls made through the defining module. Spans (id, parent id, name,
start, end) stay in memory until ``write_spans``; per-name call counts and
self time (duration minus the time covered by child spans) are kept as the
spans close. The tracer lives in one command's process and dies with it.
"""
from __future__ import annotations

import importlib
import sys
import time


class Tracer:
    def __init__(self, targets: list[tuple[str, str]]) -> None:
        self.targets = targets
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # Open spans as [id, child_ns]; the sentinel collects top-level time.
        self._stack: list[list[int]] = [[0, 0]]
        self._next_id = 1
        self.observe_positions: set[tuple[float, ...]] = set()
        self.observe_repeats = 0
        self.observe_returned = 0
        self.top_n_keys: set[tuple[str, int]] = set()
        self.top_n_repeats = 0
        self.dumps_bytes = 0

    # -- recording -----------------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0]
        self._stack.append([sid, 0])
        return sid, parent

    def _exit(self, name: str, sid: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        duration = end - start
        self._stack[-1][1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        self.spans.append((sid, parent, name, start, end))

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, sid, parent, start)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._enter()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters measured where the work happens ----------------------------

    def _after_object_saliency_observe(self, args, kwargs, result) -> None:
        position = tuple(args[1] if len(args) > 1 else kwargs["position"])
        if position in self.observe_positions:
            self.observe_repeats += 1
        else:
            self.observe_positions.add(position)
        self.observe_returned += len(result)

    def _after_supervision_export_top_n_objects(self, args, kwargs, result) -> None:
        node = args[2] if len(args) > 2 else kwargs["node"]
        n = args[4] if len(args) > 4 else kwargs["n"]
        if (node, n) in self.top_n_keys:
            self.top_n_repeats += 1
        else:
            self.top_n_keys.add((node, n))

    def _after_jsonio_dumps(self, args, kwargs, result) -> None:
        self.dumps_bytes += len(result.encode("utf-8"))

    # -- set-up and results --------------------------------------------------

    def install(self) -> None:
        """Swap every binding of each target in loaded navscribe modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "navscribe" or name.startswith("navscribe."))]
        for module_name, func_name in self.targets:
            original = getattr(importlib.import_module(f"navscribe.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": {name: ns / 1e9 for name, ns in self.self_ns.items()},
            "observe_repeats": self.observe_repeats,
            "observe_returned": self.observe_returned,
            "observe_positions": sorted(self.observe_positions),
            "top_n_repeats": self.top_n_repeats,
            "dumps_bytes": self.dumps_bytes,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines(f"{s}\t{p}\t{n}\t{a}\t{b}\n" for s, p, n, a, b in self.spans)
