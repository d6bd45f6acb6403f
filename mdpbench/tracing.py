"""Spans and counters recorded from outside mdpvol.

``Tracer.install`` replaces each traced public function of mdpvol by a
wrapper in every mdpvol module namespace that holds it (``from x import f``
copies the reference, so patching the defining module alone would miss
callers), and ``uninstall`` puts the originals back.  Spans stay in memory
until ``dump``.  A span's self time is its duration minus the part of its
interval that its child spans cover; children opened on worker threads are
attributed to the span open on the thread that installed the tracer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _simulate_counts(tracer, args, kwargs, batch):
    config = args[1] if len(args) > 1 else kwargs["config"]
    paths = config.n_paths * (2 if getattr(config, "antithetic", False) else 1)
    tracer.count("mc.path_steps", paths * config.n_steps)
    tracer.count("mc.batch_bytes", sum(
        getattr(batch, f.name).nbytes for f in dataclasses.fields(batch)
        if hasattr(getattr(batch, f.name), "nbytes")))


def _runner_counts(tracer, args, kwargs, paths):
    tracer.count("reporting.bytes_written", sum(os.path.getsize(p) for p in paths))


# (module, attribute, span name, counter hook on the return value)
TARGETS = (
    ("mdpvol.mc", "simulate", "mc.simulate", _simulate_counts),
    ("mdpvol.mc", "estimate_smalltime_tail", "mc.estimate", None),
    ("mdpvol.mc", "estimate_rv_tail", "mc.estimate", None),
    # one Philox stream is opened per path chunk
    ("mdpvol.mc", "_philox", "mc.chunk_stream", None),
    ("mdpvol.invariant", "gamma_invariant", "invariant.gamma_invariant", None),
    ("mdpvol.invariant", "speed_measure", "invariant.speed_measure", None),
    ("mdpvol.invariant", "integrate", "invariant.integrate", None),
    ("mdpvol.quadrature", "integrate_logweight", "quadrature.integrate_logweight", None),
    ("mdpvol.poisson", "solve_poisson_cev", "poisson.solve_poisson_cev", None),
    ("mdpvol.rates", "heston_large_time_params", "rates.heston_large_time_params", None),
    ("mdpvol.rates", "share_large_time_params", "rates.share_large_time_params", None),
    ("mdpvol.ldp", "heston_lambda_star", "ldp.heston_lambda_star", None),
    ("mdpvol.ldp", "curvature", "ldp.curvature", None),
    ("mdpvol.asymptotics", "quote_catalog", "asymptotics.quote_catalog", None),
    ("mdpvol.config", "validate_config", "config.validate_config", None),
    ("mdpvol.reporting", "write_csv", "reporting.write_csv", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str, hook=None):
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            index = len(spans)
            spans.append([name, time.perf_counter(), None, parent])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, namespace: dict, key, original, wrapper) -> None:
        self._patches.append((namespace, key, original))
        namespace[key] = wrapper

    def install(self, model=None):
        """Patch every target; returns ``model`` with its fused coefficients traced."""
        modules = [m for n, m in sys.modules.items()
                   if n == "mdpvol" or n.startswith("mdpvol.")]
        for module_name, attr, span, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, span, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(vars(module), key, original, wrapper)
        runners = sys.modules["mdpvol.reporting"].RUNNERS
        for key, runner in list(runners.items()):
            self._replace(runners, key, runner,
                          self.wrap(runner, "reporting.runner", _runner_counts))
        if model is not None and model.coeffs_fused is not None:
            model = dataclasses.replace(model, coeffs_fused=self.wrap(
                model.coeffs_fused, "models.coeffs_fused"))
        return model

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children = defaultdict(list)
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)
