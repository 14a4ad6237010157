"""Per-layer timers and counters for traced runs, kept outside the program.

A traced run wraps public functions of each layer with a timer and a
call/item counter.  A wrapper's *self* time is its duration minus the time
of wrapped calls nested inside it, so the layers' times add up to the
wrapped total without double counting.  Untraced runs never import this
module's wrappers: nothing in the program is patched.

Calls made inside ``repro.exec`` worker processes are not seen here; the
exec plane's own counters (``Runtime.exec_stats()``) cover them.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict

from host import now


class Layers:
    """Accumulates self time (ms) and counts per layer metric name."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn, items=None, after=None):
        """``fn`` wrapped so its self time lands in ``values[name]``.

        ``items(args, kwargs, result)`` adds to ``values[<items name>]``;
        ``after(args, kwargs, result)`` names the metric the time lands in,
        for wrappers whose layer depends on the call's outcome.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = now() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
            self_ms = (dur - nested) * 1e3
            target = after(args, kwargs, result) if after is not None else name
            self.values[target] += self_ms
            if items is not None:
                key, count = items(args, kwargs, result)
                self.values[key] += count
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, items=None, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper (methods, classmethods,
        cached properties and module functions)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.timed(name, raw.__func__, items, after))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(self.timed(name, raw.func, items, after))
            new.__set_name__(owner, attr)
        else:
            new = self.timed(name, raw, items, after)
        setattr(owner, attr, new)

    def patch_backend(self, backend) -> None:
        """Wrap the active kernel backend's six primitives in place."""
        sizes = {
            "expand_outer_indices": lambda a, k, r: len(r[0]),
            "expand_row_indices": lambda a, k, r: len(r[0]),
            "merge_symbolic": lambda a, k, r: len(a[0]),
            "segmented_sum": lambda a, k, r: len(a[1]),
            "gather_multiply_sum": lambda a, k, r: len(a[2]),
            "kway_merge": lambda a, k, r: len(a[0]),
        }
        for prim, size in sizes.items():
            raw = getattr(backend, prim)
            wrapped = self.timed(
                f"kernels.{prim}_ms", raw,
                items=lambda a, k, r, p=prim, s=size: (f"kernels.{p}_items", s(a, k, r)),
            )
            object.__setattr__(backend, prim, wrapped)


def install_program_layers(layers: Layers) -> None:
    """Wrap the public functions of every layer named in the README."""
    from repro import kernels, oocore
    from repro.bench import runner
    from repro.datasets import loader
    from repro.gpusim.simulator import GPUSimulator
    from repro.oocore import executor
    from repro.oocore.spill import SpillStore
    from repro.plan import cache as plan_cache
    from repro.plan import passes
    from repro.plan.ir import ExecutionPlan
    from repro.runtime import core as runtime_core
    from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm

    layers.patch(loader, "load", "datasets.load_ms")
    runner.load = loader.load  # the runner imported the function by name

    layers.patch(MultiplyContext, "build", "spgemm.symbolic_ms")
    layers.patch(
        MultiplyContext, "reference_c", "spgemm.symbolic_ms",
        items=lambda a, k, r: ("spgemm.products", int(a[0].total_work)),
    )
    layers.patch(MultiplyContext, "c_row_nnz", "spgemm.symbolic_ms")

    for algo in runner.paper_algorithms():
        cls = type(algo)
        if "lower" in cls.__dict__:
            layers.patch(cls, "lower", "plan.lower_ms")
    layers.patch(ExecutionPlan, "to_trace", "plan.to_trace_ms")
    for cls, name in (
        (passes.ClassifyPass, "core.classify_ms"),
        (passes.SplitPass, "core.split_ms"),
        (passes.GatherPass, "core.gather_ms"),
        (passes.LimitPass, "core.limit_ms"),
    ):
        layers.patch(cls, "run", name)

    layers.patch(
        GPUSimulator, "run", "gpusim.run_ms",
        items=lambda a, k, r: ("gpusim.blocks", int(a[1].n_blocks)),
    )

    wrapped_fp = layers.timed("plan.fingerprint_ms", plan_cache.structure_fingerprint)
    for module in (plan_cache, runtime_core):  # both bound the name at import
        module.structure_fingerprint = wrapped_fp

    # PlanCache.multiply is split by outcome: a call that raised the hit
    # counter was a replay, any other a cold multiply.
    raw_multiply = plan_cache.PlanCache.multiply
    timed_multiply = layers.timed(
        "plan.cold_ms", raw_multiply,
        after=lambda a, k, r: (
            "plan.replay_ms" if a[0].stats.hits > a[0].perfbench_hits else "plan.cold_ms"
        ),
    )

    def plan_multiply(self, *args, **kwargs):
        self.perfbench_hits = self.stats.hits
        return timed_multiply(self, *args, **kwargs)

    plan_cache.PlanCache.multiply = plan_multiply

    layers.patch(runtime_core.Runtime, "multiply", "runtime.overhead_ms")

    # The executor bound plan_panels/slice_rows by name; the runtime imports
    # chunked_multiply from the package at call time.
    layers.patch(executor, "plan_panels", "oocore.plan_panels_ms")
    layers.patch(executor, "slice_rows", "oocore.panel_ms")
    layers.patch(oocore, "chunked_multiply", "oocore.merge_ms")
    layers.patch(SpillStore, "spill", "oocore.spill_write_ms")
    layers.patch(SpillStore, "read", "oocore.spill_read_ms")
    layers.patch(SpGEMMAlgorithm, "multiply", "oocore.panel_ms")

    layers.patch_backend(kernels.active())
