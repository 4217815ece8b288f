"""Layer tracing from outside the library.

``Tracer.install`` wraps every public function of the eight zqadd modules
and puts the wrapper into every *other* module namespace that imported
the function, so a span opens each time a call crosses a module boundary.
Calls inside one module (``kneser_check`` calling ``sumset_mask`` in
core) stay unwrapped and count towards the span that made them; so do
classes (``ResidueSet``), private helpers and generators.  Nothing under
``src/`` is edited: ``uninstall`` puts the original functions back.

Spans are aggregated as they close, not stored one by one (the desk
verification opens about 25 million): per function a call count and
total seconds, per module its self time, which is the time of its spans
minus the time of the spans they opened.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types

MODULES = ("core", "progressions", "impact", "digital", "chains", "verify", "parallel", "cli")


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.self_s = {m: [0.0] for m in MODULES}
        self.records: dict[str, list] = {}  # "module.function" -> [calls, seconds]
        self.nodes = 0  # sum of xi_search nodes_explored
        self.mu: dict[int, float] = {}  # p -> compute_mu seconds
        self.mu_witnesses = 0
        self.task_times: list[float] = []
        self.tasks = 0
        self._stack = [0.0]  # child time accumulated by each open span
        self._wrappers: dict = {}  # original function -> wrapper
        self._patches: list = []  # (namespace, name, original)

    # -- spans ---------------------------------------------------------

    def wrap(self, module: str, name: str, fn, after=None):
        """A wrapper that times fn as a span of `module`; after(result,
        seconds) runs when a call returns normally."""
        rec = self.records.setdefault(f"{module}.{name}", [0, 0.0])
        own = self.self_s.setdefault(module, [0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                own[0] += dt - child
                rec[0] += 1
                rec[1] += dt
            if after is not None:
                after(result, dt)
            return result

        return span

    def fn(self, module: str, name: str):
        """The function the benchmark should call for module.name."""
        original = getattr(self.modules[module], name)
        return self._wrappers.get(original, original)

    # -- hooks for the counts the spans alone do not give ----------------

    def _after_xi_search(self, result, dt):
        self.nodes += result.nodes_explored

    def _after_compute_mu(self, result, dt):
        self.mu[result.p] = self.mu.get(result.p, 0.0) + dt
        self.mu_witnesses += result.witness_count

    def _after_task(self, result, dt):
        self.task_times.append(dt)

    def _ordered_map(self, original):
        def ordered_map(fn, items, workers=1, chunksize=8):
            self.tasks += len(items)
            if workers <= 1:
                # in-process tasks run verify code: give each a verify span
                fn = self.wrap("verify", fn.__name__, fn, self._after_task)
            return original(fn, items, workers, chunksize)

        return ordered_map

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        after = {"impact.xi_search": self._after_xi_search, "chains.compute_mu": self._after_compute_mu}
        for mod, ns in self.modules.items():
            for name, obj in vars(ns).items():
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != ns.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                body = self._ordered_map(obj) if (mod, name) == ("parallel", "ordered_map") else obj
                self._wrappers[obj] = self.wrap(mod, name, body, after.get(f"{mod}.{name}"))
        for ns in (*self.modules.values(), self.package):
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ != ns.__name__:
                    w = self._wrappers.get(obj)
                    if w is not None:
                        self._patches.append((ns, name, obj))
                        setattr(ns, name, w)
        # run_suites calls the suites through this list, not by name
        suites = self.modules["verify"].SUITES
        self._suites = list(suites)
        suites[:] = [(label, self._wrappers[fn]) for label, fn in suites]

    def uninstall(self) -> None:
        for ns, name, obj in reversed(self._patches):
            setattr(ns, name, obj)
        self._patches.clear()
        self.modules["verify"].SUITES[:] = self._suites

    @property
    def wrapped_calls(self) -> int:
        return sum(r[0] for r in self.records.values())


def wrapper_cost(package: types.ModuleType, repeats: int = 5, calls: int = 200_000) -> float:
    """Seconds one span adds to a call, least of several timings of a
    rotation kernel shaped like core.shift_mask, bare and spanned."""
    from oracle import rot

    spanned = Tracer(package).wrap("calibration", "rot", rot)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            rot(i, 5, 23)
        t1 = time.perf_counter()
        for i in range(calls):
            spanned(i, 5, 23)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
