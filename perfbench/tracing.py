"""Spans and counters installed around cfspectra's public functions from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install()``
replaces the listed functions and methods with wrappers:

- span wrappers record (name, start, end, parent span) in memory;
- counting wrappers on the hot dunders and accessors only add to a count;
- ``Cyclo.__mul__`` gets a timed counter: a count and a time, no span.

Methods are patched on their class.  A free function is patched in every
``cfspectra`` module that holds it, because modules bind names at import
(``koopman`` imports ``abs_upper`` and ``rung_label_indices`` by name).
The spans are written out as JSON by ``write_spans`` when the run ends,
and ``layer_metrics`` turns them into the per-layer self times and counts.
A span's self time is its duration minus what its child spans cover.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import json
import sys
import time
import weakref
from array import array

# (module, attribute path) of every function that gets a span
SPANNED = [
    ("cli", "main"),
    ("experiment", "resolve_system"),
    ("experiment", "build_tower"),
    ("tower", "Tower.extend"),
    ("tower", "validate_tower"),
    ("tower", "serialize_tower"),
    ("tower", "parse_tower"),
    ("groups", "catalog_search"),
    ("groups", "multiplicity_set"),
    ("groups", "multiplicity_set_naive"),
    ("cocycle", "rung_label"),
    ("cocycle", "rung_label_indices"),
    ("cocycle", "check_coboundary_condition"),
    ("cyclotomic", "abs_upper"),
    ("pairings", "PairingEngine.pairing"),
    ("pairings", "PairingEngine.propagate"),
    ("pairings", "PairingEngine.level_kernel"),
    ("pairings", "PairingEngine.base_values"),
    ("pairings", "out_of_range_count"),
    ("koopman", "residual_grid"),
    ("koopman", "weak_limit_residual_even"),
    ("koopman", "weak_limit_residual_stagger"),
    ("koopman", "skew_decomposition_check"),
    ("recurrence", "return_cuts"),
    ("recurrence", "multiple_recurrence_search"),
    ("spectra", "homogeneous_multiplicity_check"),
    ("spectra", "product_power_multiplicity_check"),
    ("spectra", "symmetric_generation_check"),
    ("spectra", "vandermonde_extraction_check"),
]

# hot calls: a count only, no span
COUNTED = [
    ("groups", "Element.__add__", "groups.element_ops"),
    ("groups", "Element.__sub__", "groups.element_ops"),
    ("groups", "Element.__neg__", "groups.element_ops"),
    ("groups", "Automorphism.__call__", "groups.element_ops"),
    ("tower", "Level.label", "tower.level_label_calls"),
    ("cocycle", "Cocycle.eval", "cocycle.eval_calls"),
    ("cyclotomic", "Cyclo.from_exponent_counts", "cyclotomic.from_exponent_counts_calls"),
    ("pairings", "PairingEngine.__init__", "pairings.engines"),
]

# a count and a time, no span
TIMED = [
    ("cyclotomic", "Cyclo.__mul__", "cyclotomic.cyclo_mul"),
    ("cyclotomic", "Cyclo.__rmul__", "cyclotomic.cyclo_mul"),
]


def _module(name: str):
    return importlib.import_module(f"cfspectra.{name}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.stack: list[int] = []
        self.extra_child: dict[int, float] = {}   # timed-counter time under each span
        self.counts: dict[str, list] = {}         # name -> [count]
        self.timed: dict[str, list] = {}          # name -> [count, seconds]
        self.kernel_entries = 0
        self.max_states = 0
        self.guard_trips = 0
        self._states_seen = 0
        self.cache_sizes: list[int] = []
        self._towers: weakref.WeakSet = weakref.WeakSet()
        self.t0 = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, after=None, on_error=None):
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (self.span_name, self.span_start, self.span_end,
                                               self.span_parent, self.stack)
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(pc())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = pc()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, name: str):
        cell = self.timed.setdefault(name, [0, 0.0])
        stack, extra = self.stack, self.extra_child
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            t = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                d = pc() - t
                cell[0] += 1
                cell[1] += d
                if stack:
                    extra[stack[-1]] = extra.get(stack[-1], 0.0) + d

        return wrapper

    def _generator_counter(self, fn, name: str):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def _patch(self, modname: str, path: str, make):
        mod = _module(modname)
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
            return
        wrapped = make(raw)
        if owner is not mod:
            setattr(owner, attr, wrapped)
            return
        for name, m in list(sys.modules.items()):
            if name == "cfspectra" or name.startswith("cfspectra."):
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)

    # -- installation ---------------------------------------------------------

    def install(self):
        for modname in ("cli", "experiment", "koopman", "recurrence", "spectra"):
            _module(modname)   # load every module before patching names in them
        hooks = {
            "PairingEngine.level_kernel": (self._after_kernel, None),
            "PairingEngine.propagate": (self._after_propagate, self._propagate_failed),
        }
        for modname, path in SPANNED:
            name = f"{modname}.{path}"
            after, on_error = hooks.get(path, (None, None))
            self._patch(modname, path,
                        lambda fn, n=name, a=after, e=on_error: self._span(fn, n, a, e))
        for modname, path, name in COUNTED:
            self._patch(modname, path, lambda fn, n=name: self._counter(fn, n))
        for modname, path, name in TIMED:
            self._patch(modname, path, lambda fn, n=name: self._timed(fn, n))
        self._patch("groups", "automorphisms",
                    lambda fn: self._generator_counter(fn, "groups.automorphisms_yielded"))
        self._install_state_probe()
        self._install_tower_probe()

    def _install_state_probe(self):
        """Count propagation states per level through the bisects propagate makes.

        ``PairingEngine.propagate`` calls ``bisect.bisect_right`` once per
        state at each level, between two ``level_kernel`` calls, and checks
        the state count against ``_STATE_GUARD`` after each level.  The
        count of those calls made directly under a propagate span, taken
        at each kernel call, is the state count the guard saw one level up.
        """
        pairings = _module("pairings")
        prop_id = self._name_id("pairings.PairingEngine.propagate")
        names, stack = self.span_name, self.stack
        real_right = bisect.bisect_right
        tracer = self

        class StateCountingBisect:
            def __getattr__(self, attr):
                return getattr(bisect, attr)

            @staticmethod
            def bisect_right(*args, **kwargs):
                if stack and names[stack[-1]] == prop_id:
                    tracer._states_seen += 1
                return real_right(*args, **kwargs)

        pairings.bisect = StateCountingBisect()
        self.state_guard = pairings._STATE_GUARD

    def _after_kernel(self, result):
        self.kernel_entries += len(result)
        self.max_states = max(self.max_states, self._states_seen)
        self._states_seen = 0

    def _after_propagate(self, result):
        self.max_states = max(self.max_states, self._states_seen, len(result))
        self._states_seen = 0

    def _propagate_failed(self, exc):
        if isinstance(exc, RuntimeError) and "exceeded" in str(exc):
            self.guard_trips += 1
        self._states_seen = 0

    def _install_tower_probe(self):
        """Record each tower's ``_cache`` size when it dies or the run ends."""
        Tower = _module("tower").Tower
        towers, sizes = self._towers, self.cache_sizes
        orig_init = Tower.__init__

        def __init__(t, *args, **kwargs):
            orig_init(t, *args, **kwargs)
            towers.add(t)

        def __del__(t):
            sizes.append(len(t._cache))

        Tower.__init__ = __init__
        Tower.__del__ = __del__

    # -- root spans and results ------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a root span opened by the benchmark itself."""
        return self._span(fn, name)(*args)

    def finish(self) -> None:
        gc.collect()
        self.cache_sizes.extend(len(t._cache) for t in list(self._towers))

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        for p, extra in self.extra_child.items():
            child[p] += extra
        calls: dict[str, int] = {}
        selfs: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + (self.span_end[i] - self.span_start[i]) - child[i]
        return calls, selfs

    def write_spans(self, path) -> None:
        """All spans as columns: name index, start and end in microseconds, parent index."""
        us = lambda t: round((t - self.t0) * 1e6)   # noqa: E731
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_us": [us(t) for t in self.span_start],
            "end_us": [us(t) for t in self.span_end],
            "parent": self.span_parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, float]:
        calls, selfs = self.self_times()
        c = lambda name: calls.get(name, 0)          # noqa: E731
        s = lambda name: selfs.get(name, 0.0)        # noqa: E731
        n = lambda name: self.counts.get(name, [0])[0]  # noqa: E731
        pairing_calls = c("pairings.PairingEngine.pairing")
        propagate_calls = c("pairings.PairingEngine.propagate")
        mul = self.timed.get("cyclotomic.cyclo_mul", [0, 0.0])
        return {
            "pairings.pairing_calls": pairing_calls,
            "pairings.pairing_s": s("pairings.PairingEngine.pairing"),
            "pairings.propagate_calls": propagate_calls,
            "pairings.propagate_s": s("pairings.PairingEngine.propagate"),
            "pairings.prop_cache_hit_ratio":
                1 - propagate_calls / pairing_calls if pairing_calls else 0.0,
            "pairings.level_kernel_calls": c("pairings.PairingEngine.level_kernel"),
            "pairings.level_kernel_s": s("pairings.PairingEngine.level_kernel"),
            "pairings.kernel_entries": self.kernel_entries,
            "pairings.max_states": self.max_states,
            "pairings.state_guard_headroom": self.state_guard - self.max_states,
            "pairings.guard_trips": self.guard_trips,
            "pairings.base_values_s": s("pairings.PairingEngine.base_values"),
            "pairings.out_of_range_count_s": s("pairings.out_of_range_count"),
            "pairings.engines": n("pairings.engines"),
            "cyclotomic.cyclo_mul_calls": mul[0],
            "cyclotomic.cyclo_mul_s": mul[1],
            "cyclotomic.from_exponent_counts_calls": n("cyclotomic.from_exponent_counts_calls"),
            "cyclotomic.abs_upper_calls": c("cyclotomic.abs_upper"),
            "cyclotomic.abs_upper_s": s("cyclotomic.abs_upper"),
            "koopman.residual_grid_s": s("koopman.residual_grid"),
            "koopman.weak_limit_residual_s":
                s("koopman.weak_limit_residual_even") + s("koopman.weak_limit_residual_stagger"),
            "koopman.skew_decomposition_check_s": s("koopman.skew_decomposition_check"),
            "tower.extend_calls": c("tower.Tower.extend"),
            "tower.extend_s": s("tower.Tower.extend"),
            "tower.validate_tower_s": s("tower.validate_tower"),
            "tower.serialize_tower_s": s("tower.serialize_tower"),
            "tower.parse_tower_s": s("tower.parse_tower"),
            "tower.level_label_calls": n("tower.level_label_calls"),
            "tower.cache_entries": max(self.cache_sizes, default=0),
            "groups.element_ops": n("groups.element_ops"),
            "groups.catalog_search_calls": c("groups.catalog_search"),
            "groups.catalog_search_s": s("groups.catalog_search"),
            "groups.automorphisms_yielded": n("groups.automorphisms_yielded"),
            "groups.multiplicity_set_calls": c("groups.multiplicity_set"),
            "groups.multiplicity_set_s": s("groups.multiplicity_set"),
            "groups.multiplicity_set_naive_s": s("groups.multiplicity_set_naive"),
            "cocycle.rung_label_calls": c("cocycle.rung_label"),
            "cocycle.rung_label_s": s("cocycle.rung_label"),
            "cocycle.rung_label_indices_s": s("cocycle.rung_label_indices"),
            "cocycle.check_coboundary_condition_s": s("cocycle.check_coboundary_condition"),
            "cocycle.eval_calls": n("cocycle.eval_calls"),
            "recurrence.return_cuts_s": s("recurrence.return_cuts"),
            "recurrence.multiple_recurrence_search_s": s("recurrence.multiple_recurrence_search"),
            "spectra.homogeneous_multiplicity_check_s": s("spectra.homogeneous_multiplicity_check"),
            "spectra.product_power_multiplicity_check_s": s("spectra.product_power_multiplicity_check"),
            "spectra.symmetric_generation_check_s": s("spectra.symmetric_generation_check"),
            "spectra.vandermonde_extraction_check_s": s("spectra.vandermonde_extraction_check"),
            "experiment.resolve_system_s": s("experiment.resolve_system"),
            "experiment.build_tower_s": s("experiment.build_tower"),
        }
