"""Span tracer that measures tprslab's layers from outside the package.

``Tracer.install`` replaces every public module-level function and every
public method (plus ``__init__``) of the classes defined in a layer module
with a timing wrapper, at every ``tprslab`` module that holds a reference to
the function (``tprslab.resources.sample_state`` is the wrapped
``ensembles.sample_state``). Closures that the sampling engine runs on the
caller's behalf get a span named after the module that defined them, so their
time counts towards that module's layer and not towards ``sampling``.

Spans (id, name, start, end, parent, thread) are kept in per-thread arrays
and written out by ``dump``. Self time is a span's duration minus the part of
its interval covered by its children. Counts that are derived from call
arguments rather than observed (enumeration terms, multiply-adds,
eigen-problem dimensions) are collected by per-function hooks and are marked
as computed in ``COMPUTED``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("randprims", "ensembles", "sampling", "resources", "linalg", "distinguishers", "bounds", "growth", "cli")

# Private helpers that get their own span because a per-layer metric names them.
PRIVATE_PROBES = {"resources": ("_schmidt_probs",)}

# Per-layer metrics that are derived from call arguments, not observed.
COMPUTED = (
    "ensembles.exact_moment_terms",
    "ensembles.mc_moment_madds",
    "resources.pauli_madds",
    "linalg.eig_dim_sum",
)

_perf = time.perf_counter


class _Buffer:
    """Closed spans of one thread, in compact typed arrays."""

    def __init__(self, thread: int):
        self.thread = thread
        self.sid = array("q")
        self.nid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")

    def add(self, sid, nid, t0, t1, parent):
        self.sid.append(sid)
        self.nid.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(parent)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[tuple[int, int]] = []
        self._next_sid = itertools.count(1).__next__
        self._patched: list[tuple[object, str, object]] = []
        self._signatures: dict[str, inspect.Signature] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        # (function, key) -> [calls, inclusive seconds]
        self.per_call: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self._fingerprints: set[int] = set()

    # -- span recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            st = self._local.state = (stack, buf)
        return st

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1][0]
        # a pool thread's first span belongs to the span that submitted it
        main = self._main_stack
        return main[-1][0] if main else 0

    def wrap(self, fn, name: str, hook=None, arg_closures=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_closures is not None:
                args, kwargs = arg_closures(self, args, kwargs)
            stack, buf = self._state()
            parent = self._parent(stack)
            sid = self._next_sid()
            stack.append((sid, nid))
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                buf.add(sid, nid, t0, t1, parent)
            if hook is not None:
                hook(self, name, args, kwargs, result, t1 - t0, stack)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Span around the benchmark's own code (pass and job boundaries)."""
        nid = self.name_id(name)
        stack, buf = self._state()
        parent = self._parent(stack)
        sid = self._next_sid()
        stack.append((sid, nid))
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            stack.pop()
            buf.add(sid, nid, t0, t1, parent)

    # -- hook helpers -----------------------------------------------------

    def arg(self, name: str, fn, args, kwargs, param: str):
        sig = self._signatures.get(name)
        if sig is None:
            sig = self._signatures[name] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[param]

    def draw(self, amps: np.ndarray) -> None:
        self.counters["draws"] += 1
        self._fingerprints.add(hash(amps.tobytes()))

    def job_done(self) -> None:
        """Close the distinct-draw window; draws are compared within one job."""
        self.counters["distinct_draws"] += len(self._fingerprints)
        self._fingerprints.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"tprslab.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                private_probe = attr in PRIVATE_PROBES.get(layer, ())
                if attr.startswith("_") and not private_probe:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self.wrap(obj, name, _HOOKS.get(name), _ARG_CLOSURES.get(name))
                    replaced[id(obj)] = (obj, wrapped)
        # every import site, including the package namespace
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tprslab" or mod_name.startswith("tprslab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = _HOOKS.get(name)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, hook))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, hook))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name, hook)
            else:
                continue  # properties and plain attributes
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        bufs = list(self._buffers)

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs if len(b.sid)]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        thread = np.concatenate(
            [np.full(len(b.sid), b.thread, dtype=np.int32) for b in bufs if len(b.sid)]
            or [np.zeros(0, dtype=np.int32)]
        )
        return {
            "sid": cat("sid", np.int64),
            "nid": cat("nid", np.int32),
            "t0": cat("t0", np.float64),
            "t1": cat("t1", np.float64),
            "parent": cat("parent", np.int64),
            "thread": thread,
        }

    def dump(self, path) -> None:
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **sp)

    def rollup(self) -> "Rollup":
        return Rollup(self.names, self.spans())


class Rollup:
    """Per-name call counts, inclusive time and self time of recorded spans."""

    def __init__(self, names: list[str], sp: dict[str, np.ndarray]):
        self.names = names
        n = len(sp["sid"])
        dur = sp["t1"] - sp["t0"]
        top = max(int(sp["sid"].max(initial=0)), int(sp["parent"].max(initial=0)))
        pos = np.full(top + 1, -1, dtype=np.int64)
        pos[sp["sid"]] = np.arange(n)
        prow = np.where(sp["parent"] > 0, pos[np.clip(sp["parent"], 0, None)], -1)
        has_parent = prow >= 0
        covered = np.bincount(prow[has_parent], weights=dur[has_parent], minlength=n)
        # children running in other threads overlap each other: use the union
        cross = has_parent & (sp["thread"] != sp["thread"][np.clip(prow, 0, None)])
        for p in np.unique(prow[cross]):
            kids = np.flatnonzero(prow == p)
            covered[p] = _union_length(sp["t0"][kids], sp["t1"][kids], sp["t0"][p], sp["t1"][p])
        self.self_time = np.maximum(dur - covered, 0.0)
        self.dur = dur
        self.nid = sp["nid"]
        self.prow = prow

    def _mask(self, match) -> np.ndarray:
        ids = [i for i, nm in enumerate(self.names) if match(nm)]
        return np.isin(self.nid, ids)

    def calls(self, match) -> int:
        return int(self._mask(match).sum())

    def self_s(self, match) -> float:
        return float(self.self_time[self._mask(match)].sum())

    def inclusive_s(self, match) -> float:
        """Time inside spans matching ``match``; a span inside another
        matching span is already counted by that one."""
        m = self._mask(match)
        nested = np.zeros_like(m)
        anc = self.prow.copy()
        while (live := anc >= 0).any():
            nested[live] |= m[anc[live]]
            anc[live] = self.prow[anc[live]]
        return float(self.dur[m & ~nested].sum())

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(lambda nm: nm.split(".", 1)[0] == layer)

    def mean_call_s(self, name: str) -> tuple[int, float]:
        m = self._mask(lambda nm: nm == name)
        count = int(m.sum())
        return count, (float(self.dur[m].mean()) if count else 0.0)


def _union_length(t0: np.ndarray, t1: np.ndarray, lo: float, hi: float) -> float:
    order = np.argsort(t0)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in zip(np.clip(t0[order], lo, hi), np.clip(t1[order], lo, hi)):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# Per-function hooks: computed counts, per-kind timings and draw fingerprints


def _on_sample_state(tr, name, args, kwargs, result, dur, stack):
    spec = args[0] if args else kwargs["spec"]
    entry = tr.per_call[("sample_state", spec.kind, spec.n)]
    entry[0] += 1
    entry[1] += dur
    if not (stack and tr.names[stack[-1][1]] == "ensembles.sample_block"):
        tr.draw(result)


def _on_sample_block(tr, name, args, kwargs, result, dur, stack):
    for row in result:
        tr.draw(row)


def _on_pauli(tr, name, args, kwargs, result, dur, stack):
    n = args[1] if len(args) > 1 else kwargs["n"]
    entry = tr.per_call[("pauli_expectations_pure", n)]
    entry[0] += 1
    entry[1] += dur
    tr.counters["pauli_madds"] += 16**n


def _eig(tr, dim: int, dur: float) -> None:
    tr.counters["eig_calls"] += 1
    tr.counters["eig_dim_sum"] += dim
    entry = tr.per_call[("eig", dim)]
    entry[0] += 1
    entry[1] += dur


def _on_trace_distance(tr, name, args, kwargs, result, dur, stack):
    _eig(tr, tr.arg(name, _original("linalg", "trace_distance"), args, kwargs, "rho").dim, dur)


def _on_eigenvalues(tr, name, args, kwargs, result, dur, stack):
    _eig(tr, args[0].dim, dur)


def _on_density_init(tr, name, args, kwargs, result, dur, stack):
    rho = args[0]
    if rho.validate:
        _eig(tr, rho.dim, dur)


def _on_exact_moment(tr, name, args, kwargs, result, dur, stack):
    fn = _original("ensembles", name.split(".", 1)[1])
    n, m = (tr.arg(name, fn, args, kwargs, p) for p in ("n", "m"))
    terms = math.comb(2**n, m)
    if name.endswith("phase_moment"):
        terms *= 2**m
    tr.counters["exact_moment_terms"] += terms


def _on_mc_moment(tr, name, args, kwargs, result, dur, stack):
    fn = _original("ensembles", "mc_ensemble_moment")
    spec = tr.arg(name, fn, args, kwargs, "spec")
    samples = tr.arg(name, fn, args, kwargs, "samples")
    dim = (2**spec.n) ** spec.t
    tr.counters["mc_moment_madds"] += samples * dim * dim * 2


def _on_paired(tr, name, args, kwargs, result, dur, stack):
    fn = _original("sampling", "paired_value_means")
    samples = tr.arg(name, fn, args, kwargs, "samples")
    chunk = tr.arg(name, fn, args, kwargs, "chunk")
    tr.counters["streams"] += len(tr.arg(name, fn, args, kwargs, "value_fns"))
    tr.counters["chunks"] += math.ceil(samples / chunk)


_HOOKS = {
    "ensembles.sample_state": _on_sample_state,
    "ensembles.sample_block": _on_sample_block,
    "resources.pauli_expectations_pure": _on_pauli,
    "linalg.trace_distance": _on_trace_distance,
    "linalg.DensityOperator.eigenvalues": _on_eigenvalues,
    "linalg.DensityOperator.__init__": _on_density_init,
    "ensembles.exact_subset_moment": _on_exact_moment,
    "ensembles.exact_subset_phase_moment": _on_exact_moment,
    "ensembles.mc_ensemble_moment": _on_mc_moment,
    "sampling.paired_value_means": _on_paired,
}


def _original(layer: str, attr: str):
    fn = getattr(importlib.import_module(f"tprslab.{layer}"), attr)
    return getattr(fn, "__wrapped__", fn)


def _closure_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1]
    return f"{layer}.{fn.__qualname__}"


def _wrap_worker(tr, args, kwargs):
    # run_ordered(worker, count, threads): the worker belongs to its caller
    worker = args[0]
    return (tr.wrap(worker, _closure_name(worker)),) + tuple(args[1:]), kwargs


def _wrap_value_fns(tr, args, kwargs):
    # paired_value_means(seed, samples, value_fns, ...): per-sample closures
    args = list(args)
    if len(args) > 2:
        args[2] = tuple(tr.wrap(f, _closure_name(f)) for f in args[2])
    else:
        kwargs = dict(kwargs, value_fns=tuple(tr.wrap(f, _closure_name(f)) for f in kwargs["value_fns"]))
    return tuple(args), kwargs


_ARG_CLOSURES = {
    "sampling.run_ordered": _wrap_worker,
    "sampling.paired_value_means": _wrap_value_fns,
}
