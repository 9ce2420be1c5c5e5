"""Spans around the library's public functions, recorded from outside it.

Wrap points are resolved by name when tracing starts.  Every ``freespec``
module (and the benchmark's own workload module) that binds the original
function object under any name gets the wrapper, so a caller that did
``from .opsys import min_membership`` is traced as well.  A wrap point that
no longer exists is skipped and its metrics are left out.

A span is ``[name, start, end, parent, instance]``; spans stay in memory
until the run ends.  Spans are recorded only while an instance is current,
so the correctness gate, which runs between instances, is never traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


def _observe_solve(c: Counter, args, kwargs, result) -> None:
    problem = args[0] if args else kwargs.get("p")
    c["sdp.solve.iters"] += int(getattr(result, "iterations", 0))
    status = getattr(getattr(result, "status", None), "value", "")
    c["sdp.solve.definitive"] += status in ("Feasible", "Infeasible", "Optimal")
    c["sdp.solve.m_sum"] += len(getattr(problem, "constraints", ()))
    c["sdp.solve.n_sum"] += sum(getattr(problem, "blocks", ()))


def _observe_eigh(c: Counter, args, kwargs, result) -> None:
    a = args[0] if args else kwargs.get("a")
    c["kernels.eigh.n3"] += int(a.shape[0]) ** 3


def _observe_min_membership(c: Counter, args, kwargs, result) -> None:
    c["opsys.min_membership.unknown"] += getattr(result.status, "value", "") == "Unknown"


def _observe_sandwich(c: Counter, args, kwargs, result) -> None:
    c["cones.find_sandwich_simplex.hits"] += result is not None


def _observe_verify(c: Counter, args, kwargs, result) -> None:
    c["certificates.verify.rejected"] += not result.ok


# (metric name, module, attribute path, observer); several wrap points may
# share a metric name, and a None observer records the span alone.
WRAP_POINTS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("sdp.make", "freespec.sdp", "SdpProblem.make", None),
    ("sdp.solve", "freespec.sdp", "solve", _observe_solve),
    ("kernels.eigh", "freespec._kernels", "eigh_kernel", _observe_eigh),
    ("kernels.grid_scan", "freespec._kernels", "quartic_grid_scan", None),
    ("linalg.eigh", "freespec.linalg", "eigh", None),
    ("opsys.min_membership", "freespec.opsys", "min_membership", _observe_min_membership),
    ("opsys.max_membership", "freespec.opsys", "max_membership", None),
    ("opsys.lambda1_block", "freespec.opsys", "lambda1_block", None),
    ("opsys.lambda2_products", "freespec.opsys", "lambda2_products", None),
    ("containment.check_inclusion", "freespec.containment", "check_inclusion", None),
    ("containment.scalar_inclusion", "freespec.containment", "scalar_inclusion", None),
    ("containment.relaxation", "freespec.containment", "relaxation", None),
    ("containment.kraus_from_choi", "freespec.containment", "kraus_from_choi", None),
    ("containment.scaling_bound", "freespec.containment", "scaling_bound", None),
    ("cones.find_sandwich_simplex", "freespec.cones", "find_sandwich_simplex", _observe_sandwich),
    ("pencil.membership", "freespec.pencil", "membership", None),
    ("certificates.build", "freespec.certificates", "min_member_cert", None),
    ("certificates.build", "freespec.certificates", "separator_cert", None),
    ("certificates.build", "freespec.certificates", "relaxation_feasible_cert", None),
    ("certificates.build", "freespec.certificates", "relaxation_infeasible_cert", None),
    ("certificates.build", "freespec.certificates", "sandwich_cert", None),
    ("certificates.verify", "freespec.certificates", "verify_certificate", _observe_verify),
)

# Counted, not timed: a span per construction would cost more than the
# construction itself.
COUNT_POINTS = (("linalg.hermitian", "freespec.linalg", "HermitianMatrix.__init__"),)

# The layer a metric name belongs to, for the self-time shares.
LAYER_OF_PREFIX = {
    "sdp": "sdp",
    "kernels": "_kernels",
    "linalg": "linalg",
    "opsys": "opsys",
    "containment": "containment",
    "cones": "cones",
    "pencil": "pencil",
    "certificates": "certificates",
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    def __init__(self, extra_modules=()):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance: Optional[int] = None
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = tuple(extra_modules)

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.instance is not None:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, owner, attr: str, static, wrapper) -> None:
        if isinstance(static, staticmethod):
            self._set(owner, attr, staticmethod(wrapper))
            return
        self._set(owner, attr, wrapper)
        if inspect.isclass(owner):
            return
        # rebind every other module-level name that holds the same function
        modules = [m for n, m in sys.modules.items() if n == "freespec" or n.startswith("freespec.")]
        for mod in modules + list(self._extra_modules):
            for name, value in list(vars(mod).items()):
                if value is static and not (mod is owner and name == attr):
                    self._set(mod, name, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, inspect.getattr_static(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        for name, module, path, observe in WRAP_POINTS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, static = found
            fn = static.__func__ if isinstance(static, staticmethod) else static
            self._install(owner, attr, static, self._span_wrapper(name, fn, observe))
            self.wrapped.add(name)
        for name, module, path in COUNT_POINTS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, static = found
            self._install(owner, attr, static, self._count_wrapper(name, static))
            self.wrapped.add(name)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(json.dumps([name, start, end, parent, inst]) + "\n")

    def metrics(self, instance_wall_s: float, n_instances: int) -> dict[str, float]:
        """Per-layer totals over the traced instances.

        ``x.s`` is the time inside a wrapped function, ``x.self_s`` that time
        minus its wrapped children, ``x.calls`` the number of calls.  Layer
        shares divide each layer's self time by the instances' wall time.
        """
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        for (name, start, end, _, _), c in zip(self.spans, child):
            self_s[name] += end - start - c

        c = self.counts
        out: dict[str, float] = {}
        for name in sorted(self.wrapped):
            if name == "linalg.hermitian":
                out["linalg.hermitian.calls"] = c["linalg.hermitian.calls"]
                continue
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        if "sdp.solve" in self.wrapped:
            n = calls["sdp.solve"]
            out["sdp.solve.iters"] = c["sdp.solve.iters"]
            out["sdp.solve.definitive_frac"] = c["sdp.solve.definitive"] / n if n else 0.0
            out["sdp.solve.m_mean"] = c["sdp.solve.m_sum"] / n if n else 0.0
            out["sdp.solve.n_mean"] = c["sdp.solve.n_sum"] / n if n else 0.0
        if "kernels.eigh" in self.wrapped:
            out["kernels.eigh.n3"] = c["kernels.eigh.n3"]
        if "opsys.min_membership" in self.wrapped:
            out["opsys.min_membership.unknown"] = c["opsys.min_membership.unknown"]
        if "cones.find_sandwich_simplex" in self.wrapped:
            n = calls["cones.find_sandwich_simplex"]
            out["cones.find_sandwich_simplex.hit_frac"] = (
                c["cones.find_sandwich_simplex.hits"] / n if n else 0.0
            )
        if "certificates.verify" in self.wrapped:
            out["certificates.verify.rejected"] = c["certificates.verify.rejected"]

        layer_self = defaultdict(float)
        for name, v in self_s.items():
            layer_self[LAYER_OF_PREFIX[name.split(".")[0]]] += v
        for layer in LAYER_OF_PREFIX.values():
            out[f"layer.{layer}.self_frac"] = layer_self[layer] / instance_wall_s
        out["trace.coverage"] = top / instance_wall_s
        out["trace.spans"] = len(self.spans)
        out["trace.instances"] = n_instances
        return out
