"""Span tracer for the benchmark's traced runs.

``install`` wraps the public hcmlab functions that the benchmark's per-layer
metrics name, in every hcmlab module namespace that bound them: a
``from .specfun import f_family_prime`` binds a second name, and wrapping only
the defining module would miss its callers.  Each wrapped call records a span
(name, start, end, parent) in flat in-memory arrays and bumps counters; spans
are written out once, when the run ends.

Per-layer metric names are ``<module>.<function>.<quantity>``:

- ``calls``: number of calls;
- ``points``: array elements passed in;
- ``evals``: integrand evaluations, counted by wrapping the callable handed to
  ``quad_checked`` or ``tanh_sinh``;
- ``draws``: variates returned by a sampler;
- ``errors``: exceptions raised;
- ``self_s``: span time minus the time of its child spans.

This module uses only the standard library until ``summary`` and ``dump``,
so a traced CLI process can time its import of hcmlab before loading it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

NO_PARENT = -1


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def summary(self) -> dict:
        """Counters plus ``<name>.self_s`` for every span name, and probes."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        has = parent != NO_PARENT
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_s = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        out = dict(self.counts)
        for name, s in zip(self.names, self_s.tolist()):
            out[f"{name}.self_s"] = s
        out["monotone.estimate_critical_t.probes"] = self._nested_count(
            "monotone.cm_check_by_inversion", "monotone.estimate_critical_t")
        return out

    def _nested_count(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that have an ancestor named ``outer``."""
        if inner not in self._name_ids or outer not in self._name_ids:
            return 0
        want, anc = self._name_ids[inner], self._name_ids[outer]
        n = 0
        for i, k in enumerate(self.name_id):
            if k != want:
                continue
            j = self.parent[i]
            while j != NO_PARENT and self.name_id[j] != anc:
                j = self.parent[j]
            n += j != NO_PARENT
        return n

    def dump(self, path):
        """Write every span (name, start, end, parent) as a compressed .npz."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64),
                            parent=np.frombuffer(self.parent, dtype=np.int32))


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _counting(tracer: Tracer, key: str, fn):
    """The integrand ``fn``, counting the evaluations it is asked for."""
    def integrand(x, *rest):
        tracer.add(key, _size(x))
        return fn(x, *rest)
    return integrand


# (module, function, metric prefix, extra quantity); several functions may
# share one prefix, as the samplers share ``montecarlo.sample``
TARGETS = (
    ("specfun", "f_family", "specfun.f_family", "points"),
    ("specfun", "f_family_prime", "specfun.f_family_prime", "points"),
    ("specfun", "bessel_k", "specfun.bessel_k", None),
    ("quadrature", "quad_checked", "quadrature.quad_checked", "evals"),
    ("quadrature", "tanh_sinh", "quadrature.tanh_sinh", "evals"),
    ("quadrature", "oscillatory_tail", "quadrature.oscillatory_tail", None),
    ("laplace", "bromwich_invert", "laplace.bromwich_invert", None),
    ("laplace", "branch_cut_invert", "laplace.branch_cut_invert", None),
    ("laplace", "invert_grid", "laplace.invert_grid", None),
    ("monotone", "cm_check_by_inversion", "monotone.cm_check_by_inversion", None),
    ("monotone", "estimate_critical_t", "monotone.estimate_critical_t", None),
    ("monotone", "hcm_check", "monotone.hcm_check", None),
    ("monotone", "cm_check_by_differences", "monotone.cm_check_by_differences", None),
    ("pick", "ggc_pick_scan", "pick.ggc_pick_scan", None),
    ("pick", "h_value", "pick.h_value", "points"),
    ("densities", "density_sqrt_gamma_product", "densities.density_sqrt_gamma_product", "points"),
    ("densities", "cdf_T_alpha", "densities.cdf_T_alpha", None),
    ("montecarlo", "sample_gamma", "montecarlo.sample", "draws"),
    ("montecarlo", "sample_positive_stable", "montecarlo.sample", "draws"),
    ("montecarlo", "sample_T_alpha", "montecarlo.sample", "draws"),
    ("montecarlo", "ks_statistic", "montecarlo.ks", None),
    ("montecarlo", "ks_statistic_two_sample", "montecarlo.ks", None),
)


def _wrap(tracer: Tracer, name: str, fn, extra: str | None):
    calls, errors, extra_key = f"{name}.calls", f"{name}.errors", f"{name}.{extra}"

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.add(calls)
        if extra == "evals":  # the integrand is the first argument
            args = (_counting(tracer, extra_key, args[0]),) + args[1:]
        elif extra == "points":  # the array is the first argument
            tracer.add(extra_key, _size(args[0]))
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.add(errors)
            raise
        finally:
            tracer.close(span)
        if extra == "draws":
            tracer.add(extra_key, out.n)
        return out

    return traced


def install(tracer: Tracer):
    """Wrap every target wherever hcmlab bound it; returns an undo callable."""
    undo = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "hcmlab" or key.startswith("hcmlab."))]
    for mod, fn_name, name, extra in TARGETS:
        original = getattr(importlib.import_module(f"hcmlab.{mod}"), fn_name)
        wrapper = _wrap(tracer, name, original, extra)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))

    def uninstall():
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)
    return uninstall
