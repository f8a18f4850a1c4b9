"""Spans around calls into carnot's public functions, installed from outside.

Each target is named by module and attribute, so the tracer follows the
code through refactors: a module-level function is replaced in its module
and in every ``carnot.*`` module that imported the same object under any
name; a method is replaced on its class.  A target that no longer exists
is skipped and reports zero calls.

A span records its key, start, end and parent span.  Self time is a span's
duration minus the durations of its child spans.  Counters read the
wrapped call's output, so they count the work the call actually returned.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
import time

import numpy as np


def _size(out):
    return int(np.size(out))


# (module, attribute or Class.method, metric key, counter name, counter)
TARGETS = [
    ("carnot.groups", "CarnotGroup.__init__", "groups.construct", None, None),
    ("carnot.groups", "CarnotGroup.omega", "groups.omega", None, None),
    ("carnot.spectral", "frame_at", "spectral.frame_at", None, None),
    ("carnot.polynomials", "generator_matrix", "polynomials.generator_matrix",
     "polynomials.basis_dim", lambda out: len(out.basis)),
    ("carnot.levy", "LevyExponent.sample_increments", "levy.sample", "levy.sample.draws", len),
    ("carnot.levy", "LevyExponent.sample_deformed", "levy.sample", "levy.sample.draws", len),
    ("carnot.levy", "LevyExponent.psi", "levy.psi_eval", "levy.psi_eval.freqs", _size),
    ("carnot.levy", "LevyExponent.psi_t", "levy.psi_eval", "levy.psi_eval.freqs", _size),
    ("carnot.levy", "LevyExponent.psi_limit", "levy.psi_eval", "levy.psi_eval.freqs", _size),
    ("carnot.kernels", "invert_to_grid", "kernels.invert_to_grid",
     "kernels.invert_to_grid.out_pts", lambda out: int(np.size(out.values))),
    ("carnot.kernels", "group_convolve", "kernels.group_convolve", None, None),
    ("carnot.kernels", "heat_hat", "kernels.hat", None, None),
    ("carnot.kernels", "perturbed_hat", "kernels.hat", None, None),
    ("carnot.kernels", "invariant_hat", "kernels.hat", None, None),
    ("carnot.kernels", "vertical_charfn", "kernels.vertical_charfn", None, None),
    ("carnot.hermite", "weyl_matrix", "hermite.weyl_matrix", None, None),
    ("carnot.hermite", "laguerre_transform", "hermite.laguerre_transform", None, None),
    ("carnot.semigroups", "ou_apply_vertical", "semigroups.ou_apply_vertical", None, None),
    ("carnot.semigroups", "coeigen_residual", "semigroups.coeigen_residual", None, None),
    ("carnot.semigroups", "intertwine_residual", "semigroups.intertwine_residual", None, None),
    ("carnot.semigroups", "eigen_decomposition", "semigroups.eigen_decomposition", None, None),
    ("carnot.semigroups", "nonnormality_witness", "semigroups.nonnormality_witness", None, None),
    ("carnot.semigroups", "weighted_gram", "semigroups.weighted_gram", None, None),
    ("carnot.simulate", "simulate_levy_on_group", "simulate.levy_on_group",
     "simulate.paths", lambda out: len(out[1])),
    ("carnot.simulate", "simulate_levy_ou", "simulate.levy_ou",
     "simulate.paths", lambda out: len(out[1])),
    ("carnot.simulate", "estimate_charfn", "simulate.estimate_charfn", None, None),
    ("carnot.verify", "check_*", "verify.check", None, None),
]


class Tracer:
    def __init__(self):
        self.spans = []      # [key, start, end, parent index]
        self.counts = {}
        self._open = []      # indices of the spans not yet ended
        self._undo = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, key, count_key, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, time.perf_counter(), None, tracer._open[-1] if tracer._open else -1]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if counter is not None:
                tracer.counts[count_key] = tracer.counts.get(count_key, 0) + counter(out)
            return out

        return traced

    def summary(self):
        """Per key: calls, self seconds and inclusive seconds; plus the

        total time inside top-level spans.
        """
        child = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats, top = {}, 0.0
        for i, (key, start, end, parent) in enumerate(self.spans):
            st = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            st["calls"] += 1
            st["self_s"] += end - start - child[i]
            st["incl_s"] += end - start
            if parent < 0:
                top += end - start
        return stats, top

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {}
        for modname in dict.fromkeys(t[0] for t in TARGETS):
            try:
                modules[modname] = importlib.import_module(modname)
            except ImportError:
                pass
        carnot_modules = [m for name, m in list(sys.modules.items())
                          if m is not None and (name == "carnot" or name.startswith("carnot."))]
        for modname, attr, key, count_key, counter in TARGETS:
            mod = modules.get(modname)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap(orig, key, count_key, counter))
                self._undo.append((cls, meth, orig))
                continue
            names = [n for n, obj in vars(mod).items()
                     if fnmatch.fnmatchcase(n, attr) and callable(obj)
                     and getattr(obj, "__module__", None) == modname]
            for name in names:
                orig = getattr(mod, name)
                traced = self._wrap(orig, key, count_key, counter)
                for m in carnot_modules:
                    for alias, obj in list(vars(m).items()):
                        if obj is orig:
                            setattr(m, alias, traced)
                            self._undo.append((m, alias, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []
