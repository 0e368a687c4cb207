"""Timing spans around the program's public functions, installed from outside.

``Tracer.installed()`` replaces each function listed in ``TARGETS`` by a
wrapper in every ``demandhmm`` module that holds a reference to it (so
``sampler.forward_filter`` and ``generative.transition_matrix`` are timed as
well as the definitions), and methods on their classes. Each call records a
span (id, parent id, name, start, end); a span's self time is its duration
minus the durations of its child spans. Spans stay in memory until
``write_jsonl``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function or Class.method, size of the call in days or None)
TARGETS = (
    ("demandhmm.dataio", "load_dataset", None),
    ("demandhmm.dataio", "read_draws_csv", None),
    ("demandhmm.dataio", "write_draws_csv", None),
    ("demandhmm.covariates", "build_covariates", None),
    ("demandhmm.emission", "build_design", None),
    ("demandhmm.emission", "build_day_tables", None),
    ("demandhmm.states", "log_transition_tables", None),
    ("demandhmm.states", "transition_matrix", None),
    ("demandhmm.filtering", "forward_filter", lambda args, kw: len(args[0])),
    ("demandhmm.filtering", "backward_smooth", lambda args, kw: len(args[1])),
    ("demandhmm.filtering", "rao_blackwell_states", None),
    ("demandhmm.filtering", "smooth_states", None),
    ("demandhmm.priors", "log_prior", None),
    ("demandhmm.priors", "sample_prior", None),
    ("demandhmm.paramspace", "ParamSpace.unpack", None),
    ("demandhmm.paramspace", "ParamSpace.log_jacobian", None),
    ("demandhmm.sampler", "NumpyPosterior.__call__", None),
    ("demandhmm.sampler", "run_mcmc", None),
    ("demandhmm.sampler", "compute_diagnostics", None),
    ("demandhmm.generative", "simulate", None),
    ("demandhmm.generative", "continue_simulation", None),
    ("demandhmm.ppc", "posterior_predictive_replicates", None),
    ("demandhmm.ppc", "coverage_by_gap", None),
    ("demandhmm.ppc", "forecast", None),
)


class Tracer:
    """Spans plus per-name call counts, self times and day steps."""

    def __init__(self):
        self.spans = []                 # (id, parent, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.days = Counter()
        self._stack = []                # [span id, child seconds]
        self._next_id = 0

    def span(self, name, fn, args=(), kwargs=None, size=None):
        """Call ``fn`` inside a span called ``name``."""
        kwargs = kwargs or {}
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((span_id, parent, name, start, end))
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
            if size is not None:
                self.days[name] += size(args, kwargs)

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, size)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        patched = []
        for module, qualname, size in TARGETS:
            mod = importlib.import_module(module)
            wrapper_name = f"{module.rsplit('.', 1)[-1]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                patched.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(wrapper_name, orig, size))
                continue
            orig = getattr(mod, qualname)
            wrapped = self._wrap(wrapper_name, orig, size)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").partition(".")[0] != "demandhmm":
                    continue
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        patched.append((m, attr, orig))
                        setattr(m, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)

    def write_jsonl(self, path, label=""):
        with open(path, "a") as fh:
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"round": label, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
