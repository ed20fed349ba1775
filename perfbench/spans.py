"""In-memory span recorder that wraps the program's layer boundaries.

Spans are recorded from the benchmark's side only: each target function
(or method) is replaced, for the duration of a traced round, by a wrapper
that appends (name, start, end, parent, job) to flat arrays.  A function
bound into several module namespaces with ``from .x import name`` is
replaced in every one of them, so calls between layers are seen too.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, module, attribute path).  Methods are patched on their class.
TARGETS = [
    ("cli.run_command", "fqpencil.cli", "run_command"),
    ("counting.count_irreducible_pairs", "fqpencil.counting",
     "count_irreducible_pairs"),
    ("counting.verify_application", "fqpencil.counting", "verify_application"),
    ("counting.check_hypotheses", "fqpencil.counting", "check_hypotheses"),
    ("counting.find_specialization", "fqpencil.counting",
     "find_specialization"),
    ("bivar.restrict_to_line", "fqpencil.bivar",
     "BivariatePoly.restrict_to_line"),
    ("bivar.is_smooth", "fqpencil.bivar", "is_smooth"),
    ("bivar.curve_invariants", "fqpencil.bivar", "curve_invariants"),
    ("lifting.bivariate_irreducible", "fqpencil.lifting",
     "bivariate_irreducible"),
    ("unipoly.factor", "fqpencil.unipoly", "factor"),
    ("unipoly.is_irreducible", "fqpencil.unipoly", "is_irreducible"),
    ("unipoly.pow_mod", "fqpencil.unipoly", "UnivariatePoly.pow_mod"),
    ("unipoly.gcd", "fqpencil.unipoly", "UnivariatePoly.gcd"),
    ("unipoly.squarefree_part", "fqpencil.unipoly", "squarefree_part"),
    ("unipoly.count_monic_irreducibles", "fqpencil.unipoly",
     "count_monic_irreducibles"),
    ("polycore.ctx_build", "fqpencil.polycore", "ModCtx.__init__"),
    ("polycore.ctx_build", "fqpencil.polycore", "FrobCtx.__init__"),
    ("polycore.mulmod", "fqpencil.polycore", "ModCtx.mulmod"),
    ("polycore.powmod", "fqpencil.polycore", "ModCtx.powmod"),
    ("polycore.frobenius", "fqpencil.polycore", "FrobCtx.frobenius"),
    ("pencil.pencil_discriminant", "fqpencil.pencil", "pencil_discriminant"),
    ("pencil.find_generic_point", "fqpencil.pencil", "find_generic_point"),
    ("pencil.fiber_pattern", "fqpencil.pencil", "fiber_pattern"),
    ("pencil.pattern_histogram", "fqpencil.pencil", "pattern_histogram"),
    ("reducible.verify_conrad", "fqpencil.reducible", "verify_conrad"),
    ("parallel.pmap", "fqpencil.parallel", "pmap"),
]


def _on_count(tracer, args, kwargs, result, seconds):
    f, E = args[0], args[1]
    kind = "prime_d_le3" if E.k == 1 and f.total_degree() <= 3 else "other"
    tracer.counters[f"counting.pairs.{kind}"] += E.q ** 2
    tracer.counters[f"counting.pairs_s.{kind}"] += seconds


def _on_lift(tracer, args, kwargs, result, seconds):
    tracer.counters["lifting.decided"] += result.status != "inconclusive"


def _on_discriminant(tracer, args, kwargs, result, seconds):
    if tracer.active("pencil.find_generic_point"):
        tracer.counters["pencil.discriminants_tried"] += 1


def _on_generic_point(tracer, args, kwargs, result, seconds):
    count = kwargs.get("count", args[4] if len(args) > 4 else 1)
    tracer.counters["pencil.points_found"] += count


def _on_conrad(tracer, args, kwargs, result, seconds):
    tracer.counters["reducible.substitutions"] += result["substitutions"]


HOOKS = {
    "counting.count_irreducible_pairs": _on_count,
    "lifting.bivariate_irreducible": _on_lift,
    "pencil.pencil_discriminant": _on_discriminant,
    "pencil.find_generic_point": _on_generic_point,
    "reducible.verify_conrad": _on_conrad,
}


class Tracer:
    """Records spans while installed; ``with Tracer() as tr:`` patches."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.nested = array("b")    # inside a span of the same name
        self.counters = Counter()
        self.job_id = -1
        self.missing = []
        self._patches = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._state()

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], Counter())   # open spans, depth by name
        return st

    def active(self, name):
        return self._state()[1][self._name_ids[name]] > 0

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, depth = tracer._state()
            # spans opened in pool threads hang under the main thread's span
            parent = stack[-1] if stack else (
                tracer._main[0][-1] if tracer._main[0] else -1)
            nested = depth[nid] > 0
            with tracer._lock:
                idx = len(tracer.start)
                tracer.name.append(nid)
                tracer.parent.append(parent)
                tracer.job.append(tracer.job_id)
                tracer.nested.append(nested)
                tracer.end.append(0.0)
                tracer.start.append(perf_counter())
            stack.append(idx)
            depth[nid] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if hook is not None and not nested:
                hook(tracer, args, kwargs, result, t1 - tracer.start[idx])
            return result

        return traced

    def __enter__(self):
        for name, modname, path in TARGETS:
            self._name_id(name)
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = owner.__dict__.get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self.wrap(name, fn)
            if owner_name:
                self._patch(owner, attr, fn, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").split(".")[0] == "fqpencil"
                        and mod.__dict__.get(attr) is fn):
                    self._patch(mod, attr, fn, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
            "nested": np.array(self.nested, dtype=bool),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self):
        """{name: (calls, seconds)} over spans not nested in their own name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        top = ~a["nested"]
        calls = np.bincount(a["name"][top], minlength=len(self.names))
        secs = np.bincount(a["name"][top], weights=dur[top],
                           minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i]))
                for i, n in enumerate(self.names)}

    def self_seconds(self, name):
        """Total duration of the named spans minus what their children cover."""
        a = self.arrays()
        nid = self._name_ids[name]
        own = np.flatnonzero(a["name"] == nid)
        if own.size == 0:
            return 0.0
        is_own = np.zeros(len(a["start"]), dtype=bool)
        is_own[own] = True
        kids = np.flatnonzero((a["parent"] >= 0) & is_own[a["parent"]])
        total = float((a["end"][own] - a["start"][own]).sum())
        covered = 0.0
        order = np.lexsort((a["start"][kids], a["parent"][kids]))
        cur_parent, lo, hi = -1, 0.0, 0.0
        for i in kids[order]:
            p, s, e = a["parent"][i], a["start"][i], a["end"][i]
            if p != cur_parent or s > hi:
                covered += hi - lo
                cur_parent, lo, hi = p, s, e
            else:
                hi = max(hi, e)
        covered += hi - lo
        return total - covered

    def count_in_jobs(self, name, job_ids):
        a = self.arrays()
        sel = (a["name"] == self._name_ids[name]) & ~a["nested"]
        return int(np.isin(a["job"][sel], list(job_ids)).sum())
