"""Outside-in layer tracing: wrap satmon's public functions from outside.

``Tracer.install()`` replaces each traced function, wherever a satmon
module binds it, with a wrapper that records a span (name, start, end,
parent, request id, thread) in memory.  Nothing in satmon changes; the
wrappers are removed again by ``uninstall()``.  Self time is a span's
duration minus its direct children in the same thread.
"""

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import count

# module -> public functions left unwrapped wherever they are bound: vector
# and matrix helpers that run millions of times and would only measure the
# wrapper.
_SKIP = {
    "zlat": {"vadd", "vsub", "vneg", "vscale", "vdot", "vgcd", "primitive"},
    "kernels": {"identity_matrix", "mat_mul", "mat_vec"},
    "documents": {"istr", "fstr", "ivec_out", "fvec_out", "check_format"},
    "cli": {"main", "build_parser"},
}

MODULES = ("kernels", "_lp", "zlat", "monoid", "homs", "pi1", "valuative", "documents", "cli")

METHODS = (
    ("_lp", "LinearSystem", "feasible_point"),
    ("_lp", "LinearSystem", "maximize"),
    ("monoid", "AffineMonoid", "saturate"),
    ("monoid", "AffineMonoid", "membership"),
    ("valuative", "TypeVPresentation", "member"),
)


def _label(mod, name):
    """Span name; metric names must start with a letter, so ``_lp`` is ``lp``.

    All ``parse_*`` and ``*_out`` of documents collapse into two groups.
    """
    if mod == "documents":
        if name.startswith("parse"):
            return "documents.parse"
        if name.endswith("_out"):
            return "documents.out"
    return f"{mod.lstrip('_')}.{name}"


class Tracer:
    def __init__(self):
        self.spans = []  # (sid, label, t0, t1, parent, rid, thread, nested)
        self.counts = Counter()
        self._ids = count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, label, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        rid = stack[0][0] if stack else sid
        nested = any(lbl == label for _, lbl in stack)
        if label == "lp.simplex_max" and any(lbl == "zlat.solve_nonneg" for _, lbl in stack):
            self.counts["lp_in_solve_nonneg"] += 1
        stack.append((sid, label))
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, label, t0, t1, parent, rid, threading.get_ident(), nested))
        self._count(label, out)
        return out

    def _count(self, label, out):
        if label == "kernels.scan_box_points":
            self.counts["scan_points"] += len(out)
        elif label == "kernels.cd_minimal_nonneg_solutions" and out is None:
            self.counts["cd_budget_exceeded"] += 1
        elif label == "zlat.hilbert_basis":
            self.counts["hilbert_elements"] += len(out.sharp) + len(out.units)

    @contextmanager
    def root(self, label):
        """A root span (one request): the spans inside it share its id."""
        stack = self._stack()
        sid = next(self._ids)
        stack.append((sid, label))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, label, t0, time.perf_counter(), None, sid,
                               threading.get_ident(), False))

    # -- installation ------------------------------------------------------------

    def _wrapper(self, label, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(label, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self):
        skip = {id(getattr(importlib.import_module(f"satmon.{mod}"), name))
                for mod, names in _SKIP.items() for name in names}
        targets = {}  # id(original) -> (original, wrapper)
        for mod in MODULES:
            m = importlib.import_module(f"satmon.{mod}")
            for name, obj in list(vars(m).items()):
                if name.startswith("_") or id(obj) in skip:
                    continue
                if not callable(obj) or isinstance(obj, type):
                    continue
                if not getattr(obj, "__module__", "").startswith("satmon"):
                    continue
                if id(obj) not in targets:
                    targets[id(obj)] = (obj, self._wrapper(_label(mod, name), obj))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("satmon"):
                continue
            d = vars(mod)
            for name, obj in list(d.items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((d, name, obj))
                    d[name] = hit[1]
        for mod, cls, meth in METHODS:
            c = getattr(importlib.import_module(f"satmon.{mod}"), cls)
            fn = c.__dict__[meth]
            self._patches.append((c, meth, fn))
            setattr(c, meth, self._wrapper(_label(mod, f"{cls}.{meth}"), fn))

    def uninstall(self):
        for where, name, orig in reversed(self._patches):
            if isinstance(where, dict):
                where[name] = orig
            else:
                setattr(where, name, orig)
        self._patches.clear()

    # -- summaries ------------------------------------------------------------------

    def layer_totals(self, thread=None):
        """label -> {calls, total_s, self_s}; calls and total count outermost spans.

        With ``thread``, only spans recorded on that thread are summed.
        """
        child = defaultdict(float)
        for sid, label, t0, t1, parent, rid, th, nested in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, label, t0, t1, parent, rid, th, nested in self.spans:
            if thread is not None and th != thread:
                continue
            row = out[label]
            row["self_s"] += (t1 - t0) - child[sid]
            if not nested:
                row["calls"] += 1
                row["total_s"] += t1 - t0
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tname\tstart\tend\tparent\trequest\tthread\n")
            for sid, label, t0, t1, parent, rid, th, nested in self.spans:
                fh.write(f"{sid}\t{label}\t{t0:.9f}\t{t1:.9f}\t{parent or ''}\t{rid}\t{th}\n")
