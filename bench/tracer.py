"""In-memory spans around calls into the magictrap layers.

``Tracer.install()`` replaces each traced function with a wrapper in every
``magictrap`` module namespace that binds it (``polarizability`` binds
``f_factor`` itself, the package binds most names again), so calls are seen
whichever binding the caller uses. Each call becomes a span: name, start,
end and the span that was open when it started. Calls and self time (span
minus the time covered by its child spans) are accumulated exactly as spans
close; the span records themselves are kept in memory up to ``cap`` and
written out by the caller at the end of the run.

Imports only the standard library, so a traced CLI child process can load it
before ``magictrap``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) pairs; "tableio.ResultTable.render" is a method.
TRACED = (
    "cli.run",
    "cli.emit_figure_data",
    "units.load_molecule",
    "magic.find_magic_fields",
    "magic.sweep",
    "stark.solve",
    "stark.dressed_c20",
    "angular.c_tensor_element",
    "angular.f_factor",
    "polarizability.alpha_tensor_closed_form",
    "polarizability.alpha_tensor_sos",
    "polarizability.alpha_eff",
    "tableio.ResultTable.render",
)
# (outer, inner): count inner calls made while an outer span is open
NESTED = (("magic.find_magic_fields", "stark.solve"),)
SPAN_CAP = 50_000


class Tracer:
    def __init__(self, names=TRACED, nested=NESTED, cap=SPAN_CAP):
        self.names = list(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.nested = [(self.index[o], self.index[i]) for o, i in nested]
        self.nested_calls = [0] * len(self.nested)
        self.cap = cap
        self.spans = []      # (span id, name index, start, end, parent id or -1)
        self.dropped = 0
        self._active = [0] * len(self.names)
        self._stack = []     # open spans: [span id, time covered by children]
        self._next_id = 0
        self._patched = []   # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _open(self, nid):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._active[nid] += 1
        return sid, parent, frame

    def _close(self, nid, sid, parent, frame, t0, t1):
        self._stack.pop()
        self._active[nid] -= 1
        dur = t1 - t0
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        for k, (outer, inner) in enumerate(self.nested):
            if nid == inner and self._active[outer]:
                self.nested_calls[k] += 1
        if sid < self.cap:
            self.spans.append((sid, nid, t0, t1, parent))
        else:
            self.dropped += 1

    def span(self, name):
        """Context manager for a span the benchmark itself opens (e.g. one operation)."""
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self._active.append(0)
        return _Span(self, self.index[name])

    def wrap(self, nid, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, frame = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(nid, sid, parent, frame, t0, clock())

        return traced

    # ------------------------------------------------------- patching

    def install(self):
        """Wrap every traced name in every loaded magictrap namespace."""
        owners = {n: importlib.import_module(f"magictrap.{n.partition('.')[0]}") for n in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "magictrap" or n.startswith("magictrap."))]
        for name in TRACED:
            nid = self.index[name]
            attr = name.partition(".")[2]
            owner = owners[name]
            if "." in attr:          # Class.method
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(nid, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(nid, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -------------------------------------------------------- results

    def summary(self) -> dict:
        """Aggregates plus kept spans, JSON-serializable, mergeable across processes."""
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "self_s": list(self.self_s),
            "nested": [[self.names[o], self.names[i], c]
                       for (o, i), c in zip(self.nested, self.nested_calls)],
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


class _Span:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.state = self.tracer._open(self.nid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.nid, *self.state, self.t0, time.perf_counter())
        return False
