"""Outside-in trace of the mstat layers.

The tracer replaces public functions of the package with timing wrappers
while a traced round runs and puts the originals back afterwards; no file of
the package changes. Python resolves a module global at call time, so
replacing the attribute on every mstat module that holds the function also
catches calls made from inside the defining module.

Each call becomes a span (name, start, end, parent span, operation id) kept
in flat arrays and written out when the run ends. Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) pairs that get a span. KernelModel.__init__ counts builds.
TRACED = (
    ("mstat.cli", "main"),
    ("mstat.lp", "linear_feasible"),
    ("mstat.cones", "distance_to_normal_cone"),
    ("mstat.graph_normals", "polyhedron_membership"),
    ("mstat.graph_normals", "simplex_membership"),
    ("mstat.graph_normals", "orthant_membership"),
    ("mstat.stationarity", "verify_certificate"),
    ("mstat.stationarity", "verify_certificate_penalized"),
    ("mstat.stationarity", "value_function"),
    ("mstat.portfolio", "solve_simplex_qp"),
    ("mstat.newsvendor", "bandwidth_grid_search"),
    ("mstat.newsvendor", "solve_newsvendor"),
    ("mstat.newsvendor", "verify_newsvendor_system"),
    ("mstat.newsvendor", "conditional_cdf"),
    ("mstat.newsvendor", "conditional_pdf"),
    ("mstat.newsvendor", "grad_theta_cdf"),
    ("mstat.newsvendor", "nw_weights"),
    ("mstat.newsvendor", "KernelModel.__init__"),
)
NAMES = tuple("%s.%s" % (mod.split(".")[1], attr.replace(".__init__", ""))
              for mod, attr in TRACED)
ID = {name: i for i, name in enumerate(NAMES)}
LP = ID["lp.linear_feasible"]
DIST = ID["cones.distance_to_normal_cone"]
POLY = ID["graph_normals.polyhedron_membership"]
SOLVE = ID["newsvendor.solve_newsvendor"]
NW = ID["newsvendor.nw_weights"]


def _lp_vars(args, kw):
    """Variable count of a linear_feasible call, read the way lp reads it."""
    if kw.get("n_vars") is not None:
        return int(kw["n_vars"])
    A_eq = kw.get("A_eq", args[0] if args else None)
    A_ub = kw.get("A_ub", args[2] if len(args) > 2 else None)
    for A in (A_eq, A_ub):
        if A is not None and len(A) > 0:
            return int(np.atleast_2d(np.asarray(A)).shape[1])
    return 0


class Tracer:
    """Span recorder; patch() before a traced round, unpatch() after it."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors = [0] * len(NAMES)
        self.lp_vars = array("i")
        self.lp_feasible = array("b")
        self.dist_rows = array("i")
        self.op_id = -1
        self._stack = []
        self._saved = []

    # -- patching ---------------------------------------------------------

    def patch(self):
        from mstat.cones import active_set   # read-only helper, never traced
        mods = [m for k, m in sys.modules.items() if k == "mstat" or k.startswith("mstat.")]
        for (modname, attr), name in zip(TRACED, NAMES):
            owner = sys.modules[modname]
            if "." in attr:                   # a method, patched on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, ID[name], active_set))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, ID[name], active_set)
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def unpatch(self):
        for target, attr, orig in reversed(self._saved):
            setattr(target, attr, orig)
        self._saved = []

    def _wrap(self, fn, nid, active_set):
        stack, errors = self._stack, self.errors
        name, start, end, parent, op = self.name, self.start, self.end, self.parent, self.op

        def wrapper(*args, **kw):
            if nid == DIST:
                try:
                    self.dist_rows.append(len(active_set(args[0], args[1])))
                except ValueError:
                    pass                    # infeasible point; the call will say so
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kw)
            except BaseException:
                end[idx] = perf_counter()
                stack.pop()
                errors[nid] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if nid == LP:
                self.lp_vars.append(_lp_vars(args, kw))
                self.lp_feasible.append(result is not None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction --------------------------------------------------------

    def arrays(self):
        return {key: np.frombuffer(getattr(self, key), dtype=dtype).copy()
                for key, dtype in (("name", np.int32), ("start", np.float64),
                                   ("end", np.float64), ("parent", np.int32),
                                   ("op", np.int32))}

    def self_times(self):
        s = self.arrays()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        has = s["parent"] >= 0
        np.add.at(child, s["parent"][has], dur[has])
        return dur, dur - child

    def owner_counts(self, child_id, owner_id):
        """Spans of child_id that run inside some span of owner_id."""
        s = self.arrays()
        node = np.flatnonzero(s["name"] == child_id)
        cur = s["parent"][node]
        inside = np.zeros(len(node), dtype=bool)
        while True:
            live = (cur >= 0) & ~inside
            if not live.any():
                break
            inside[live] = s["name"][cur[live]] == owner_id
            cur = np.where(live & ~inside, s["parent"][np.maximum(cur, 0)], -1)
        return int(inside.sum())

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())
