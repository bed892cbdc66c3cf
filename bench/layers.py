"""Layer tracing for one sample, installed from the benchmark's own files.

The traced run wraps the public functions each ``qcontract`` layer exposes.
A coarse boundary call (an elimination, a component build, a U_q product,
an embedding, a point enumeration) becomes a *span*: (name, start, end,
parent span).  Calls that run millions of times (``QVScalar`` arithmetic,
``GF`` matrix operations, ``quiver.act``, component cache hits) are
*tallied*: a count, a total and a self time, with no record per call.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Each open call keeps the time of its finished children, so
self times are known when the call returns.  Spans stay in memory and are
written out once, by ``write_spans``.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        # one frame per open wrapped call: [time of finished children]
        self._frames: list[list[float]] = [[0.0]]
        self._open_spans: list[int] = [-1]
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, list[float]] = {}   # name -> [calls, total, self]
        self.counts: dict[str, int] = {}

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def tally(self, name: str, fn, count=None):
        """Wrap fn, aggregating its calls under name; count(args, kwargs)
        names an extra count to bump, or returns None."""
        frames = self._frames
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                key = count(args, kwargs)
                if key is not None:
                    self.bump(key)
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                frames[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
        return wrapper

    def span(self, name: str, fn, on_result=None):
        """Wrap fn, storing one span per call; on_result(args, kwargs,
        result) may record counts derived from the call."""
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                frames.pop()
                dt = t1 - t0
                frames[-1][0] += dt
                spans[idx] = (name, t0, t1, parent)
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(name, [0, 0.0, 0.0])[2] for name in names)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in place (the traced run only)."""
    from qcontract import _gf, _linalg, cartan, falg, quiver, scalar, uq

    # scalar: every construction is one _canonical_fraction call
    qv = scalar.QVScalar

    def init_count(args, kwargs):
        den = args[2] if len(args) > 2 else kwargs.get("den")
        unit = den is None or den.coeffs == {0: 1}
        return "scalar.unit_den_inits" if unit else None

    qv.__init__ = tracer.tally("scalar.init", qv.__init__, init_count)
    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
        setattr(qv, op, tracer.tally("scalar.op", getattr(qv, op)))

    # linalg: the module functions and every name bound by a from-import
    def cells(args, kwargs, result):
        rows = args[0]
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        tracer.bump("linalg.rref_cells", len(rows) * ncols)

    wrapped = {"rref": tracer.span("linalg.rref", _linalg.rref, cells),
               "rank": tracer.span("linalg.rank", _linalg.rank),
               "solve": tracer.span("linalg.solve", _linalg.solve),
               "nullspace": tracer.span("linalg.nullspace", _linalg.nullspace)}
    by_id = {id(getattr(_linalg, n)): w for n, w in wrapped.items()}
    for mod in (_linalg, falg, uq, cartan):
        for attr, val in list(vars(mod).items()):
            if id(val) in by_id:
                setattr(mod, attr, by_id[id(val)])

    # falg: a first-seen (algebra, nu) is a build, later calls are cache hits
    seen: set = set()
    comp = falg.FAlgebra.component
    comp_build = tracer.span("falg.component_build", comp)
    comp_hit = tracer.tally("falg.component_hit", comp)

    @functools.wraps(comp)
    def component(self, nu, *args, **kwargs):
        key = (self, self.degree(nu))
        if key in seen:
            return comp_hit(self, nu, *args, **kwargs)
        seen.add(key)
        return comp_build(self, nu, *args, **kwargs)

    falg.FAlgebra.component = component

    # uq: normal ordering and the embedding
    uq.u_multiply = tracer.span("uq.u_multiply", uq.u_multiply)
    uq.UAlgebra.reduce_triples = tracer.span("uq.reduce_triples",
                                             uq.UAlgebra.reduce_triples)
    uq.UEmbedding.apply = tracer.span("uq.emb_apply", uq.UEmbedding.apply)

    # gf and quiver
    for meth in ("mat_mul", "mat_inv", "mat_rank"):
        setattr(_gf.GF, meth, tracer.tally(f"gf.{meth}", getattr(_gf.GF, meth)))
    quiver.act = tracer.tally("quiver.act", quiver.act)

    def points(args, kwargs, result):
        tracer.bump("quiver.points_enumerated", len(result))

    for fn in ("rep_points", "group_points", "sub_stable_points"):
        setattr(quiver, fn, tracer.span(f"quiver.{fn}", getattr(quiver, fn), points))
    quiver.count_fiber_lemma_checks = tracer.span(
        "quiver.count_fiber_lemma_checks", quiver.count_fiber_lemma_checks)


LAYER_NAMES = {
    "scalar": ("scalar.init", "scalar.op"),
    "linalg": ("linalg.rref", "linalg.rank", "linalg.solve", "linalg.nullspace"),
    "falg": ("falg.component_build", "falg.component_hit"),
    "gf": ("gf.mat_mul", "gf.mat_inv", "gf.mat_rank"),
    "quiver": ("quiver.act", "quiver.rep_points", "quiver.group_points",
               "quiver.sub_stable_points", "quiver.count_fiber_lemma_checks"),
}


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced sample, as name -> (value, unit)."""
    c = t.counts.get
    return {
        "scalar.qv_inits": (t.calls("scalar.init"), "count"),
        "scalar.unit_den_inits": (c("scalar.unit_den_inits", 0), "count"),
        "scalar.qv_ops": (t.calls("scalar.op"), "count"),
        "scalar.self_s": (t.self_s(*LAYER_NAMES["scalar"]), "s"),
        "linalg.rref_calls": (t.calls("linalg.rref"), "count"),
        "linalg.rref_cells": (c("linalg.rref_cells", 0), "count"),
        "linalg.rref_s": (t.total_s("linalg.rref"), "s"),
        "linalg.rank_calls": (t.calls("linalg.rank"), "count"),
        "linalg.rank_s": (t.total_s("linalg.rank"), "s"),
        "linalg.solve_calls": (t.calls("linalg.solve"), "count"),
        "linalg.solve_s": (t.total_s("linalg.solve"), "s"),
        "linalg.self_s": (t.self_s(*LAYER_NAMES["linalg"]), "s"),
        "falg.component_calls": (t.calls("falg.component_build")
                                 + t.calls("falg.component_hit"), "count"),
        "falg.component_builds": (t.calls("falg.component_build"), "count"),
        "falg.component_self_s": (t.self_s(*LAYER_NAMES["falg"]), "s"),
        "uq.u_multiply_calls": (t.calls("uq.u_multiply"), "count"),
        "uq.u_multiply_self_s": (t.self_s("uq.u_multiply"), "s"),
        "uq.u_multiply_s": (t.total_s("uq.u_multiply"), "s"),
        "uq.reduce_triples_calls": (t.calls("uq.reduce_triples"), "count"),
        "uq.reduce_triples_self_s": (t.self_s("uq.reduce_triples"), "s"),
        "uq.emb_apply_calls": (t.calls("uq.emb_apply"), "count"),
        "uq.emb_apply_self_s": (t.self_s("uq.emb_apply"), "s"),
        "uq.emb_apply_s": (t.total_s("uq.emb_apply"), "s"),
        "gf.mat_mul_calls": (t.calls("gf.mat_mul"), "count"),
        "gf.mat_inv_calls": (t.calls("gf.mat_inv"), "count"),
        "gf.self_s": (t.self_s(*LAYER_NAMES["gf"]), "s"),
        "quiver.act_calls": (t.calls("quiver.act"), "count"),
        "quiver.points_enumerated": (c("quiver.points_enumerated", 0), "count"),
        "quiver.self_s": (t.self_s(*LAYER_NAMES["quiver"]), "s"),
        "check.self_s": (t.self_s("check"), "s"),
    }
