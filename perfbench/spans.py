"""Spans and counts recorded around calls into strassen_lab's layers.

The program has no tracing of its own, so the benchmark wraps the public
functions of each layer from outside.  A wrapper is installed on every
module attribute that holds the function, because several modules import
these names directly (``from .flow import transport_min_cost``).  Spans
are kept in memory; each one knows the top-level benchmark operation that
caused it, so every count is reported under that operation's kind.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "strassen_lab"

GN_METRICS = (
    "flow.ssp.calls", "flow.ssp.s", "flow.maxflow.calls", "flow.maxflow.s",
    "transport.ot_value.calls", "transport.ot_value.s",
    "lattice.nested_instance.s", "lattice.type_measure.s", "lattice.outer.s",
    "lattice.types", "lattice.admissible_cells",
)


def _ldp_metrics(fn: str) -> tuple:
    return ("flow.ssp.calls", "flow.ssp.s", "transport.ot_value.calls",
            "transport.ot_value.s", f"ldp.{fn}.s", "ldp.slsqp.calls",
            "ldp.stalls")


MDP_METRICS = ("mdp.theta.calls", "mdp.theta.s", "mdp.linprog.calls",
               "mdp.slsqp.calls", "mdp.slsqp.failed")

CLI_METRICS = ("clt.lambda_binary.s", "clt.lambda_dual_grid.s", "cli.main.s",
               "flow.ssp.calls", "flow.maxflow.calls")

#: Layer metrics reported under each kind of top-level operation.
KIND_METRICS = {
    "gn_tail": GN_METRICS,
    "gn_window": GN_METRICS,
    "gn_cold": GN_METRICS,
    "gn_warm": GN_METRICS,
    "rate_f": _ldp_metrics("rate_f"),
    "rate_g": _ldp_metrics("rate_g"),
    "mdp_lower": MDP_METRICS,
    "mdp_upper": MDP_METRICS,
    "cli_main": CLI_METRICS,
}

#: Per-kind wall time of the untraced pass, summed over the kind's calls;
#: cli_call_s is the median wall time of one CLI process.
KIND_SECONDS = ("gn_tail_s", "gn_window_s", "gn_cold_s", "gn_warm_s",
                "rate_f_s", "rate_g_s", "mdp_lower_s", "mdp_upper_s",
                "cli_call_s")

#: Whole-run figures of the traced run.
RUN_METRICS = ("cli.python_s", "cli.import_s", "trace.overhead_s",
               "trace.spans")

#: Metric names whose value is the self time of the top-level span.
SELF_TIME = {"lattice.outer.s", "ldp.rate_f.s", "ldp.rate_g.s"}
#: Metric names whose value is the inclusive time of the top-level span.
ROOT_TIME = {"cli.main.s"}
#: Metric names kept as explicit counts rather than derived from spans.
COUNTS = {"lattice.types", "lattice.admissible_cells", "ldp.slsqp.calls",
          "ldp.stalls", "mdp.slsqp.calls", "mdp.slsqp.failed"}


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for kind, metrics in KIND_METRICS.items():
        for m in metrics:
            unit = "s" if m.endswith(".s") else "count"
            out.append((f"{kind}.{m}", unit))
    out += [(name, "s") for name in KIND_SECONDS]
    out += [(name, "count" if name == "trace.spans" else "s")
            for name in RUN_METRICS]
    return out


class Tracer:
    """In-memory spans: [id, parent, root, name, start, end].

    A span's id is its index in ``spans``; ``stack`` holds the ids of the
    open spans, the top-level one first.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.root_kind = {}
        self.counts = defaultdict(float)
        self.last_nested = None

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.stack[0] if self.stack else sid
        span = [sid, parent, root, name, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(sid)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def top(self, kind: str, name: str, fn, *args, **kwargs):
        """Call fn as a top-level operation of the given kind."""
        span = self._open(name)
        self.root_kind[span[0]] = kind
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def count(self, kind: str, name: str, value: float = 1.0) -> None:
        self.counts[(kind, name)] += value

    def current_kind(self):
        return self.root_kind.get(self.stack[0]) if self.stack else None

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call inside a top-level call."""
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self.current_kind(), args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- reporting ---------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-kind metric values, zero where a kind never ran."""
        covered = defaultdict(float)  # span id -> time covered by children
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        root_self = defaultdict(float)
        root_incl = defaultdict(float)
        for sid, parent, root, name, start, end in self.spans:
            kind = self.root_kind.get(root)
            if kind is None:
                continue
            if parent < 0:
                root_self[kind] += end - start - covered[sid]
                root_incl[kind] += end - start
            else:
                calls[(kind, name)] += 1
                incl[(kind, name)] += end - start
        out = {}
        for kind, metrics in KIND_METRICS.items():
            for m in metrics:
                layer = m.rsplit(".", 1)[0]
                if m in COUNTS:
                    val = self.counts.get((kind, m), 0.0)
                elif m in SELF_TIME:
                    val = root_self.get(kind, 0.0)
                elif m in ROOT_TIME:
                    val = root_incl.get(kind, 0.0)
                elif m.endswith(".calls"):
                    val = calls.get((kind, layer), 0)
                else:
                    val = incl.get((kind, layer), 0.0)
                out[f"{kind}.{m}"] = val
        return out

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, root, kind, name, start, end."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,root,kind,name,start_s,end_s\n")
            for sid, parent, root, name, start, end in self.spans:
                kind = self.root_kind.get(root, "")
                fh.write(f"{sid},{parent},{root},{kind},{name},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns a function that undoes it."""
    from strassen_lab import clt, flow, lattice, ldp, mdp, transport

    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def everywhere(fn, name, after=None):
        wrapped = tracer.wrap(name, fn, after)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    replace(mod, attr, wrapped)

    def nested_seen(kind, args, kwargs, inst):
        tracer.last_nested = inst
        tracer.count(kind, "lattice.types", len(inst.mu) + len(inst.nu))

    def ldp_minimize(kind, args, kwargs, res):
        tracer.count(kind, "ldp.slsqp.calls")

    def mdp_minimize(kind, args, kwargs, res):
        if kwargs.get("method") == "SLSQP":
            tracer.count(kind, "mdp.slsqp.calls")
            if not res.success:
                tracer.count(kind, "mdp.slsqp.failed")

    everywhere(flow.transport_min_cost, "flow.ssp")
    everywhere(flow.bipartite_max_flow, "flow.maxflow")
    everywhere(transport.ot_value, "transport.ot_value")
    everywhere(lattice.nested_instance, "lattice.nested_instance",
               nested_seen)
    everywhere(mdp.theta, "mdp.theta")
    everywhere(clt.lambda_binary, "clt.lambda_binary")
    everywhere(clt.lambda_dual_grid, "clt.lambda_dual_grid")
    # scipy entry points, counted only where the named layer calls them
    replace(ldp, "minimize", tracer.wrap("ldp.minimize", ldp.minimize,
                                         ldp_minimize))
    replace(mdp, "minimize", tracer.wrap("mdp.minimize", mdp.minimize,
                                         mdp_minimize))
    replace(mdp, "linprog", tracer.wrap("mdp.linprog", mdp.linprog))
    of = lattice.TypeMeasure.__dict__["of"].__func__
    replace(lattice.TypeMeasure, "of",
            classmethod(tracer.wrap("lattice.type_measure", of)))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore
