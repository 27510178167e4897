"""Per-layer spans taken at the call boundaries of ``camopt.scp.solve``.

``scp.solve`` and ``cli.main`` reach every layer through module-level names
(``camopt.scp.linearize_segment``, ``camopt.scp.socp_solve``, ...).  While a
:class:`Tracer` is installed, each of those names is replaced by a wrapper
that records a span: layer, function, start, end, parent span and the id of
the solve it belongs to.  Nothing under ``src/`` changes, and the wrappers
exist only inside ``with tracer.installed(solve_id)``.

A name listed in :data:`LAYERS` that the program no longer defines stops the
run with :class:`MissingLayerError` rather than reporting zero time for it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# layer -> the functions whose calls make up its time.  The first function
# of a layer is the one its ``.calls`` count refers to.  Names are looked
# up where the caller looks them up, so ``camopt.scp.socp_solve`` is the
# cone solver as ``scp.solve`` sees it.
LAYERS = {
    "cli.load": ["camopt.cli:load_scenario"],
    "scp.channels": ["camopt.scp:_build_short_channels",
                     "camopt.scp:_build_long_channels"],
    "scp.node_states": ["camopt.scp:_node_states"],
    "astro.linearize_segment": ["camopt.scp:linearize_segment"],
    # the rest of relinearization: impulse responses and, for long-term
    # channels, the per-node instantaneous-PoC scan for the worst node
    "scp.relinearize_other": ["camopt.scp:_impulse_responses",
                              "camopt.scp:ipoc"],
    "scp.adapt_limits": ["camopt.scp:adapt_limits", "camopt.scp:_st_rho_fn",
                         "camopt.scp:_lt_rho_fn", "camopt.scp:invert_chan",
                         "camopt.scp:invert_ipoc"],
    "scp.select_anchors": ["camopt.scp:_select_anchors"],
    "scp.risk_rows": ["camopt.scp:_risk_rows", "camopt.scp:_grid_tpoc",
                      "camopt.scp:_constraint_nodes"],
    "convexify.assemble": ["camopt.scp:assemble"],
    "convexify.to_socp": ["camopt.convexify:ConicProblem.to_socp"],
    "socp.solve": ["camopt.scp:socp_solve"],
    "scp.evaluate_final": ["camopt.scp:_evaluate_final"],
    "scp.reports": ["camopt.scp:_reports"],
    "cli.emit": ["camopt.cli:emit"],
}


class MissingLayerError(RuntimeError):
    """A traced function is no longer where the trace expects it."""


def _resolve(target):
    """(owner object, attribute name) of ``"module:attr"`` or
    ``"module:Class.attr"``."""
    mod_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as exc:
        raise MissingLayerError(f"cannot import {mod_name}: {exc}") from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingLayerError(f"{target}: {mod_name} has no {part}")
    if not callable(getattr(owner, attr, None)):
        raise MissingLayerError(f"{target} is not defined")
    return owner, attr


class Tracer:
    """Collects spans in memory; :meth:`installed` wraps every layer."""

    def __init__(self):
        # (solve id, layer, function, start, end, parent index or -1)
        self.spans = []
        # solve id -> {"ipm_iters", "optimal", "kkt_dim"} from the cone solver
        self.socp = {}
        self._stack = []
        self._solve = None
        self._targets = [(layer, target, *_resolve(target))
                         for layer, targets in LAYERS.items()
                         for target in targets]

    def _wrap(self, layer, target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (tracer._solve, layer, target, start,
                                     end, parent)
            if layer == "socp.solve":
                tracer._count_socp(args[0], out)
            return out

        return traced

    def _count_socp(self, prob, res):
        c = self.socp.setdefault(self._solve, {"ipm_iters": 0, "optimal": 0,
                                               "kkt_dim": 0})
        c["ipm_iters"] += res.iterations
        c["optimal"] += res.status == "optimal"
        c["kkt_dim"] = max(c["kkt_dim"],
                           len(prob.c) + len(prob.b) + len(prob.h))

    @contextlib.contextmanager
    def installed(self, solve_id):
        """Wrap every layer for the duration of one solve; the root span
        covers the whole ``with`` body."""
        saved = []
        self._solve = solve_id
        root = len(self.spans)
        self.spans.append(None)
        self._stack = [root]
        try:
            for layer, target, owner, attr in self._targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, target, fn))
            start = time.perf_counter()
            try:
                yield
            finally:
                self.spans[root] = (solve_id, "solve", "cli.main", start,
                                    time.perf_counter(), -1)
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._stack = []
            self._solve = None

    def layer_totals(self, solve_id):
        """Per layer: seconds inside it (a span nested in a span of the same
        layer is not counted twice) and calls of its first function; plus
        the share of the solve's wall time that its direct child spans
        cover."""
        by_idx = {i: s for i, s in enumerate(self.spans)
                  if s is not None and s[0] == solve_id}
        root = next(i for i, s in by_idx.items() if s[5] == -1)
        wall = by_idx[root][4] - by_idx[root][3]
        seconds = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        covered = 0.0
        for i, (_, layer, target, start, end, parent) in by_idx.items():
            if i == root:
                continue
            if target == LAYERS[layer][0]:
                calls[layer] += 1
            if parent == root:
                covered += end - start
            p = parent
            while p != root and by_idx[p][1] != layer:
                p = by_idx[p][5]
            if p == root:
                seconds[layer] += end - start
        return seconds, calls, covered / wall

    def dump(self):
        """Every span as a dict; ``id`` and ``parent`` index this list."""
        return [{"id": i, "solve": s[0], "layer": s[1], "function": s[2],
                 "start": s[3], "end": s[4], "parent": s[5]}
                for i, s in enumerate(self.spans)]
