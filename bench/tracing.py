"""Spans around the public functions of mathieuspec's modules.

The tracer rebinds every public function of the seven layer modules in
every layer namespace that binds it (``fundamental_solutions`` is bound in
``discriminant``, ``spectrality`` and ``cli``), plus
``BandSolver.solution`` and scipy's ``solve_ivp`` as bound in
``discriminant``.  Each call records a span (name, start, end, parent, job
id) in memory; ``restore`` puts the original bindings back.  Nothing in
the package changes on disk.

A span's exclusive time is its duration minus its direct child spans and
the tracer's own bookkeeping around them; a layer's self time is the sum of
the exclusive times of its spans.
"""

from __future__ import annotations

import importlib
import time
import types
from typing import Dict, List

LAYERS = ("cli", "floquet", "discriminant", "spectrality", "expansion",
          "asymptotic", "potential")
PACKAGE = "mathieuspec"

# span record fields
NAME, START, END, PARENT, JOB, OVERHEAD, EXTRA = range(7)


def _eig_extra(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    return op.is_hermitian


def _solve_ivp_extra(args, kwargs, result):
    return int(result.nfev)


#: Per-span values read from the call: eig's Hermitian path, the RHS
#: evaluations of an ODE solve.
EXTRAS = {"floquet.eig": _eig_extra,
          "discriminant.solve_ivp": _solve_ivp_extra}


class Tracer:
    """Wraps the layer functions while installed; collects spans."""

    def __init__(self):
        self.spans: List[list] = []
        self.job = -1
        self._stack: List[int] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in LAYERS}
        wrappers: Dict[int, object] = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                name = self._span_name(mod, attr, obj)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._rebind(mod, attr, wrappers[id(obj)])
        solver = mods["floquet"].BandSolver
        self._rebind(solver, "solution",
                     self._wrap("floquet.BandSolver.solution",
                                solver.solution))
        return self

    @staticmethod
    def _span_name(mod, attr, obj):
        if mod.__name__ == f"{PACKAGE}.discriminant" and attr == "solve_ivp":
            return "discriminant.solve_ivp"
        if not isinstance(obj, types.FunctionType) or \
                obj.__name__.startswith("_"):
            return None
        home = obj.__module__.rpartition(".")[2]
        if not obj.__module__.startswith(PACKAGE + ".") or home not in LAYERS:
            return None
        return f"{home}.{obj.__qualname__}"

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job,
                   0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
            rec[START], rec[END] = t1, t2
            rec[OVERHEAD] = (t1 - t0) + (clock() - t2)
            return result

        return traced

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as CSV: name,start,end,parent,job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[JOB]}\n")


def layer_metrics(spans: List[list], n_jobs: int,
                  skipped_nodes: int) -> Dict[str, float]:
    """Per-job layer metrics from the spans of ``n_jobs`` jobs."""
    n = len(spans)
    child_cost = [0.0] * n
    has_eig_child = [False] * n
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            child_cost[p] += (s[END] - s[START]) + s[OVERHEAD]
            if s[NAME] == "floquet.eig":
                has_eig_child[p] = True
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    self_by_name: Dict[str, float] = {}
    incl: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    hermitian = nfev = solution_hits = 0
    overhead = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        excl = dur - child_cost[i]
        self_by_layer[name.partition(".")[0]] += excl
        self_by_name[name] = self_by_name.get(name, 0.0) + excl
        incl[name] = incl.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        overhead += s[OVERHEAD]
        if name == "floquet.eig" and s[EXTRA]:
            hermitian += 1
        elif name == "discriminant.solve_ivp":
            nfev += s[EXTRA]
        elif name == "floquet.BandSolver.solution" and not has_eig_child[i]:
            solution_hits += 1

    jobs = float(n_jobs)
    sol_calls = calls.get("floquet.BandSolver.solution", 0)
    out = {f"{layer}.self_s": self_by_layer[layer] / jobs for layer in LAYERS}
    out.update({
        "floquet.eig.calls": calls.get("floquet.eig", 0) / jobs,
        "floquet.eig.hermitian_calls": hermitian / jobs,
        "floquet.eig.s": incl.get("floquet.eig", 0.0) / jobs,
        "floquet.two_periodic_pair.calls":
            calls.get("floquet.two_periodic_pair", 0) / jobs,
        "floquet.track_curves.self_s":
            self_by_name.get("floquet.track_curves", 0.0) / jobs,
        "floquet.stable_m.s": incl.get("floquet.stable_m", 0.0) / jobs,
        "floquet.BandSolver.solution.calls": sol_calls / jobs,
        "floquet.BandSolver.solution.hit_ratio":
            solution_hits / sol_calls if sol_calls else 0.0,
        "discriminant.fundamental_solutions.calls":
            calls.get("discriminant.fundamental_solutions", 0) / jobs,
        "discriminant.find_critical_points.s":
            incl.get("discriminant.find_critical_points", 0.0) / jobs,
        "discriminant.solve_ivp.calls":
            calls.get("discriminant.solve_ivp", 0) / jobs,
        "discriminant.solve_ivp.s":
            incl.get("discriminant.solve_ivp", 0.0) / jobs,
        "discriminant.solve_ivp.nfev": nfev / jobs,
        "spectrality.make_solver.s":
            incl.get("spectrality.make_solver", 0.0) / jobs,
        "spectrality.integral_inverse_dn.calls":
            calls.get("spectrality.integral_inverse_dn", 0) / jobs,
        "spectrality.integral_inverse_dn.self_s":
            self_by_name.get("spectrality.integral_inverse_dn", 0.0) / jobs,
        "expansion.band_terms":
            calls.get("expansion.coefficient_from_vectors", 0) / jobs,
        "expansion.skipped_nodes": skipped_nodes / jobs,
        "asymptotic.A_series.calls":
            calls.get("asymptotic.A_series", 0) / jobs,
        "trace.spans": n / jobs,
        "trace.overhead_s": overhead / jobs,
    })
    return out


def unit_of(name: str) -> str:
    last = name.rpartition(".")[2]
    if last == "s" or last.endswith("_s") or name.endswith("_s.p50"):
        return "s"
    return "ratio" if last == "hit_ratio" else "count"
