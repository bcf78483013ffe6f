"""Spans around the library's public functions, recorded from outside.

A Tracer swaps each traced function for a wrapper in every ``octadimer``
namespace that binds it: ``moves`` and ``sampler`` import
``validate_covering`` by name, ``cli`` imports ``build_region``, and
``kirchhoff._system`` reaches ``solve_p`` through its module globals.
Each call records one span (name, start, end, parent).  Spans stay in
memory; the caller aggregates and writes them when the run ends.
"""

import functools
import sys
import time
from array import array

# module -> public functions timed in the traced run
TRACED = {
    "lattice": ("build_region",),
    "kirchhoff": ("build_system", "tree_count", "solve_p", "total_coverings",
                  "coverings_with_impurity"),
    "sampler": ("run", "step", "proposal_sites"),
    "covering": ("validate_covering",),
    "moves": ("find_moves", "apply_move", "t_class", "t_classes",
              "move_graph_connected"),
    "oracle": ("enumerate_coverings",),
    "slits": ("slit_curves", "forests", "impurity_curve",
              "enclosed_dual_tree"),
    "temperley": ("class_bijection", "pi", "phi", "initial_covering"),
    "render": ("render_covering",),
    "cli": ("main",),
}


def _observe_system(c, args, kwargs, result):
    c["kirchhoff.matrix_n"] = max(c.get("kirchhoff.matrix_n", 0),
                                  len(result.order))


def _observe_det(c, args, kwargs, result):
    c["kirchhoff.det_bits"] = max(c.get("kirchhoff.det_bits", 0),
                                  result.bit_length())


def _observe_solve(c, args, kwargs, result):
    system = args[0]
    c.setdefault("kirchhoff.systems", set()).add((system.order, system.b))


def _observe_run(c, args, kwargs, result):
    c["sampler.steps"] = c.get("sampler.steps", 0) + result.config.steps
    c["sampler.accepted"] = c.get("sampler.accepted", 0) + result.accepted


def _observe_step(c, args, kwargs, result):
    c["sampler.steps"] = c.get("sampler.steps", 0) + 1
    c["sampler.accepted"] = (c.get("sampler.accepted", 0)
                             + (result is not args[0]))


def _observe_enumeration(c, args, kwargs, result):
    c["oracle.coverings_enumerated"] = (
        c.get("oracle.coverings_enumerated", 0) + len(result))


def _observe_render(c, args, kwargs, result):
    c["render.svg_bytes"] = c.get("render.svg_bytes", 0) + len(result)


# span name -> hook(counters, args, kwargs, result) run after a call returns
OBSERVERS = {
    "kirchhoff.build_system": _observe_system,
    "kirchhoff.tree_count": _observe_det,
    "kirchhoff.solve_p": _observe_solve,
    "sampler.run": _observe_run,
    "sampler.step": _observe_step,
    "oracle.enumerate_coverings": _observe_enumeration,
    "render.render_covering": _observe_render,
}


class Tracer:
    """Records spans of wrapped calls while installed and active."""

    def __init__(self):
        self.names = []                 # span name of each id in `name_ids`
        self._ids = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counters = {}
        self.active = False
        self._stack = [-1]
        self._patched = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id, fn, args, kwargs):
        """Run fn as one span named by name_id, child of the open span."""
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts[i] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        name_id = self.name_id(name)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.call(name_id, fn, args, kwargs)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result
        return traced

    def install(self, package="octadimer"):
        """Replace every traced function in every namespace binding it.

        A function a later version no longer has is skipped; its metrics
        then read zero.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == package or n.startswith(package + "."))]
        for module_name, functions in TRACED.items():
            module = sys.modules.get(package + "." + module_name)
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(module_name + "." + fn_name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def mark(self):
        """Position in the span log, for slicing out one pass."""
        return len(self.starts)


def self_times(starts, ends, parents, lo=0, hi=None):
    """Duration minus the time covered by direct children, per span.

    Spans come from one thread, so children of one span never overlap
    and their durations add.  Returns a list indexed from lo.
    """
    hi = len(starts) if hi is None else hi
    out = [ends[i] - starts[i] for i in range(lo, hi)]
    for i in range(lo, hi):
        p = parents[i]
        if p >= lo:
            out[p - lo] -= ends[i] - starts[i]
    return out


def aggregate(tracer, lo, hi):
    """{span name: (calls, self seconds)} over spans lo..hi."""
    out = {}
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents, lo, hi)
    for i, s in zip(range(lo, hi), selfs):
        name = tracer.names[tracer.name_ids[i]]
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + s)
    return out
