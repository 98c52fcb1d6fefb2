"""Run one helmgreen CLI command in-process with timing wrappers around the
public functions of each module, and write the spans and counters as JSON.

Usage: python3 trace_child.py SUMMARY.json COMMAND --config PATH --out PATH --seed N

The wrappers are installed from outside: the program is not changed. Each
wrapper replaces the original under every name a caller looks it up by,
including names bound by ``from`` imports and the values of module-level
dicts such as ``cli.COMMANDS``. Spans are kept in memory and written out
when the command returns. A span's self time is its duration minus the
durations of its child spans.
"""

import inspect
import json
import sys
import time

import helmgreen._kernels
import helmgreen.cli
from helmgreen import dispersion, freespace, helmholtz, spectral, transforms

MODULES = {
    "cli": helmgreen.cli,
    "dispersion": dispersion,
    "transforms": transforms,
    "helmholtz": helmholtz,
    "kernels": helmgreen._kernels,
    "spectral": spectral,
    "freespace": freespace,
}

# Called ~600k times per kk_eps run: a span each would dwarf the work.
COUNT_ONLY = {"dispersion.sigma_eval"}

# Complex128 passes over a (B, N) array made by the batched Thomas solve:
# copy rhs into x (read + write), read the diagonal, write cp, update x
# (read + write); back substitution reads cp and updates x (read + write).
_THOMAS_PASSES = 9


def _batch_work(dl, du, diags, rhs):
    systems, n = diags.shape
    return {"systems": systems, "unknowns": systems * n,
            "bytes_computed": _THOMAS_PASSES * 16 * systems * n}


def _solve_work(dl, d, du, b):
    return {"rhs_columns": 1 if b.ndim == 1 else b.shape[1]}


def _diagonal_work(grid, model, kind, z_array, xi=None, omega0=None):
    return {"elements": len(z_array) * grid.N}


def _contour_work(sampler, contour, t_grid, taper=0.0):
    # The configs use the default trapezoid rule: one node per contour point.
    return {"nodes": contour.n_points, "node_times": contour.n_points * len(t_grid)}


def _defect_work(phi, psi, z_moduli, theta, quad=None):
    quad = quad or freespace.SphericalQuadrature()
    nodes = quad.n_radial * quad.n_polar * quad.n_azimuth
    return {"freespace.quad_nodes": nodes * len(z_moduli)}


# Work counters computed from the arguments; keys without a dot are
# suffixed to the function's own name.
WORK = {
    "kernels.tridiag_solve_batch": _batch_work,
    "kernels.tridiag_solve": _solve_work,
    "helmholtz.diagonal_batch": _diagonal_work,
    "transforms.laplace_invert": _contour_work,
    "freespace.asymptotic_defect": _defect_work,
}


class Tracer:
    def __init__(self):
        self.wrapped = []
        self.names = []
        self.spans = []  # (name index, parent span index or -1, start, end)
        self.stack = []
        self.counters = {}
        self.errors = {layer: [] for layer in MODULES}

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _error(self, layer, exc):
        # An exception escaping nested wrappers of one module counts once.
        if not any(seen is exc for seen in self.errors[layer]):
            self.errors[layer].append(exc)

    def counted(self, layer, name, fn):
        key = f"{name}.calls"
        count = self._count

        def wrapper(*args, **kwargs):
            count(key)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise

        return wrapper

    def timed(self, layer, name, fn):
        index = len(self.names)
        self.names.append(name)
        work = WORK.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if work is not None:
                for key, amount in work(*args, **kwargs).items():
                    self._count(key if "." in key else f"{name}.{key}", amount)
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, parent, start, end)

        return wrapper

    def install(self):
        replaced = {}
        for layer, module in MODULES.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.wrapped.append(name)
                wrap = self.counted if name in COUNT_ONLY else self.timed
                replaced[id(fn)] = (fn, wrap(layer, name, fn))
        # Rebind every name and dict value that refers to a wrapped function.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("helmgreen"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        hit = replaced.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    def summary(self):
        covered = [0.0] * len(self.spans)
        for index, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = {}
        root_s = 0.0
        for (index, parent, start, end), child_s in zip(self.spans, covered):
            entry = layers.setdefault(self.names[index], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s
            if parent < 0:
                root_s += end - start
        return {
            "wrapped": self.wrapped,
            "functions": layers,
            "counters": self.counters,
            "errors": {layer: len(seen) for layer, seen in self.errors.items()},
            "root_s": root_s,
            "span_names": self.names,
            "spans": self.spans,
        }


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return helmgreen.cli.main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
