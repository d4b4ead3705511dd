"""Spans around the calls into each kubolab layer, installed from outside.

`Tracer.install` replaces every function named in LAYERS by a wrapper that
records a span (name, start, end, parent) in memory.  The wrapper is bound
wherever a caller looks the name up: on the defining module or class, and
in every kubolab module that bound it with ``from ... import`` (harness
binds the response routes and ``_expm`` that way).  Nothing under ``src/``
changes.  Parents come from a stack, so the traced program must run on one
thread; the benchmark's configs fix ``threads = 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict

import numpy as np

# metric prefix -> (module, attribute) targets; "lapack" is the boundary
# into numpy.linalg that every module crosses.
LAYERS = {
    "model.build_hamiltonian": [("kubolab.model", "build_hamiltonian")],
    "model.displacement_table": [("kubolab.model", "displacement_table")],
    "model.velocity_operator": [("kubolab.model", "velocity_operator")],
    "funcalc.spectral": [("kubolab.funcalc", "SpectralData.from_operator")],
    "funcalc.apply_spectral": [("kubolab.funcalc", "apply_spectral")],
    "funcalc.fermi_projection": [("kubolab.funcalc", "fermi_projection")],
    "funcalc.position_commutator": [("kubolab.funcalc", "position_commutator")],
    "funcalc.spectral_position_commutator": [("kubolab.funcalc", "spectral_position_commutator")],
    "funcalc.localization_diagnostic": [("kubolab.funcalc", "localization_diagnostic")],
    "lapack.eigh": [("numpy.linalg", "eigh")],
    "lapack.eigvalsh": [("numpy.linalg", "eigvalsh")],
    "dynamics.h_at": [("kubolab.dynamics", "_h_at")],
    "dynamics.evolve_density_ode": [("kubolab.dynamics", "evolve_density_ode")],
    "dynamics.evolve_density_duhamel": [("kubolab.dynamics", "evolve_density_duhamel")],
    "dynamics.propagate": [("kubolab.dynamics", "propagate")],
    "dynamics.propagator_weight_check": [("kubolab.dynamics", "propagator_weight_check")],
    "dynamics.duhamel_residual": [("kubolab.dynamics", "duhamel_residual")],
    "dynamics.gauge_equivalence_check": [("kubolab.dynamics", "gauge_equivalence_check")],
    "dynamics.expm": [("kubolab.dynamics", "_expm_hermitian")],
    "response.sigma_kubo_integral": [("kubolab.response", "sigma_kubo_integral")],
    "response.sigma_resolvent": [("kubolab.response", "sigma_resolvent")],
    "response.sigma_streda": [("kubolab.response", "sigma_streda")],
    "response.sigma_finite_difference": [("kubolab.response", "sigma_finite_difference")],
    "response.chern_number_fhs": [("kubolab.response", "chern_number_fhs")],
    "response.equilibrium_current": [("kubolab.response", "equilibrium_current")],
    "opspace.norms": [("kubolab.opspace", "norms")],
    "opspace.norm2": [("kubolab.opspace", "norm2")],
    "harness.fermi_energy": [("kubolab.harness", "ExperimentConfig.fermi_energy")],
    # write_csv and write_json call write_text: only the outermost is a span
    "harness.write": [
        ("kubolab.harness", "_OutputWriter.write_csv"),
        ("kubolab.harness", "_OutputWriter.write_json"),
        ("kubolab.harness", "_OutputWriter.write_text"),
    ],
}

ROOT = "harness"  # the span around run_experiment; its self time is suite glue
HASH = "trace.hash"  # time spent hashing lapack inputs, kept out of parents' self time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counters of one traced run, held in memory.

    n_sites is the size of the workload's lattice: decompositions of
    n_sites x n_sites inputs are the ones lapack.decomp_per_distinct counts.
    """

    def __init__(self, run_id: str, n_sites: int):
        self.run_id = run_id
        self.n_sites = n_sites
        self.spans = []  # (name, start, end, parent index or -1)
        self.stack = []  # indices of the open spans
        self.open_names = []
        self.extra = defaultdict(float)  # "<layer>.<function>.<stat>" -> value
        self.decompositions = 0
        self.distinct = set()

    # -- recording --------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name; a call made directly inside a
        span of the same name is part of that span."""
        if self.open_names and self.open_names[-1] == name:
            return fn(*args, **kwargs)
        spans, stack = self.spans, self.stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(index)
        self.open_names.append(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index] = (name, start, time.perf_counter(), parent)
            stack.pop()
            self.open_names.pop()

    def _wrap(self, name, fn, hook):
        call = self.call
        if hook is None:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                after = hook(args, kwargs)
                try:
                    return call(name, fn, *args, **kwargs)
                finally:
                    if after is not None:
                        after()

        return functools.update_wrapper(wrapper, fn)

    # -- per-layer counters ---------------------------------------------------

    def _lapack_hook(self, name):
        def hook(args, kwargs):
            a = np.asarray(args[0] if args else kwargs["a"])
            n = a.shape[-1]
            batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
            self.extra[f"{name}.work_n3"] += batch * n**3
            if a.shape == (self.n_sites, self.n_sites):
                self.decompositions += 1
                start = time.perf_counter()
                self.distinct.add(hash((a.dtype.str, a.tobytes())))
                self.spans.append((HASH, start, time.perf_counter(), self.stack[-1] if self.stack else -1))
            return None

        return hook

    def _kubo_nodes_hook(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            s_min = a["s_min"] if a["s_min"] is not None else float(np.log(1e-12) / a["eta"])
            n_panels = max(1, int(np.ceil(-s_min / a["panel_width"])))
            self.extra["response.sigma_kubo_integral.nodes"] += n_panels * a["panel_order"]
            return None

        return hook

    def _rss_growth_hook(self, name):
        def hook(args, kwargs):
            before = _maxrss_mb()

            def after():
                self.extra[f"{name}.maxrss_growth_mb"] += _maxrss_mb() - before

            return after

        return hook

    def _write_bytes_hook(self, args, kwargs):
        if len(args) >= 3 and isinstance(args[2], str):
            self.extra["harness.write.bytes"] += len(args[2].encode())
        return None

    def _hook_for(self, name, fn, attr):
        if name.startswith("lapack."):
            return self._lapack_hook(name)
        if name == "response.sigma_kubo_integral":
            return self._kubo_nodes_hook(fn)
        if name == "dynamics.evolve_density_duhamel":
            return self._rss_growth_hook(name)
        if name == "harness.write" and attr == "write_text":
            return self._write_bytes_hook
        return None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every LAYERS target where its callers look it up."""
        kubolab_modules = [
            m for key, m in list(sys.modules.items())
            if key == "kubolab" or key.startswith("kubolab.")
        ]
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    setattr(owner, attr, classmethod(self._wrap(name, fn, self._hook_for(name, fn, attr))))
                    continue
                wrapped = self._wrap(name, raw, self._hook_for(name, raw, attr))
                setattr(owner, attr, wrapped)
                if not owner_path:
                    for module in kubolab_modules:
                        for key, value in list(vars(module).items()):
                            if value is raw:
                                setattr(module, key, wrapped)

    # -- results ------------------------------------------------------------

    def layer_table(self) -> dict:
        """name -> {calls, total_s, self_s}; self time is the span minus the
        time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def metrics(self) -> dict:
        """Flat per-layer metrics of this run, zero for layers never called."""
        table = self.layer_table()
        out = {}
        for name in LAYERS:
            row = table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for stat, value in row.items():
                out[f"{name}.{stat}"] = value
        for key in ("lapack.eigh.work_n3", "lapack.eigvalsh.work_n3",
                    "response.sigma_kubo_integral.nodes",
                    "dynamics.evolve_density_duhamel.maxrss_growth_mb",
                    "harness.write.bytes"):
            out[key] = self.extra.get(key, 0.0)
        out["lapack.decomp_per_distinct"] = (
            self.decompositions / len(self.distinct) if self.distinct else 0.0
        )
        out["harness.self_s"] = table.get(ROOT, {"self_s": 0.0})["self_s"]
        out["trace.hash_s"] = table.get(HASH, {"total_s": 0.0})["total_s"]
        return out

    def span_columns(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "run_id": self.run_id,
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }
