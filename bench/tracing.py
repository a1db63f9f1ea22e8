"""Span and count wrappers installed on landauzb module attributes.

Every wrapped function is looked up as a module global by its callers
(``hermite.gauss_hermite`` in packet and oracle, ``build`` in oracle,
``write_record`` in cli, ``np.linalg.eigh`` in oracle), so assigning the
wrapper to the module attribute also catches calls made inside the package.
A span's self time is its duration minus the time of the wrapped spans it
encloses.  Spans are aggregated per name in memory; nothing is written
until the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

from landauzb import cli, dynamics, hermite, oracle
from landauzb import packet as packet_mod

# (module, attribute, span name); the span name keys the per-layer metrics
TRACED = (
    (hermite, "gauss_hermite", "hermite.gauss_hermite"),
    (hermite, "psi_table", "hermite.psi_table"),
    (packet_mod, "coefficient_matrix", "packet.coefficient_matrix"),
    (packet_mod, "f_table", "packet.f_table"),
    (dynamics, "trajectory_2p1", "dynamics.trajectory_2p1"),
    (dynamics, "trajectory_3p1", "dynamics.trajectory_3p1"),
    (dynamics, "analytic_signal", "dynamics.analytic_signal"),
    (dynamics, "spectral_decomposition", "dynamics.spectral_decomposition"),
    (oracle, "evolve_expectations", "oracle.propagate"),
    (oracle, "build", "oracle.build"),
    (np.linalg, "eigh", "oracle.eigh"),
    (cli, "main", "cli.main"),
    (cli, "write_record", "cli.write_record"),
    (cli, "read_record", "cli.read_record"),
)


def series_terms(args, kwargs) -> int:
    """Oscillation terms of a 2+1 series: components x pairs x samples x classes.

    Only the discrete 2+1 sum has a node count visible from outside (one);
    3+1 calls resolve their axial rule internally and are not counted.
    """
    pkt, coeffs, _field, times = args[:4]
    if pkt.dimensionality != "2+1":
        return 0
    parts = kwargs.get("parts", args[4] if len(args) > 4 else "all")
    components = (abs(pkt.a1) > 0) + (abs(pkt.a2) > 0)
    classes = 2 if parts == "all" else 1
    return int(components * coeffs.n_max * np.asarray(times).size * classes)


class Tracer:
    """Aggregated spans: calls, self seconds and work counts per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._children = [0.0]     # child time of each open span, outermost first
        self._samples = 0          # time samples of the open evolve_expectations call
        self._saved = []

    def _record(self, name, args, kwargs, result):
        if name in ("dynamics.trajectory_2p1", "dynamics.analytic_signal"):
            self.counts["dynamics.terms"] += series_terms(args, kwargs)
        elif name == "packet.coefficient_matrix":
            self.counts["packet.n_max"] += result.n_max
        elif name == "oracle.build":
            d = result.dimension
            self.counts["oracle.dim"] = max(self.counts["oracle.dim"], d)
            # per node: p_rho and two operator transforms (16 d^3) plus the
            # two (d x d) @ (d x T) complex propagation products (16 d^2 T)
            self.counts["oracle.propagate.gflop"] += (16.0 * d**3 + 16.0 * d * d * self._samples) * 1e-9
        elif name == "cli.write_record":
            path = args[0] if args else kwargs.get("path")
            if path not in (None, "-"):
                self.counts["cli.write_record.bytes"] += os.path.getsize(path)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == "oracle.propagate":
                outer = self._samples
                self._samples = np.asarray(args[2] if len(args) > 2 else kwargs["times"]).size
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._children.pop()
                self._children[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if name == "oracle.propagate":
                    self._samples = outer
            self._record(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
