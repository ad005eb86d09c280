"""Per-layer spans recorded from outside the program.

The tracer replaces each public function listed in ``SPANS`` by a wrapper
that counts its calls and accumulates its self time: its duration minus the
time spent in wrapped functions it called.  ``from .x import y`` copies a
function into the importing module, so every ``semistab`` module attribute
bound to the original is rebound.  Wrappers stay installed for the life of
the process, which is one pass.

Two counters are kept where the work happens:

* ``spectral.resolvent_evals``: ``models.resolvent_blocks`` calls made under
  ``spectral.riesz_projection_quadrature``;
* ``linalg.power_steps``: ``linalg.apply_cumulative`` calls made under
  ``linalg.operator_norm``, one per power-iteration step.
"""

from __future__ import annotations

import importlib
import sys
import time

#: Metric stem -> the (module, function) pairs whose spans it sums.
SPANS = {
    "models.eigenvalues": [("models", "eigenvalues")],
    "models.resolvent_blocks": [("models", "resolvent_blocks")],
    "models.evolve_blocks": [("models", "evolve_blocks")],
    "models.build_model": [("models", "build_model")],
    "models.block_operator_norm": [("models", "block_operator_norm")],
    "spectral.riesz_projection_quadrature": [
        ("spectral", "riesz_projection_quadrature")],
    "spectral.hypothesis_a_check": [("spectral", "hypothesis_a_check")],
    "spectral.hypothesis_b_check": [("spectral", "hypothesis_b_check")],
    "linalg.operator_norm": [("linalg", "operator_norm")],
    "asymptotics.sample_norms": [("asymptotics", "sample_norms")],
    "asymptotics.concave_envelope": [("asymptotics", "concave_envelope")],
    "asymptotics.fit_rate": [("asymptotics", "fit_rate")],
    "asymptotics.hardy_check": [("asymptotics", "hardy_check")],
    "asymptotics.witness_lower_bound": [("asymptotics", "witness_lower_bound")],
    "experiments.parse_config": [("experiments", "parse_config")],
    "experiments.emit": [("experiments", "write_json"),
                         ("experiments", "write_csv")],
    "cli.main": [("cli", "main")],
}

#: Counter -> (counted function, the span it must be called under).
COUNTERS = {
    "spectral.resolvent_evals": (("models", "resolvent_blocks"),
                                 "spectral.riesz_projection_quadrature"),
    "linalg.power_steps": (("linalg", "apply_cumulative"),
                           "linalg.operator_norm"),
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "semistab"
                                    or name.startswith("semistab."))]


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self):
        self.calls = {stem: 0 for stem in SPANS}
        self.self_s = {stem: 0.0 for stem in SPANS}
        self.counts = {name: 0 for name in COUNTERS}
        self._active = {stem: 0 for stem in SPANS}
        self._child_time = []

    def _span(self, stem, fn):
        clock = time.perf_counter
        stack = self._child_time
        active = self._active

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            active[stem] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                active[stem] -= 1
                child = stack.pop()
                self.calls[stem] += 1
                self.self_s[stem] += elapsed - child
                if stack:
                    stack[-1] += elapsed
        return wrapper

    def _counter(self, name, under, fn):
        active = self._active

        def wrapper(*args, **kwargs):
            if active[under]:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        def lookup(mod, func):
            return getattr(importlib.import_module(f"semistab.{mod}"), func)

        originals = {}
        for stem, targets in SPANS.items():
            for mod, func in targets:
                fn = lookup(mod, func)
                originals[id(fn)] = (fn, self._span(stem, fn))
        # A counted function that is also a span is counted outside its span,
        # so that the span's clock excludes nothing it did not before.
        for name, ((mod, func), under) in COUNTERS.items():
            fn = lookup(mod, func)
            inner = originals.get(id(fn), (fn, fn))[1]
            originals[id(fn)] = (fn, self._counter(name, under, inner))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def snapshot(self) -> dict:
        """Counts and self times recorded so far."""
        out = {}
        for stem in SPANS:
            out[f"{stem}.calls"] = self.calls[stem]
            out[f"{stem}.self_s"] = self.self_s[stem]
        out.update(self.counts)
        return out
