"""Per-layer spans and counters, recorded by wrapping hfda from outside.

The package is not instrumented itself.  ``Tracer`` replaces the public
functions listed in ``SPANS`` with timing wrappers while it is installed and
puts the originals back afterwards.  Two details of the package decide how
the replacement is done:

* ``hfda/__init__.py`` re-exports the function ``integrate``, which shadows
  the ``hfda.integrate`` module attribute, so modules are resolved through
  ``importlib`` and never through attribute access on the package;
* ``observe``, ``stochastic``, ``optimize`` and ``harness`` import layer
  functions by name, so a function is replaced under every name that binds
  it in any loaded ``hfda`` module (``integrate_augmented_sensitivity`` in
  both ``hfda.observe`` and ``hfda.stochastic``, for example).

Methods are replaced on their class, which every importer shares.

A span's self time is its duration minus the time covered by the spans it
called.  Model right-hand sides and Jacobians run once per Runge-Kutta stage,
far too often for a timed span, so they are only counted: ``get_model`` is
wrapped to hand out models whose callables bump ``dynamics.rhs_calls`` and
``dynamics.jac_calls`` (one per ``jac_x`` or ``jac_p`` call).
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

# span name -> public callables it wraps, as "module:attribute" or
# "module:Class.method"
SPANS = {
    "integrate.state": ["hfda.integrate:integrate", "hfda.integrate:integrate_augmented"],
    "integrate.sensitivity": [
        "hfda.integrate:integrate_augmented_sensitivity",
        "hfda.integrate:integrate_with_sensitivity",
    ],
    "integrate.adjoint": ["hfda.integrate:integrate_adjoint"],
    "integrate.grid": ["hfda.integrate:build_grid", "hfda.integrate:grid_from_times"],
    "stochastic.draw": ["hfda.stochastic:Sampler.draw"],
    "stochastic.gradient": ["hfda.stochastic:stochastic_gradient"],
    "stochastic.residual_system": ["hfda.stochastic:residual_system"],
    "optimize.ksgd_step": ["hfda.optimize:ksgd_step"],
    "optimize.solver": [
        "hfda.optimize:run_gd",
        "hfda.optimize:run_sgd",
        "hfda.optimize:run_gauss_newton",
        "hfda.optimize:run_ksgd",
    ],
    "observe.gradient": ["hfda.observe:gradient"],
    "observe.objective": ["hfda.observe:objective", "hfda.observe:objective_many"],
    "observe.simulate": ["hfda.observe:simulate_observations"],
    "modify.apply": ["hfda.modify:ModificationScheme.apply"],
    "harness.reference": ["hfda.harness:reference_minimizer"],
    "harness.replay": ["hfda.harness:replay_trace"],
    "harness.study": ["hfda.harness:run_table1_study"],
}

INTEGRATOR_SPANS = ("integrate.state", "integrate.sensitivity", "integrate.adjoint")
COUNTERS = ("dynamics.rhs_calls", "dynamics.jac_calls", "optimize.iterations")

# unit of every name ``Tracer.metrics`` returns
UNITS = {
    **{f"{span}.{kind}": unit for span in SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "count" for name in COUNTERS},
    "integrate.steps": "count",
    "integrate.us_per_step": "us",
}


def _hfda_modules():
    return [m for name, m in list(sys.modules.items()) if name == "hfda" or name.startswith("hfda.")]


def resolve(target: str):
    """(owner, attribute, original) for a "module:attr" or "module:Class.attr" target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Span statistics and counters for hfda calls made while installed.

    Use as a context manager; ``metrics()`` flattens what was recorded into
    ``<span>.calls`` / ``<span>.self_s`` plus the counters.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call is recorded as span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
            n_iterations = getattr(result, "n_iterations", None)
            if name == "optimize.solver" and n_iterations is not None:
                self.counts["optimize.iterations"] += n_iterations
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _counting_get_model(self, get_model):
        @functools.wraps(get_model)
        def wrapper(name):
            model = get_model(name)
            return dataclasses.replace(
                model,
                rhs=self._counted("dynamics.rhs_calls", model.rhs),
                jac_x=self._counted("dynamics.jac_calls", model.jac_x),
                jac_p=self._counted("dynamics.jac_calls", model.jac_p),
            )

        return wrapper

    def _replace(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))
            return
        for module in _hfda_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append((module, name, original))

    def install(self) -> "Tracer":
        importlib.import_module("hfda")
        for name, targets in SPANS.items():
            for target in targets:
                owner, attr, original = resolve(target)
                self._replace(owner, attr, original, self.span(name, original))
        owner, attr, original = resolve("hfda.dynamics:get_model")
        self._replace(owner, attr, original, self._counting_get_model(original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self, steps: int) -> dict[str, float]:
        """Every span's calls and self time, the counters, the integration
        step total and the integrator's microseconds per step."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["integrate.steps"] = steps
        busy = sum(self.self_s[name] for name in INTEGRATOR_SPANS)
        out["integrate.us_per_step"] = 1e6 * busy / steps if steps else 0.0
        return out
