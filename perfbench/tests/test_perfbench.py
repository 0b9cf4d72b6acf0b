"""Tests of the benchmark's own code: the tracer, the gate and the output.

    python3 -m pytest perfbench/tests

The workload tests run every workload at smoke size through the same code
path as a full run, traced and untraced.
"""
from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from tracer import SPANS, Tracer, resolve  # noqa: E402
from workloads import SMOKE, LvSampled, _reference_fit  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# spans each workload must fire; every other span must not fire at all
FIRES = {
    "fn_full": {
        "integrate.state", "integrate.sensitivity", "integrate.adjoint", "integrate.grid",
        "stochastic.residual_system", "optimize.solver", "observe.gradient",
        "observe.objective", "observe.simulate", "harness.reference",
    },
    "lv_sampled": {
        "integrate.state", "integrate.sensitivity", "integrate.grid", "stochastic.draw",
        "stochastic.gradient", "stochastic.residual_system", "optimize.ksgd_step",
        "optimize.solver", "observe.gradient", "observe.objective", "observe.simulate",
        "harness.reference", "harness.replay",
    },
    "fn_study": {
        "integrate.state", "integrate.sensitivity", "integrate.grid",
        "stochastic.residual_system", "optimize.solver", "observe.objective",
        "observe.simulate", "modify.apply", "harness.reference", "harness.study",
    },
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(2.0)

    def failing():
        clock.advance(0.5)
        raise ValueError

    inner = tracer.span("inner", inner)
    failing = tracer.span("inner", failing)

    def outer():
        clock.advance(1.0)
        inner()
        with pytest.raises(ValueError):
            failing()
        clock.advance(3.0)

    tracer.span("outer", outer)()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s["inner"] == 2.5
    assert tracer.self_s["outer"] == 4.0


def test_replaces_every_binding_and_restores_them():
    import hfda

    integrate_module = importlib.import_module("hfda.integrate")
    observe = importlib.import_module("hfda.observe")
    stochastic = importlib.import_module("hfda.stochastic")
    _, _, sensitivity = resolve("hfda.integrate:integrate_augmented_sensitivity")
    _, _, draw = resolve("hfda.stochastic:Sampler.draw")
    integrate_fn = integrate_module.integrate

    with Tracer():
        assert observe.integrate_augmented_sensitivity is not sensitivity
        assert stochastic.integrate_augmented_sensitivity is observe.integrate_augmented_sensitivity
        # the package attribute `integrate` is the function, not the module
        assert hfda.integrate is integrate_module.integrate is not integrate_fn
        assert stochastic.Sampler.draw is not draw
    assert observe.integrate_augmented_sensitivity is sensitivity
    assert stochastic.integrate_augmented_sensitivity is sensitivity
    assert hfda.integrate is integrate_fn and integrate_module.integrate is integrate_fn
    assert stochastic.Sampler.__dict__["draw"] is draw


def test_warm_reference_cache_fails_the_convergence_check(tmp_path):
    workload = LvSampled(1234, SMOKE, clock=None)
    state = workload.setup(str(tmp_path))
    assert state["converged"]
    _, converged, _ = _reference_fit(state["config"], state["problem"], str(tmp_path))
    assert not converged


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1234", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _check_shape(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_untraced_smoke_run(capsys, workload):
    code, result = _run(capsys, workload, trace=0)
    assert code == 0
    _check_shape(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(FIRES))
def test_traced_smoke_run_fires_its_spans(capsys, workload):
    code, result = _run(capsys, workload, trace=1)
    assert code == 0
    _check_shape(result, BENCHMARK["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for span in SPANS:
        fired = metrics[f"{span}.calls"] >= 1
        assert fired == (span in FIRES[workload]), span
    for counter in ("dynamics.rhs_calls", "dynamics.jac_calls", "optimize.iterations", "integrate.steps"):
        assert metrics[counter] >= 1, counter


def test_every_span_fires_on_some_workload():
    assert set().union(*FIRES.values()) == set(SPANS)


def test_failed_check_clears_correct_and_exit_code(capsys, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "GRADIENT_AGREEMENT", -1.0)
    code, result = _run(capsys, "fn_full", trace=0)
    assert code == 1 and result["correct"] is False
