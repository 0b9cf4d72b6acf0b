"""Fixed-step Ralston fourth-order Runge-Kutta integration.

The generic entry points take any augmented system and are the reference
oracles for the model path:

* ``integrate`` advances an augmented system over a ``TimeGrid``.
* ``integrate_with_sensitivity`` jointly advances the state and the q x q
  derivative of the state with respect to the initial condition.  The
  Jacobian is evaluated at the Runge-Kutta stage states, which makes the
  propagated matrix the exact derivative of the discrete flow map.

The model-path sweeps step only the physical block of a ``ModelSpec``, one
trajectory on Python floats (numpy's per-operation overhead would dominate
on d-component arrays): ``integrate_augmented`` (states; a batch of theta
runs on component arrays), ``integrate_augmented_sensitivity`` (states and
the d x q tangent) and ``integrate_adjoint`` (the reverse sweep of the same
discrete flow: it transposes the stage recursion step by step, re-running
the forward stages to recover intra-step states, and adds impulse vectors
at designated nodes on the earlier side of the node).

Grids are built so that every observation time is exactly one of the nodes;
integration never steps across an observation time.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import mul

import numpy as np

from .dynamics import ModelSpec

Array = np.ndarray

# Ralston's minimum-truncation-error fourth-order tableau, in exact sqrt(5)
# form (the commonly tabulated 8-digit decimals round these).
_S5 = math.sqrt(5.0)
C2 = 0.4
C3 = (14.0 - 3.0 * _S5) / 16.0
A21 = 0.4
A31 = (-2889.0 + 1428.0 * _S5) / 1024.0
A32 = (3785.0 - 1620.0 * _S5) / 1024.0
A41 = (-3365.0 + 2094.0 * _S5) / 6040.0
A42 = (-975.0 - 3046.0 * _S5) / 2552.0
A43 = (467040.0 + 203968.0 * _S5) / 240845.0
B1 = (263.0 + 24.0 * _S5) / 1812.0
B2 = (125.0 - 1000.0 * _S5) / 3828.0
B3 = 1024.0 * (3346.0 + 1623.0 * _S5) / 5924787.0
B4 = (30.0 - 4.0 * _S5) / 123.0


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, node_index: int, time: float):
        super().__init__(f"non-finite state at node {node_index} (t = {time:g})")
        self.node_index = node_index
        self.time = time


# Process-global step counter; instrumentation for cost-contract assertions
# only, not part of the numerical contract.
_step_count = 0


def reset_step_count() -> None:
    global _step_count
    _step_count = 0


def step_count() -> int:
    return _step_count


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing integration nodes with an observation-node map.

    Attributes:
        nodes: node times, nodes[0] = t0.
        h: nominal step size used to build the regular part of the grid.
        obs_node: node index of each observation time the grid was built
            from (parallel to the ``obs_times`` argument of the builder).
    """

    nodes: Array
    h: float
    obs_node: Array

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    def node_index(self, times: Array) -> Array:
        """Map times to node indices; raises if a time is not a grid node."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        idx = np.searchsorted(self.nodes, times)
        idx = np.clip(idx, 0, len(self.nodes) - 1)
        if not np.array_equal(self.nodes[idx], times):
            bad = times[self.nodes[idx] != times][0]
            raise ValueError(f"time {bad!r} is not a grid node")
        return idx


def build_grid(t_span: tuple[float, float], h: float, obs_times: Array) -> TimeGrid:
    """Union of a regular step-h grid with observation times.

    Observation times within 1e-9 * |t_end| of a regular node are snapped to
    it (the node adopts the observation's float value, so observation times
    always match their node bitwise); all others are inserted, shortening
    a step.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    if t_end <= t0:
        raise ValueError("t_span must satisfy t_end > t0")
    obs_times = np.asarray(obs_times, dtype=float)
    if obs_times.size and (obs_times[0] < t0 or obs_times[-1] > t_end):
        raise ValueError("observation times must lie within t_span")
    if obs_times.size and np.any(np.diff(obs_times) <= 0):
        raise ValueError("observation times must be strictly increasing")

    tol = 1e-9 * max(abs(t_end), t_end - t0)
    n_whole = int(math.floor((t_end - t0) / h + 1e-12))
    reg = t0 + h * np.arange(n_whole + 1)
    if t_end - reg[-1] > tol:
        reg = np.append(reg, t_end)  # final, shorter step
    else:
        reg[-1] = t_end

    nodes = reg.copy()
    snapped = np.zeros(len(nodes), dtype=bool)
    inserts = []
    for t_obs in obs_times:
        j = int(np.clip(np.searchsorted(nodes, t_obs), 1, len(nodes) - 1))
        j = j if abs(nodes[j] - t_obs) <= abs(nodes[j - 1] - t_obs) else j - 1
        if abs(nodes[j] - t_obs) <= tol and not snapped[j]:
            nodes[j] = t_obs  # node adopts the observation's float value
            snapped[j] = True
        else:
            inserts.append(t_obs)
    if inserts:
        nodes = np.sort(np.concatenate([nodes, np.asarray(inserts)]))
    if np.any(np.diff(nodes) <= 0):
        raise ValueError("grid construction produced non-increasing nodes")

    grid = TimeGrid(nodes=nodes, h=h, obs_node=np.empty(0, dtype=int))
    obs_node = grid.node_index(obs_times) if obs_times.size else np.empty(0, dtype=int)
    return TimeGrid(nodes=nodes, h=h, obs_node=obs_node)


def grid_from_times(t0: float, times: Array, h: float = 0.0) -> TimeGrid:
    """Grid whose nodes are t0 followed by the given times (no regular part).

    This is the coarse grid used by sampled gradients: one step per retained
    observation.
    """
    times = np.asarray(times, dtype=float)
    uniq = np.unique(times)
    if uniq.size and uniq[0] < t0:
        raise ValueError("times must not precede t0")
    nodes = uniq if uniq.size and uniq[0] == t0 else np.concatenate([[t0], uniq])
    grid = TimeGrid(nodes=nodes, h=h, obs_node=np.empty(0, dtype=int))
    obs_node = grid.node_index(times) if times.size else np.empty(0, dtype=int)
    return TimeGrid(nodes=nodes, h=h, obs_node=obs_node)


@dataclass(frozen=True)
class Trajectory:
    """States at every grid node; states[j] corresponds to grid.nodes[j]."""

    grid: TimeGrid
    states: Array


@dataclass(frozen=True)
class SensitivityTrajectory:
    """Trajectory plus d(state)/d(initial state) at requested nodes."""

    base: Trajectory
    request: Array  # node indices, sorted
    sens: Array  # (len(request), q, q)

    def sens_at(self, node_index: int) -> Array:
        pos = int(np.searchsorted(self.request, node_index))
        if pos >= len(self.request) or self.request[pos] != node_index:
            raise KeyError(f"no sensitivity recorded at node {node_index}")
        return self.sens[pos]


def _rhs_of(system):
    return system if callable(system) else system.rhs


def integrate(system, z0: Array, grid: TimeGrid, check: bool = True) -> Trajectory:
    """Advance z0 over the grid, one Ralston-RK4 step per node pair.

    ``system`` is either an object exposing ``rhs(t, z)`` or the rhs callable
    itself.  ``z0`` may carry leading batch dimensions.  With ``check`` the
    integration aborts with ``DivergenceError`` at the first non-finite
    state; without it, non-finite values propagate (batched evaluation of
    many initial conditions masks failures afterwards).
    """
    global _step_count
    rhs = _rhs_of(system)
    z = np.asarray(z0, dtype=float)
    if check and not np.all(np.isfinite(z)):
        raise DivergenceError(0, grid.t0)
    nodes = grid.nodes
    states = np.empty((len(nodes),) + z.shape)
    states[0] = z
    with np.errstate(all="ignore"):
        for j in range(len(nodes) - 1):
            t, h = nodes[j], nodes[j + 1] - nodes[j]
            k1 = rhs(t, z)
            k2 = rhs(t + C2 * h, z + (h * A21) * k1)
            k3 = rhs(t + C3 * h, z + h * (A31 * k1 + A32 * k2))
            k4 = rhs(t + h, z + h * (A41 * k1 + A42 * k2 + A43 * k3))
            z = z + h * (B1 * k1 + B2 * k2 + B3 * k3 + B4 * k4)
            _step_count += 1
            if check and not np.all(np.isfinite(z)):
                raise DivergenceError(j + 1, float(nodes[j + 1]))
            states[j + 1] = z
    return Trajectory(grid=grid, states=states)


def integrate_with_sensitivity(
    system, z0: Array, grid: TimeGrid, request_nodes: Array
) -> SensitivityTrajectory:
    """Advance the state and its derivative with respect to z0 together.

    The q x q matrix starts at the identity and is propagated through the
    same stages as the state, with the Jacobian evaluated at each stage
    state; the recorded matrices are therefore the exact derivatives of the
    discrete flow.
    """
    global _step_count
    rhs, jac = system.rhs, system.jac
    z = np.asarray(z0, dtype=float)
    q = z.shape[-1]
    request = np.unique(np.asarray(request_nodes, dtype=int))
    if request.size and (request[0] < 0 or request[-1] > grid.n_steps):
        raise ValueError("requested nodes outside the grid")

    nodes = grid.nodes
    states = np.empty((len(nodes), q))
    states[0] = z
    sens = np.empty((len(request), q, q))
    x = np.eye(q)
    pos = 0
    if request.size and request[0] == 0:
        sens[0] = x
        pos = 1
    with np.errstate(all="ignore"):
        for j in range(len(nodes) - 1):
            t, h = nodes[j], nodes[j + 1] - nodes[j]
            z1 = z
            k1 = rhs(t, z1)
            kk1 = jac(t, z1) @ x
            z2 = z + (h * A21) * k1
            k2 = rhs(t + C2 * h, z2)
            kk2 = jac(t + C2 * h, z2) @ (x + (h * A21) * kk1)
            z3 = z + h * (A31 * k1 + A32 * k2)
            k3 = rhs(t + C3 * h, z3)
            kk3 = jac(t + C3 * h, z3) @ (x + h * (A31 * kk1 + A32 * kk2))
            z4 = z + h * (A41 * k1 + A42 * k2 + A43 * k3)
            k4 = rhs(t + h, z4)
            kk4 = jac(t + h, z4) @ (x + h * (A41 * kk1 + A42 * kk2 + A43 * kk3))
            z = z + h * (B1 * k1 + B2 * k2 + B3 * k3 + B4 * k4)
            x = x + h * (B1 * kk1 + B2 * kk2 + B3 * kk3 + B4 * kk4)
            _step_count += 1
            if not np.all(np.isfinite(z)):
                raise DivergenceError(j + 1, float(nodes[j + 1]))
            states[j + 1] = z
            if pos < len(request) and request[pos] == j + 1:
                sens[pos] = x
                pos += 1
    traj = Trajectory(grid=grid, states=states)
    return SensitivityTrajectory(base=traj, request=request, sens=sens)


def _stages(rhs, t: float, h: float, x: list, params: list, advance: bool = True):
    """The stage states [x, x2, x3, x4] of one Ralston step from x and, with
    ``advance``, the state at the end of the step (else None, and the last
    slope is never evaluated).  Component lists of floats or same-shape
    arrays, in the operation order of ``integrate``."""
    k1 = rhs(t, x, params)
    a21 = h * A21
    x2 = [xi + a21 * a for xi, a in zip(x, k1)]
    k2 = rhs(t + C2 * h, x2, params)
    x3 = [xi + h * (A31 * a + A32 * b) for xi, a, b in zip(x, k1, k2)]
    k3 = rhs(t + C3 * h, x3, params)
    x4 = [xi + h * (A41 * a + A42 * b + A43 * c) for xi, a, b, c in zip(x, k1, k2, k3)]
    if not advance:
        return (x, x2, x3, x4), None
    k4 = rhs(t + h, x4, params)
    x_next = [
        xi + h * (B1 * a + B2 * b + B3 * c + B4 * e) for xi, a, b, c, e in zip(x, k1, k2, k3, k4)
    ]
    return (x, x2, x3, x4), x_next


def integrate_augmented(model: ModelSpec, theta: Array, grid: TimeGrid) -> Array:
    """Physical-state trajectory of the augmented system started at theta.

    The parameter block of the augmented state never changes, so only the
    physical block is stepped (bitwise identical to the corresponding rows
    of ``integrate`` on the full augmented system).  A 1-D theta raises
    ``DivergenceError`` at the first non-finite state, a division by zero
    included.  A batch of shape (..., q) is never checked: non-finite values
    propagate so the caller can mask them.  One trajectory (a 1-D theta or a
    batch of one) runs on Python floats, a larger batch on one array per
    component; both give the same bits.  Returns states of shape
    (n_nodes, ..., d).
    """
    global _step_count
    theta = np.asarray(theta, dtype=float)
    d = model.d
    check = theta.ndim == 1
    if check and not np.all(np.isfinite(theta)):
        raise DivergenceError(0, grid.t0)
    floats = theta.size == theta.shape[-1]
    comps = theta.ravel().tolist() if floats else list(np.moveaxis(theta, -1, 0))
    x, params = comps[:d], comps[d:]
    rhs = model.rhs
    nodes = grid.nodes.tolist()
    # node-major and flat; a float trajectory is stored as raw doubles
    states = array("d", x) if floats else list(x)
    with np.errstate(all="ignore"):
        for j in range(len(nodes) - 1):
            t, h = nodes[j], nodes[j + 1] - nodes[j]
            try:
                _, x = _stages(rhs, t, h, x, params)
            except ZeroDivisionError:
                x = [math.nan] * d
            _step_count += 1
            if check and not all(map(math.isfinite, x)):
                raise DivergenceError(j + 1, nodes[j + 1])
            states.extend(x)
    if floats:
        return np.array(states).reshape((len(nodes),) + theta.shape[:-1] + (d,))
    return np.moveaxis(np.array(states).reshape((len(nodes), d) + theta.shape[:-1]), 1, -1)


def integrate_augmented_sensitivity(
    model: ModelSpec, theta: Array, grid: TimeGrid, request_nodes: Array
) -> tuple[Array, Array, Array]:
    """Physical states plus the physical rows of the flow derivative.

    The lower (parameter) rows of the augmented sensitivity stay [0 I]
    forever, so only the top d x q block is propagated; its stage slopes are
    f_x S + [0 | f_p] evaluated at the state stages.  The state runs on
    Python floats, the d x q block as an array.  Returns (states
    (n_nodes, d), request, sens_top (len(request), d, q)), where sens_top
    rows match ``integrate_with_sensitivity`` on the augmented system.
    """
    global _step_count
    theta = np.asarray(theta, dtype=float)
    d, q = model.d, model.q
    comps = theta.tolist()
    x, params = comps[:d], comps[d:]
    rhs, jac_x, jac_p = model.rhs, model.jac_x, model.jac_p
    request = np.unique(np.asarray(request_nodes, dtype=int))
    if request.size and (request[0] < 0 or request[-1] > grid.n_steps):
        raise ValueError("requested nodes outside the grid")

    def slope(t_s: float, x_s: list, s_s: Array) -> Array:
        kk = np.array(jac_x(t_s, x_s, params)) @ s_s
        kk[:, d:] += np.array(jac_p(t_s, x_s, params))
        return kk

    nodes = grid.nodes.tolist()
    states = array("d", x)  # node-major, flat
    s = np.zeros((d, q))
    s[:, :d] = np.eye(d)
    sens = np.empty((len(request), d, q))
    pos = 0
    if request.size and request[0] == 0:
        sens[0] = s
        pos = 1
    with np.errstate(all="ignore"):
        for j in range(len(nodes) - 1):
            t, h = nodes[j], nodes[j + 1] - nodes[j]
            try:
                (x1, x2, x3, x4), x_next = _stages(rhs, t, h, x, params)
                kk1 = slope(t, x1, s)
                kk2 = slope(t + C2 * h, x2, s + (h * A21) * kk1)
                kk3 = slope(t + C3 * h, x3, s + h * (A31 * kk1 + A32 * kk2))
                kk4 = slope(t + h, x4, s + h * (A41 * kk1 + A42 * kk2 + A43 * kk3))
            except ZeroDivisionError:
                x_next = [math.nan] * d
            x = x_next
            _step_count += 1
            if not all(map(math.isfinite, x)):
                raise DivergenceError(j + 1, nodes[j + 1])
            s = s + h * (B1 * kk1 + B2 * kk2 + B3 * kk3 + B4 * kk4)
            states.extend(x)
            if pos < len(request) and request[pos] == j + 1:
                sens[pos] = s
                pos += 1
    return np.array(states).reshape(-1, d), request, sens


def integrate_adjoint(
    model: ModelSpec, theta: Array, grid: TimeGrid, states: Array, impulses: dict[int, Array]
) -> Array:
    """Backward sweep of the discrete adjoint on the physical block.

    ``states`` are the (n_nodes, d) states of ``integrate_augmented`` from
    theta and ``impulses`` maps node indices to d-vectors g_j; returns the
    (q,) gradient of sum_j g_j . x_j with respect to theta.  The adjoint is
    a costate lambda (d) plus a parameter accumulator mu (p), zero at the
    final node; an impulse is added to lambda after arriving at its node.
    Each backward step re-runs the forward stages of that step and
    transposes the stage recursion, the stage Jacobian [f_x | f_p] mapping
    lambda weights into both blocks.
    """
    global _step_count
    theta = np.asarray(theta, dtype=float)
    d = model.d
    rhs, jac_x, jac_p = model.rhs, model.jac_x, model.jac_p
    nodes = grid.nodes.tolist()
    n_nodes = len(nodes)
    for key in impulses:
        if not 0 <= key < n_nodes:
            raise ValueError(f"impulse node {key} is not a grid node index")
    params = theta[d:].tolist()
    xs = np.asarray(states, dtype=float).ravel().tolist()

    def kick(chi: list, g: Array) -> None:
        chi[:d] = [c + e for c, e in zip(chi, np.asarray(g, dtype=float).tolist())]

    def vjp(t_s: float, x_s: list, u: list) -> list:
        # [f_x | f_p]' u, rows of the stage Jacobian weighted by u
        rows = [rx + rp for rx, rp in zip(jac_x(t_s, x_s, params), jac_p(t_s, x_s, params))]
        return [sum(map(mul, column, u)) for column in zip(*rows)]

    chi = [0.0] * model.q  # (lambda, mu)
    if n_nodes - 1 in impulses:
        kick(chi, impulses[n_nodes - 1])
    for j in range(n_nodes - 2, -1, -1):
        t, h = nodes[j], nodes[j + 1] - nodes[j]
        lam = chi[:d]
        try:
            x_j = xs[j * d : (j + 1) * d]
            (x1, x2, x3, x4), _ = _stages(rhs, t, h, x_j, params, advance=False)
            v4 = vjp(t + h, x4, [(h * B4) * c for c in lam])
            v3 = vjp(t + C3 * h, x3, [(h * B3) * c + (h * A43) * e4 for c, e4 in zip(lam, v4)])
            u2 = [(h * B2) * c + h * (A32 * e3 + A42 * e4) for c, e3, e4 in zip(lam, v3, v4)]
            v2 = vjp(t + C2 * h, x2, u2)
            u1 = [
                (h * B1) * c + h * (A21 * e2 + A31 * e3 + A41 * e4)
                for c, e2, e3, e4 in zip(lam, v2, v3, v4)
            ]
            v1 = vjp(t, x1, u1)
        except ZeroDivisionError:
            _step_count += 1
            raise DivergenceError(j + 1, nodes[j + 1]) from None
        chi = [c + e1 + e2 + e3 + e4 for c, e1, e2, e3, e4 in zip(chi, v1, v2, v3, v4)]
        _step_count += 1
        if j in impulses:
            kick(chi, impulses[j])
    return np.array(chi)
