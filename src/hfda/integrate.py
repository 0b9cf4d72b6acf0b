"""Fixed-step Ralston fourth-order Runge-Kutta integration.

There are three step loops.  The generic one, ``integrate``, advances any
system over a ``TimeGrid`` and is the reference oracle for the model path;
``integrate_with_sensitivity`` is ``integrate`` on the variational system,
whose Jacobian is evaluated at the Runge-Kutta stage states, which makes the
propagated matrix the exact derivative of the discrete flow map.

The model-path loops step only the physical block of a ``ModelSpec``, one
trajectory on Python floats (numpy's per-operation overhead would dominate
on d-component arrays).  One forward loop serves ``integrate_augmented``
(states; a batch of theta runs on component arrays) and
``integrate_augmented_sensitivity`` (states and the d x q tangent, carried
as one more component).  ``integrate_adjoint`` is the reverse sweep of the
same discrete flow: it transposes the stage recursion step by step,
re-running the forward stages to recover intra-step states, and adds
impulse vectors at designated nodes on the earlier side of the node.

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


def _request(request_nodes: Array, grid: TimeGrid) -> Array:
    """Sorted, unique node indices; raises if one is not a node of the grid."""
    request = np.unique(np.asarray(request_nodes, dtype=int))
    if request.size and (request[0] < 0 or request[-1] > grid.n_steps):
        raise ValueError("requested nodes outside the grid")
    return request


def integrate(system, z0: Array, grid: TimeGrid) -> Trajectory:
    """Advance z0 over the grid, one Ralston-RK4 step per node pair.

    ``system`` is either an object exposing ``rhs(t, z)`` or the rhs callable
    itself.  ``z0`` may carry leading batch dimensions.  The integration
    aborts with ``DivergenceError`` at the first non-finite state.
    """
    global _step_count
    rhs = _rhs_of(system)
    z = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z)):
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
            if not np.all(np.isfinite(z)):
                raise DivergenceError(j + 1, float(nodes[j + 1]))
            states[j + 1] = z
    return Trajectory(grid=grid, states=states)


def integrate_with_sensitivity(
    system, z0: Array, grid: TimeGrid, request_nodes: Array
) -> SensitivityTrajectory:
    """Advance the state and its derivative with respect to z0 together.

    This is ``integrate`` on the variational system (z, X)' = (F(z), J(z) X)
    from (z0, I), X flattened into the state.  Runge-Kutta stages of that
    system evaluate the Jacobian at the stage states of z, so the recorded
    matrices are the exact derivatives of the discrete flow.  A non-finite
    entry of z or X raises ``DivergenceError``.
    """
    rhs, jac = system.rhs, system.jac
    z0 = np.asarray(z0, dtype=float)
    q = z0.shape[-1]
    request = _request(request_nodes, grid)

    def variational(t, y):
        z = y[:q]
        return np.concatenate([rhs(t, z), (jac(t, z) @ y[q:].reshape(q, q)).ravel()])

    states = integrate(variational, np.concatenate([z0, np.eye(q).ravel()]), grid).states
    sens = states[request, q:].reshape(-1, q, q)
    return SensitivityTrajectory(Trajectory(grid, states[:, :q]), request, sens)


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


def _sweep(model: ModelSpec, theta: Array, grid: TimeGrid, request: Array | None = None):
    """(states, sens): the forward loop of ``integrate_augmented`` and
    ``integrate_augmented_sensitivity``.  With ``request`` (1-D theta only)
    the d x q tangent S rides along as one more component, its slope
    f_x S + [0 | f_p] taken at the state stages, and is recorded at the
    requested nodes; otherwise sens is None."""
    global _step_count
    theta = np.asarray(theta, dtype=float)
    d, q = model.d, model.q
    check = theta.ndim == 1
    if check and not np.all(np.isfinite(theta)):
        raise DivergenceError(0, grid.t0)
    floats = theta.size == theta.shape[-1]
    comps = theta.ravel().tolist() if floats else list(np.moveaxis(theta, -1, 0))
    y, params = comps[:d], comps[d:]
    # node-major and flat; a float trajectory is stored as raw doubles
    states = array("d", y) if floats else list(y)
    rhs, sens = model.rhs, None
    pos = n_request = 0
    if request is not None:
        model_rhs, jac_x, jac_p = model.rhs, model.jac_x, model.jac_p

        def rhs(t_s: float, y_s: list, params: list) -> tuple:
            x_s = y_s[:d]
            kk = np.array(jac_x(t_s, x_s, params)) @ y_s[d]
            kk[:, d:] += np.array(jac_p(t_s, x_s, params))
            return (*model_rhs(t_s, x_s, params), kk)

        s = np.zeros((d, q))
        s[:, :d] = np.eye(d)
        y.append(s)
        n_request = len(request)
        sens = np.empty((n_request, d, q))
        if n_request and request[0] == 0:
            sens[0] = s
            pos = 1
    nodes = grid.nodes.tolist()
    with np.errstate(all="ignore"):
        for j in range(len(nodes) - 1):
            t, h = nodes[j], nodes[j + 1] - nodes[j]
            try:
                _, y = _stages(rhs, t, h, y, params)
            except ZeroDivisionError:
                y = [math.nan] * d
            _step_count += 1
            x = y[:d]
            if check and not all(map(math.isfinite, x)):
                raise DivergenceError(j + 1, nodes[j + 1])
            states.extend(x)
            if pos < n_request and request[pos] == j + 1:
                sens[pos] = y[d]
                pos += 1
    if floats:
        states = np.array(states).reshape((len(nodes),) + theta.shape[:-1] + (d,))
    else:
        states = np.moveaxis(np.array(states).reshape((len(nodes), d) + theta.shape[:-1]), 1, -1)
    return states, sens


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
    return _sweep(model, theta, grid)[0]


def integrate_augmented_sensitivity(
    model: ModelSpec, theta: Array, grid: TimeGrid, request_nodes: Array
) -> tuple[Array, Array, Array]:
    """Physical states plus the physical rows of the flow derivative.

    The lower (parameter) rows of the augmented sensitivity stay [0 I]
    forever, so only the top d x q block is propagated, as one more
    component of the state sweep.  Returns (states (n_nodes, d), request,
    sens_top (len(request), d, q)), where sens_top rows match
    ``integrate_with_sensitivity`` on the augmented system.
    """
    request = _request(request_nodes, grid)
    states, sens = _sweep(model, theta, grid, request)
    return states, request, sens


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
