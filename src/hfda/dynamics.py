"""ODE models and the augmented-state construction.

Each model is a ``ModelSpec``: a right-hand side f(t, x, params) with analytic
Jacobians with respect to the state and the parameters, a baseline initial
state, and a reference parameter vector.  ``augment`` folds the parameters
into the initial condition, turning parameter estimation into the problem of
choosing the initial value of an enlarged state vector.

Model functions are component-wise: ``x`` is a sequence of d components and
``params`` a sequence of p components, each a float or an array, all of one
shape.  ``rhs`` returns a d-tuple, ``jac_x`` a d x d and ``jac_p`` a d x p
nested tuple (rows are components of f).  The expressions use only
``+ - * /``, so a float evaluation and every element of a batched one give
the same bits.  ``eval_rhs`` and ``eval_jacobians`` adapt them to and from
last-axis ``(..., d)`` arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray
Components = Sequence  # of floats or same-shape arrays


@dataclass(frozen=True)
class ModelSpec:
    """A named ODE model dx/dt = f(t, x, params).

    Attributes:
        name: registry identifier.
        d: state dimension.
        p: parameter dimension.
        rhs: (t, x, params) -> dx/dt as d components.
        jac_x: (t, x, params) -> df/dx as d rows of d components.
        jac_p: (t, x, params) -> df/dparams as d rows of p components.
        x0: baseline initial state, shape (d,).
        params_ref: reference ("true") parameter vector, shape (p,).
        t_span: integration interval (t0, t_end).
    """

    name: str
    d: int
    p: int
    rhs: Callable[[float, Components, Components], tuple]
    jac_x: Callable[[float, Components, Components], tuple]
    jac_p: Callable[[float, Components, Components], tuple]
    x0: Array
    params_ref: Array
    t_span: tuple[float, float]

    def __post_init__(self) -> None:
        if self.d < 1 or self.p < 1:
            raise ValueError("model dimensions must satisfy d >= 1 and p >= 1")
        t0, t_end = self.t_span
        if not t_end > t0:
            raise ValueError("t_span must satisfy t_end > t0")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "params_ref", np.asarray(self.params_ref, dtype=float))
        if self.x0.shape != (self.d,):
            raise ValueError(f"x0 must have shape ({self.d},)")
        if self.params_ref.shape != (self.p,):
            raise ValueError(f"params_ref must have shape ({self.p},)")

    @property
    def q(self) -> int:
        """Augmented dimension d + p."""
        return self.d + self.p

    def theta_ref(self) -> Array:
        """Reference augmented initial condition concat(x0, params_ref)."""
        return np.concatenate([self.x0, self.params_ref])


@dataclass(frozen=True)
class AugmentedSystem:
    """Parameter-free system dz/dt = F(t, z) on the augmented state z = (x, params).

    The parameter block of the derivative is identically zero, and the Jacobian
    has block form [[f_x, f_p], [0, 0]].
    """

    model: ModelSpec
    q: int

    def split(self, z: Array) -> tuple[Array, Array]:
        """Split an augmented state into (physical state, parameters)."""
        return z[..., : self.model.d], z[..., self.model.d :]

    def rhs(self, t: float, z: Array) -> Array:
        x, params = self.split(z)
        return np.concatenate([eval_rhs(self.model, t, x, params), np.zeros_like(params)], axis=-1)

    def jac(self, t: float, z: Array) -> Array:
        x, params = self.split(z)
        d = self.model.d
        fx, fp = eval_jacobians(self.model, t, x, params)
        jac = np.zeros(z.shape + (self.q,))
        jac[..., :d, :d] = fx
        jac[..., :d, d:] = fp
        return jac


def _components(model: ModelSpec, x: Array, params: Array) -> tuple[list, list, tuple]:
    """Component lists of (..., d) states and (..., p) parameters, and their
    common batch shape; unbatched inputs become Python floats."""
    x, params = np.asarray(x, dtype=float), np.asarray(params, dtype=float)
    if x.shape[-1:] != (model.d,) or params.shape[-1:] != (model.p,):
        raise ValueError(
            f"state and params must have {model.d} and {model.p} components, "
            f"got shapes {x.shape} and {params.shape}"
        )
    if x.ndim == 1 and params.ndim == 1:
        return x.tolist(), params.tolist(), ()
    shape = x.shape[:-1]
    if params.shape[:-1] != shape:
        shape = np.broadcast_shapes(shape, params.shape[:-1])
        x = np.broadcast_to(x, shape + (model.d,))
        params = np.broadcast_to(params, shape + (model.p,))
    return [x[..., i] for i in range(model.d)], [params[..., k] for k in range(model.p)], shape


def _to_array(entries, shape: tuple, tail: tuple) -> Array:
    """Array of shape ``shape + tail`` from (nested) component entries."""
    if not shape:
        return np.array(entries, dtype=float)
    flat = entries if len(tail) == 1 else [e for row in entries for e in row]
    out = np.empty(shape + (len(flat),))
    for i, value in enumerate(flat):
        out[..., i] = value
    return out.reshape(shape + tail)


def eval_rhs(model: ModelSpec, t: float, x: Array, params: Array) -> Array:
    """f(t, x, params) for (..., d) states and (..., p) parameters, as a
    (..., d) array."""
    xs, ps, shape = _components(model, x, params)
    return _to_array(model.rhs(t, xs, ps), shape, (model.d,))


def eval_jacobians(model: ModelSpec, t: float, x: Array, params: Array) -> tuple[Array, Array]:
    """(df/dx, df/dparams) as (..., d, d) and (..., d, p) arrays."""
    xs, ps, shape = _components(model, x, params)
    fx = _to_array(model.jac_x(t, xs, ps), shape, (model.d, model.d))
    fp = _to_array(model.jac_p(t, xs, ps), shape, (model.d, model.p))
    return fx, fp


def augment(model: ModelSpec) -> AugmentedSystem:
    """Fold parameters into the state: z = (x, params), dz/dt = (f, 0)."""
    return AugmentedSystem(model=model, q=model.q)


# ---------------------------------------------------------------------------
# Model definitions
# ---------------------------------------------------------------------------


def _fn_rhs(t, x, params):
    # dv/dt = v - v^3/3 - w + ii
    # dw/dt = (v - a - b*w) / tau
    v, w = x
    ii, a, b, tau = params
    return (v - v * v * v / 3.0 - w + ii, (v - a - b * w) / tau)


def _fn_jac_x(t, x, params):
    v, _ = x
    _, _, b, tau = params
    return ((1.0 - v * v, -1.0), (1.0 / tau, -b / tau))


def _fn_jac_p(t, x, params):
    v, w = x
    _, a, b, tau = params
    return (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, -1.0 / tau, -w / tau, -(v - a - b * w) / (tau * tau)),
    )


def _lv_rhs(t, x, params):
    # du/dt = alpha*u - beta*u*v
    # dv/dt = delta*u*v - gamma*v
    u, v = x
    alpha, beta, delta, gamma = params
    return (alpha * u - beta * u * v, delta * u * v - gamma * v)


def _lv_jac_x(t, x, params):
    u, v = x
    alpha, beta, delta, gamma = params
    return ((alpha - beta * v, -beta * u), (delta * v, delta * u - gamma))


def _lv_jac_p(t, x, params):
    u, v = x
    return ((u, -u * v, 0.0, 0.0), (0.0, 0.0, u * v, -v))


def _vdp_rhs(t, x, params):
    # dx1/dt = x2
    # dx2/dt = mu*(1 - x1^2)*x2 - x1
    x1, x2 = x
    (mu,) = params
    return (x2, mu * (1.0 - x1 * x1) * x2 - x1)


def _vdp_jac_x(t, x, params):
    x1, x2 = x
    (mu,) = params
    return ((0.0, 1.0), (-2.0 * mu * x1 * x2 - 1.0, mu * (1.0 - x1 * x1)))


def _vdp_jac_p(t, x, params):
    x1, x2 = x
    return ((0.0,), ((1.0 - x1 * x1) * x2,))


def fitzhugh_nagumo() -> ModelSpec:
    """Relaxation oscillator for neuronal excitability; params (ii, a, b, tau)."""
    return ModelSpec(
        name="fitzhugh_nagumo",
        d=2,
        p=4,
        rhs=_fn_rhs,
        jac_x=_fn_jac_x,
        jac_p=_fn_jac_p,
        x0=np.array([-1.0, 1.0]),
        params_ref=np.array([0.5, 0.7, 0.8, 12.5]),
        t_span=(0.0, 50.0),
    )


def lotka_volterra() -> ModelSpec:
    """Predator-prey model; params (alpha, beta, delta, gamma)."""
    return ModelSpec(
        name="lotka_volterra",
        d=2,
        p=4,
        rhs=_lv_rhs,
        jac_x=_lv_jac_x,
        jac_p=_lv_jac_p,
        x0=np.array([1.0, 1.0]),
        params_ref=np.array([0.67, 1.33, 1.0, 1.0]),
        t_span=(0.0, 10.0),
    )


def van_der_pol() -> ModelSpec:
    """Relaxation oscillator in first-order form; scalar damping parameter mu."""
    return ModelSpec(
        name="van_der_pol",
        d=2,
        p=1,
        rhs=_vdp_rhs,
        jac_x=_vdp_jac_x,
        jac_p=_vdp_jac_p,
        x0=np.array([2.0, 0.0]),
        params_ref=np.array([1.0]),
        t_span=(0.0, 10.0),
    )


def linear_system(a: Array, b: Array, x0: Array, t_span: tuple[float, float]) -> ModelSpec:
    """Linear test model dx/dt = A x + B params.

    The flow is affine in the augmented initial condition, so least-squares
    fits against it have closed-form solutions.  Used as a test model;
    not registered for CLI lookup.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d, p = b.shape
    if a.shape != (d, d):
        raise ValueError("A must be square and compatible with B")

    a_rows = tuple(map(tuple, a.tolist()))
    b_rows = tuple(map(tuple, b.tolist()))

    def rhs(t, x, params):
        return tuple(
            sum(map(mul, a_row, x)) + sum(map(mul, b_row, params))
            for a_row, b_row in zip(a_rows, b_rows)
        )

    def jac_x(t, x, params):
        return a_rows

    def jac_p(t, x, params):
        return b_rows

    return ModelSpec(
        name="linear",
        d=d,
        p=p,
        rhs=rhs,
        jac_x=jac_x,
        jac_p=jac_p,
        x0=np.asarray(x0, dtype=float),
        params_ref=np.zeros(p),
        t_span=t_span,
    )


_REGISTRY: dict[str, Callable[[], ModelSpec]] = {
    "fitzhugh_nagumo": fitzhugh_nagumo,
    "lotka_volterra": lotka_volterra,
    "van_der_pol": van_der_pol,
}

MODEL_NAMES = tuple(sorted(_REGISTRY))


def get_model(name: str) -> ModelSpec:
    """Look up a registered model by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}") from None
    return factory()
