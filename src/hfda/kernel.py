"""Compiled Ralston sweeps, generated by tracing the model functions.

Model functions use only ``+ - * /`` and negation on their components (see
``dynamics``).  Called once on ``Var`` recorders, the Python step code of
``integrate`` (``_stages`` for a state step, ``_adjoint_step`` for a step of
the adjoint) therefore records its exact expression DAG: one C statement per
Python operation, in evaluation order, with constants written as hex float
literals.  Built with ``-ffp-contract=off``, the C sweeps return the same
bits as the Python loops.  The one forward sweep writes either the states
or, in their place, each observation's weighted loss term; that code is
written by hand in the operation order of ``observe._loss_values``, with the
observation dimension a run-time argument, and returns its bits too.

The emitted code flags every zero divisor.  A checked pass (one trajectory)
stops at the end node of such a step, where a Python float division raises
``ZeroDivisionError``; a batch divides as IEEE arithmetic does, as numpy
does on component arrays.

``sweeps(model)`` builds the library once per process for each set of
model functions and returns None when no C compiler is found (it warns once)
or the model cannot be traced (a branch or comparison on a value, ``**``, a
``math`` call); ``integrate`` then runs its Python loops, which are also the
oracle the tests compare against.
"""
from __future__ import annotations

import ctypes
import math
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .dynamics import ModelSpec

Array = np.ndarray

CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_FALLBACK = "hfda.kernel: no compiled sweeps, running the Python loops"


class Var:
    """A double of a traced computation, named by its C expression."""

    __slots__ = ("trace", "name")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, trace: "_Trace", name: str):
        self.trace, self.name = trace, name

    def __add__(self, other):
        return self.trace.op(self, "+", other)

    def __radd__(self, other):
        return self.trace.op(other, "+", self)

    def __sub__(self, other):
        return self.trace.op(self, "-", other)

    def __rsub__(self, other):
        return self.trace.op(other, "-", self)

    def __mul__(self, other):
        return self.trace.op(self, "*", other)

    def __rmul__(self, other):
        return self.trace.op(other, "*", self)

    def __truediv__(self, other):
        return self.trace.op(self, "/", other)

    def __rtruediv__(self, other):
        return self.trace.op(other, "/", self)

    def __neg__(self):
        return self.trace.emit(f"-{self.name}")

    def __bool__(self):
        raise TypeError("a traced value has no truth value")

    def _compare(self, other):
        raise TypeError("traced values cannot be compared")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compare


def _c(value) -> str:
    """C spelling of an operand: a traced name or a hex float literal.
    Only Python numbers are constants: a numpy scalar divides by zero
    without raising, so a model that uses one keeps the Python loops."""
    if isinstance(value, Var):
        return value.name
    if type(value) in (int, float) and math.isfinite(value):
        return f"({float(value).hex()})"
    raise TypeError(f"cannot trace an operand of type {type(value).__name__}")


class _Trace:
    """The C statements recorded so far, one per operation."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, expr: str, divisor: str | None = None) -> Var:
        name = f"v{len(self.lines)}"
        flag = "" if divisor is None else f" zd |= {divisor} == 0.0;"
        self.lines.append(f"const double {name} = {expr};{flag}")
        return Var(self, name)

    def op(self, a, symbol: str, b) -> Var:
        a, b = _c(a), _c(b)
        return self.emit(f"{a} {symbol} {b}", b if symbol == "/" else None)


def _c_step(name: str, step, model: ModelSpec, n_out: int) -> str:
    """A C function ``int name(t, h, x, p, c, y)`` writing step(t, h, x, p, c)
    to y and returning whether a divisor was zero."""
    trace = _Trace()
    t, h = Var(trace, "t"), Var(trace, "h")
    x = [Var(trace, f"x[{i}]") for i in range(model.d)]
    params = [Var(trace, f"p[{k}]") for k in range(model.p)]
    chi = [Var(trace, f"c[{i}]") for i in range(model.q)]
    out = step(t, h, x, params, chi)
    if len(out) != n_out:
        raise TypeError(f"a traced step returned {len(out)} values, not {n_out}")
    body = trace.lines + [f"y[{i}] = {_c(v)};" for i, v in enumerate(out)]
    return (
        f"static inline int {name}(const double t, const double h, const double *x,\n"
        f"    const double *p, const double *c, double *y)\n"
        "{\n    int zd = 0;\n    " + "\n    ".join(body) + "\n    return zd;\n}\n"
    )


# The sweeps around the traced steps.  hfda_forward runs K trajectories from
# the rows of theta (K x Q).  With check it returns the end node j + 1 of the
# first step that divided by zero or left a non-finite state; without it
# every step divides as IEEE arithmetic does.  Without terms it writes every
# state to out (n x K x D); with terms it writes no state but, at the node
# obs[i] of each observation i (obs nondecreasing), its weighted loss term to
# terms (N x K), component by component and in the order of
# ``observe._loss_values``: r = y - H x, u_a = sum_b r_b Vinv_ba,
# quad = sum_a u_a r_a, each sum left to right from its first product, and
# w (0.5 quad).  The observation dimension M is an argument, so one library
# serves every observation model.  hfda_adjoint runs the costate
# (lambda, mu) back from zero, adding row j of impulses (n x D) to lambda at
# every node j, and returns the node j + 1 of a step with a zero divisor.
_SWEEPS = """
static double half_quad(long M, const double *H, const double *Vinv,
    const double *y, const double *x)
{
    double r[M], quad = 0.0;
    for (long a = 0; a < M; ++a) {
        double s = H[a * D] * x[0];
        for (int c = 1; c < D; ++c)
            s = s + H[a * D + c] * x[c];
        r[a] = y[a] - s;
    }
    for (long a = 0; a < M; ++a) {
        double u = r[0] * Vinv[a];
        for (long b = 1; b < M; ++b)
            u = u + r[b] * Vinv[b * M + a];
        quad = a ? quad + u * r[a] : u * r[a];
    }
    return 0.5 * quad;
}

long hfda_forward(long n, const double *nodes, long K, const double *theta,
    int check, double *out, long N, const long *obs, const double *y,
    const double *w, long M, const double *H, const double *Vinv, double *terms)
{
    for (long k = 0; k < K; ++k) {
        const double *p = theta + k * Q + D;
        double x[D], next[D];
        long i = 0;
        for (int c = 0; c < D; ++c)
            x[c] = theta[k * Q + c];
        for (long j = 0;; ++j) {
            if (terms)
                for (; i < N && obs[i] == j; ++i)
                    terms[i * K + k] = w[i] * half_quad(M, H, Vinv, y + i * M, x);
            else
                for (int c = 0; c < D; ++c)
                    out[(j * K + k) * D + c] = x[c];
            if (j + 1 == n)
                break;
            if (state_step(nodes[j], nodes[j + 1] - nodes[j], x, p, 0, next) && check)
                return j + 1;
            for (int c = 0; c < D; ++c) {
                if (check && !__builtin_isfinite(next[c]))
                    return j + 1;
                x[c] = next[c];
            }
        }
    }
    return 0;
}

long hfda_adjoint(long n, const double *nodes, const double *theta,
    const double *states, const double *impulses, double *chi)
{
    double next[Q];
    for (int i = 0; i < Q; ++i)
        chi[i] = 0.0;
    for (long j = n - 1; j >= 0; --j) {
        if (j + 1 < n) {
            if (adjoint_step(nodes[j], nodes[j + 1] - nodes[j], states + j * D,
                    theta + D, chi, next))
                return j + 1;
            for (int i = 0; i < Q; ++i)
                chi[i] = next[i];
        }
        for (int i = 0; i < D; ++i)
            chi[i] = chi[i] + impulses[j * D + i];
    }
    return 0;
}
"""


def _source(model: ModelSpec) -> str:
    """The C source of the sweeps for ``model``; raises TypeError or
    ArithmeticError when the model functions cannot be traced."""
    from .integrate import _adjoint_step, _stages  # integrate imports this module

    def state(t, h, x, params, chi):
        return _stages(model.rhs, t, h, x, params)[1]

    def adjoint(t, h, x, params, chi):
        return _adjoint_step(model, t, h, x, params, chi)

    return (
        f"enum {{ D = {model.d}, Q = {model.q} }};\n\n"
        + _c_step("state_step", state, model, model.d)
        + _c_step("adjoint_step", adjoint, model, model.q)
        + _SWEEPS
    )


_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")


class Sweeps:
    """The compiled forward and adjoint sweeps of one model's functions."""

    def __init__(self, library: ctypes.CDLL, d: int, q: int):
        self.d, self.q = d, q
        self._library = library
        self._forward = library.hfda_forward
        # the output and observation arrays go as raw pointers, so that a
        # pass can leave null the ones it does not use
        self._forward.argtypes = [
            ctypes.c_long, _DOUBLES, ctypes.c_long, _DOUBLES, ctypes.c_int, ctypes.c_void_p,
            ctypes.c_long, *[ctypes.c_void_p] * 3, ctypes.c_long, *[ctypes.c_void_p] * 3,
        ]
        self._forward.restype = ctypes.c_long
        self._adjoint = library.hfda_adjoint
        self._adjoint.argtypes = [ctypes.c_long, _DOUBLES, _DOUBLES, _DOUBLES, _DOUBLES, _DOUBLES]
        self._adjoint.restype = ctypes.c_long

    def forward(
        self, nodes: Array, thetas: Array, check: bool, observed: tuple | None = None
    ) -> tuple[Array, int]:
        """(out, node) from the rows of ``thetas`` (K, q): the states
        (n_nodes, K, d), or with ``observed`` the weighted loss term (N, K)
        of every observation at its node.  ``observed`` is (nondecreasing
        grid nodes (N,), values (N, M), weights (N,), H (M, d), V^-1 (M, M)),
        as checked by ``integrate_loss_terms``.  ``node`` is 0, or with
        ``check`` the end node of the first step that divided by zero or left
        a non-finite state (the output from there on is not written)."""
        nodes = np.ascontiguousarray(nodes, dtype=float)
        thetas = np.ascontiguousarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.q:
            raise ValueError(f"thetas must have shape (K, {self.q}), got {thetas.shape}")
        if observed is None:
            out = np.empty((len(nodes), len(thetas), self.d))
            pointers = (out, 0, None, None, None, 0, None, None, None)
        else:
            obs_nodes = np.ascontiguousarray(observed[0], dtype=ctypes.c_long)
            values, weights, h_matrix, v_inv = (
                np.ascontiguousarray(a, dtype=float) for a in observed[1:]
            )
            out = np.empty((len(values), len(thetas)))
            pointers = (
                None, len(values), obs_nodes, values, weights, values.shape[1], h_matrix, v_inv, out
            )
        args = (a.ctypes.data if isinstance(a, np.ndarray) else a for a in pointers)
        node = self._forward(len(nodes), nodes, len(thetas), thetas, check, *args)
        return out, node

    def adjoint(
        self, nodes: Array, theta: Array, states: Array, impulses: Array
    ) -> tuple[Array, int]:
        """(chi (q,), node): the adjoint sweep from ``states`` and
        ``impulses``, both (n_nodes, d) and checked by ``integrate_adjoint``;
        ``node`` is 0, or the end node of the step that divided by zero."""
        arrays = [np.ascontiguousarray(a, dtype=float) for a in (nodes, theta, states, impulses)]
        chi = np.empty(self.q)
        node = self._adjoint(len(nodes), *arrays, chi)
        return chi, node


def _compile(compiler: str, source: str, model: ModelSpec) -> Sweeps | None:
    with tempfile.TemporaryDirectory(prefix="hfda-kernel-") as tmp:
        c_file, library = Path(tmp, "sweeps.c"), Path(tmp, "sweeps.so")
        c_file.write_text(source)
        command = [compiler, *CFLAGS, "-o", str(library), str(c_file)]
        try:
            subprocess.run(command, check=True, capture_output=True, text=True)
            return Sweeps(ctypes.CDLL(str(library)), model.d, model.q)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            warnings.warn(f"{_FALLBACK}: {detail}")
            return None


# (rhs, jac_x, jac_p, d, p) -> Sweeps or None, and C source -> Sweeps
_BY_FUNCTIONS: dict[tuple, Sweeps | None] = {}
_BY_SOURCE: dict[str, Sweeps | None] = {}
_warned_no_compiler = False  # a missing compiler is reported once per process


def sweeps(model: ModelSpec) -> Sweeps | None:
    """The compiled sweeps of ``model``'s functions, or None when no C
    compiler is on PATH or the functions cannot be traced."""
    key = (model.rhs, model.jac_x, model.jac_p, model.d, model.p)
    if key not in _BY_FUNCTIONS:
        _BY_FUNCTIONS[key] = _build(model)
    return _BY_FUNCTIONS[key]


def _build(model: ModelSpec) -> Sweeps | None:
    global _warned_no_compiler
    compiler = shutil.which("cc")
    if compiler is None:
        if not _warned_no_compiler:
            _warned_no_compiler = True
            warnings.warn(f"{_FALLBACK}: no C compiler (cc) on PATH")
        return None
    try:
        source = _source(model)
    except (TypeError, ArithmeticError):
        return None  # the model branches on a value or uses an untraceable operation
    if source not in _BY_SOURCE:
        _BY_SOURCE[source] = _compile(compiler, source, model)
    return _BY_SOURCE[source]
