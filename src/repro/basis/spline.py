"""Natural cubic splines — the library's own implementation.

Cubic splines are the workhorse of the all-electron machinery: radial
basis functions, multipole densities (``rho_multipole_spl``) and partial
Hartree potentials (``delta_v_hart_part_spl``) are all stored as spline
coefficients, and the paper's locality strategy (Fig. 4/9(c)) and kernel
fusion (Fig. 12) are about who computes and who reuses these
coefficients.  We therefore implement them ourselves rather than hiding
the construction inside scipy, and we expose the coefficient-array
byte size that Fig. 12(a) reports.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class SplineSystem:
    """The half of a natural cubic spline that depends on the knots only.

    Holds the validated abscissae, the forward-elimination factors of
    the tridiagonal second-derivative system (Thomas algorithm) and the
    interval lookup.  Every spline on one mesh can share one system, so
    the factorisation and, through :meth:`weights`, the interpolation
    coefficients at fixed evaluation points are computed once.
    """

    def __init__(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] < 2:
            raise ValueError("spline needs at least two knots in a 1-D abscissa")
        h = np.diff(x)
        if np.any(h <= 0.0):
            raise ValueError("spline abscissae must be strictly increasing")
        self.x = x
        self.h = h
        # Tridiagonal system: sub = h[:-1], diag = 2(h[i]+h[i+1]), sup = h[1:]
        self._denom = 2.0 * (h[:-1] + h[1:])  # starts as diag
        self._c_prime = np.empty_like(self._denom)
        for i in range(x.shape[0] - 2):
            if i > 0:
                self._denom[i] -= h[i] * self._c_prime[i - 1]
            self._c_prime[i] = h[i + 1] / self._denom[i]

    @property
    def n_knots(self) -> int:
        return self.x.shape[0]

    def second_derivatives(self, y: np.ndarray) -> np.ndarray:
        """Second derivatives at the knots for natural boundary conditions.

        Vectorized over trailing axes of *y* (shape ``(n, ...)``); each
        trailing column sees the same operations whatever it is stacked
        with.
        """
        n = self.n_knots
        if y.shape[0] != n:
            raise ValueError(
                f"knot count mismatch: {n} abscissae, {y.shape[0]} ordinates"
            )
        h, denom, c_prime = self.h, self._denom, self._c_prime
        # Right-hand side: 6 * divided-difference of first derivatives.
        dy = np.diff(y, axis=0) / h.reshape(-1, *([1] * (y.ndim - 1)))
        rhs = 6.0 * np.diff(dy, axis=0)  # (n-2, ...)

        m = np.zeros_like(y)
        if n > 2:
            # Forward elimination.
            d_prime = np.empty((n - 2,) + y.shape[1:])
            d_prime[0] = rhs[0] / denom[0]
            for i in range(1, n - 2):
                d_prime[i] = (rhs[i] - h[i] * d_prime[i - 1]) / denom[i]
            # Back substitution into the interior knots.
            m[n - 2] = d_prime[n - 3]
            for i in range(n - 4, -1, -1):
                m[i + 1] = d_prime[i] - c_prime[i] * m[i + 2]
        return m

    def locate(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Interval index of each *t* and *t* clamped to the knot range."""
        idx = np.searchsorted(self.x, t, side="right") - 1
        idx = np.clip(idx, 0, self.n_knots - 2)
        return idx, np.clip(t, self.x[0], self.x[-1])

    def interval(
        self, t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where each 1-D *t* sits in its knot interval: ``(idx, a, b, h)``.

        ``h`` is the interval's width and ``a``, ``b = 1 - a`` the
        distances to its right and left knot in units of ``h`` — all a
        cubic spline on this mesh needs, for values and derivatives
        alike, so one lookup serves every table stacked on the mesh.
        """
        idx, tc = self.locate(t)
        h = self.h[idx]
        return idx, (self.x[idx + 1] - tc) / h, (tc - self.x[idx]) / h, h

    def weights(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Interpolation as a linear map of the tables, for fixed 1-D *t*.

        Returns ``(idx, w)`` with ``w`` of shape ``(4, len(t))`` such
        that a spline ``(y, m)`` on this mesh takes the value
        ``w0 y[idx] + w1 m[idx] + w2 y[idx+1] + w3 m[idx+1]`` at *t* —
        the order of four consecutive rows of the interleaved table
        ``y_0, m_0, y_1, m_1, ...``.
        """
        idx, a, b, h = self.interval(t)
        h2_6 = h**2 / 6.0
        return idx, np.stack([a, (a**3 - a) * h2_6, b, (b**3 - b) * h2_6])


class CubicSpline:
    """Natural cubic spline through ``(x, y)`` knots.

    Supports vector-valued data: *y* may be ``(n,)`` or ``(n, k)``, in
    which case evaluation returns the matching trailing shape.  Outside
    the knot range the spline is clamped to the boundary values (the
    physical radial functions it represents vanish beyond their cutoff,
    which the callers encode by ending the knot tables at zero).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        system = SplineSystem(x)
        y = np.asarray(y, dtype=float)
        self._set(system, y, system.second_derivatives(y))

    @classmethod
    def from_tables(
        cls, system: SplineSystem, y: np.ndarray, m: np.ndarray
    ) -> "CubicSpline":
        """Spline over tables already solved on *system*.

        For callers that solve every spline of one mesh as stacked
        columns and hand each its ``(y, m)`` slice.
        """
        self = cls.__new__(cls)
        self._set(system, y, m)
        return self

    def _set(self, system: SplineSystem, y: np.ndarray, m: np.ndarray) -> None:
        self.system = system
        self.x = system.x
        self.y = y
        self.m = m  # second derivatives

    @property
    def n_knots(self) -> int:
        return self.x.shape[0]

    @property
    def coefficient_nbytes(self) -> int:
        """Bytes held by the spline coefficient tables (x, y, y'')."""
        return self.x.nbytes + self.y.nbytes + self.m.nbytes

    def _interval(self, t: np.ndarray) -> Tuple[np.ndarray, ...]:
        """:meth:`SplineSystem.interval` of the flattened *t*, with
        ``a``, ``b``, ``h`` shaped to broadcast over the table columns."""
        idx, *local = self.system.interval(t.ravel())
        tail = (-1,) + (1,) * (self.y.ndim - 1)
        return (idx, *(v.reshape(tail) for v in local))

    def _value(self, idx, a, b, h) -> np.ndarray:
        return (
            a * self.y[idx]
            + b * self.y[idx + 1]
            + ((a**3 - a) * self.m[idx] + (b**3 - b) * self.m[idx + 1])
            * (h**2)
            / 6.0
        )

    def _slope(self, idx, a, b, h) -> np.ndarray:
        return (
            (self.y[idx + 1] - self.y[idx]) / h
            + (-(3.0 * a**2 - 1.0) * self.m[idx] + (3.0 * b**2 - 1.0) * self.m[idx + 1])
            * h
            / 6.0
        )

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the spline at points *t* (any shape)."""
        t = np.asarray(t, dtype=float)
        val = self._value(*self._interval(t))
        return val.reshape(t.shape + self.y.shape[1:])

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """First derivative of the spline at points *t*."""
        t = np.asarray(t, dtype=float)
        der = self._slope(*self._interval(t))
        return der.reshape(t.shape + self.y.shape[1:])

    def value_and_derivative(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(self(t), self.derivative(t))`` from one interval lookup."""
        t = np.asarray(t, dtype=float)
        where = self._interval(t)
        shape = t.shape + self.y.shape[1:]
        return self._value(*where).reshape(shape), self._slope(*where).reshape(shape)


def spline_coefficient_nbytes(n_knots: int, n_channels: int) -> int:
    """Predicted coefficient storage for a vector-valued spline.

    Matches :attr:`CubicSpline.coefficient_nbytes`: one shared abscissa
    plus value and second-derivative tables per channel, float64.
    """
    if n_knots < 2 or n_channels < 1:
        raise ValueError("need n_knots >= 2 and n_channels >= 1")
    return 8 * (n_knots + 2 * n_knots * n_channels)
