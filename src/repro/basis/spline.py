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

from typing import List, Optional, Tuple

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
        self._log_step = _log_step(x)

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
        """Interval index of each *t* and *t* clamped to the knot range.

        The index is ``searchsorted(x, t, side="right") - 1`` clipped to
        ``[0, n - 2]``, for every *t* (NaN lands in the last interval).
        On a geometric mesh it comes from the log of *t* in O(1) instead
        of a binary search:

        >>> x = 1e-4 * np.exp(0.05 * np.arange(320))
        >>> t = np.concatenate([x, np.nextafter(x, 0.0), [-1.0, 0.0, 1e9, np.inf]])
        >>> idx, tc = SplineSystem(x).locate(t)
        >>> bool(np.array_equal(idx, np.clip(np.searchsorted(x, t, side="right") - 1, 0, 318)))
        True
        """
        x, last = self.x, self.n_knots - 2
        tc = np.clip(t, x[0], x[-1])
        if self._log_step is None:
            idx = np.searchsorted(x, t, side="right") - 1
            return np.clip(idx, 0, last), tc
        # floor(log(t / x0) / log q) is within one of the interval index
        # (_log_step checks the mesh for that): one comparison each way
        # corrects it.  fmin sends NaN to the last interval.
        est = np.log(tc / x[0])
        est /= self._log_step
        np.floor(est, out=est)
        np.fmin(est, last, out=est)
        idx = est.astype(np.intp)
        below = tc < np.take(x, idx)
        above = tc >= np.take(x, idx + 1)
        idx -= below
        idx += above
        return np.minimum(idx, last, out=idx), tc

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
        h = np.take(self.h, idx)
        a = np.take(self.x, idx + 1)
        a -= tc
        a /= h
        b = np.subtract(tc, np.take(self.x, idx))
        b /= h
        return idx, a, b, h

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
        self._channel_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_knots(self) -> int:
        return self.x.shape[0]

    @property
    def coefficient_nbytes(self) -> int:
        """Bytes held by the spline coefficient tables (x, y, y'')."""
        return self.x.nbytes + self.y.nbytes + self.m.nbytes

    def _gather(self, idx: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``y[idx], y[idx+1], m[idx], m[idx+1]``, channel-major: ``(k, len(idx))``.

        Channel-major, every operation of :meth:`_value_of` and
        :meth:`_slope_of` runs along the points, not along ``k``.  The
        transposed tables are built on first use (idempotent, so two
        threads may race on it harmlessly).
        """
        if self._channel_tables is None:
            n = self.n_knots
            self._channel_tables = (
                np.ascontiguousarray(self.y.reshape(n, -1).T),
                np.ascontiguousarray(self.m.reshape(n, -1).T),
            )
        y, m = self._channel_tables
        up = idx + 1
        return (
            np.take(y, idx, axis=1), np.take(y, up, axis=1),
            np.take(m, idx, axis=1), np.take(m, up, axis=1),
        )

    # The formulas one pass per operation, in their order of evaluation,
    # so results are bitwise those of the expressions in the comments.
    # _value_of overwrites the gathered rows; _slope_of leaves them be.
    @staticmethod
    def _value_of(rows, a, b, h) -> np.ndarray:
        # a y0 + b y1 + ((a**3 - a) m0 + (b**3 - b) m1) (h**2) / 6
        y0, y1, m0, m1 = rows
        y0 *= a
        y1 *= b
        y0 += y1
        m0 *= a**3 - a
        m1 *= b**3 - b
        m0 += m1
        m0 *= h**2
        m0 /= 6.0
        y0 += m0
        return y0

    @staticmethod
    def _slope_of(rows, a, b, h) -> np.ndarray:
        # (y1 - y0) / h + (-(3 a**2 - 1) m0 + (3 b**2 - 1) m1) h / 6
        y0, y1, m0, m1 = rows
        der = np.subtract(y1, y0)
        der /= h
        curv = np.multiply(m0, -(3.0 * a**2 - 1.0))
        curv += np.multiply(m1, 3.0 * b**2 - 1.0)
        curv *= h
        curv /= 6.0
        der += curv
        return der

    def _lookup(self, t: np.ndarray) -> Tuple[Tuple[np.ndarray, ...], List[np.ndarray]]:
        """The gathered rows and ``(a, b, h)`` of every *t*, flattened."""
        idx, *local = self.system.interval(t.ravel())
        return self._gather(idx), local

    def _shaped(self, out: np.ndarray, t: np.ndarray) -> np.ndarray:
        """A channel-major result as ``t.shape + y.shape[1:]`` (a view
        where it can be: vector-valued results are Fortran-ordered)."""
        return out.T.reshape(t.shape + self.y.shape[1:])

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Evaluate the spline at points *t* (any shape)."""
        t = np.asarray(t, dtype=float)
        rows, local = self._lookup(t)
        return self._shaped(self._value_of(rows, *local), t)

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """First derivative of the spline at points *t*."""
        t = np.asarray(t, dtype=float)
        rows, local = self._lookup(t)
        return self._shaped(self._slope_of(rows, *local), t)

    def value_and_derivative(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(self(t), self.derivative(t))`` from one interval lookup."""
        t = np.asarray(t, dtype=float)
        rows, local = self._lookup(t)
        der = self._slope_of(rows, *local)  # before _value_of overwrites them
        return self._shaped(self._value_of(rows, *local), t), self._shaped(der, t)


def _log_step(x: np.ndarray) -> Optional[float]:
    """``log q`` of a geometric mesh ``x_i = x_0 q^i``, else ``None``.

    The mesh may end in one knot off the progression (a radial table's
    appended zero).  Every knot of the progression must sit within 1e-3
    of its index on the log scale; then ``log(t / x_0) / log q``, rounding
    included, is within one of the interval index of every *t* inside
    the progression and at least the last interval's index minus one
    beyond it.
    """
    if x[0] <= 0.0 or x.shape[0] < 3:
        return None
    for n in (x.shape[0], x.shape[0] - 1):
        log_q = np.log(x[n - 1] / x[0]) / (n - 1)
        if np.abs(np.log(x[:n] / x[0]) / log_q - np.arange(n)).max() <= 1e-3:
            return float(log_q)
    return None


def spline_coefficient_nbytes(n_knots: int, n_channels: int) -> int:
    """Predicted coefficient storage for a vector-valued spline.

    Matches :attr:`CubicSpline.coefficient_nbytes`: one shared abscissa
    plus value and second-derivative tables per channel, float64.
    """
    if n_knots < 2 or n_channels < 1:
        raise ValueError("need n_knots >= 2 and n_channels >= 1")
    return 8 * (n_knots + 2 * n_knots * n_channels)
