"""Self-consistency accelerators: linear and Pulay (DIIS) mixing."""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class PulayMixer:
    """Pulay's direct inversion in the iterative subspace (DIIS).

    Operates on flattened trial/residual pairs; the caller decides what
    the residual is (we use the Fock-matrix commutator ``FPS - SPF`` in
    the SCF driver).  Falls back to plain linear mixing while the
    history is shorter than two entries or if the DIIS system is
    singular.
    """

    def __init__(self, history: int = 6, linear_factor: float = 0.35) -> None:
        if history < 2:
            raise ValueError(f"DIIS history must be >= 2, got {history}")
        if not 0.0 < linear_factor <= 1.0:
            raise ValueError(f"linear factor must be in (0, 1], got {linear_factor}")
        self.history = history
        self.linear_factor = linear_factor
        self._trials: List[np.ndarray] = []
        self._residuals: List[np.ndarray] = []

    def reset(self) -> None:
        """Drop all history."""
        self._trials.clear()
        self._residuals.clear()

    def push(self, trial: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """Record one (trial, residual) pair and return the next trial.

        Shapes are preserved; internally everything is flattened.
        """
        shape = trial.shape
        self._trials.append(np.asarray(trial, dtype=float).ravel().copy())
        self._residuals.append(np.asarray(residual, dtype=float).ravel().copy())
        if len(self._trials) > self.history:
            self._trials.pop(0)
            self._residuals.pop(0)

        m = len(self._trials)
        if m < 2:
            return self._trials[-1].reshape(shape)

        coeffs = self._solve_diis(m)
        if coeffs is None:
            # Singular system: damped step along the newest residual.
            mixed = self._trials[-1] + self.linear_factor * self._residuals[-1]
            return mixed.reshape(shape)
        mixed = np.zeros_like(self._trials[0])
        for c, t in zip(coeffs, self._trials):
            mixed += c * t
        return mixed.reshape(shape)

    def _solve_diis(self, m: int) -> Optional[np.ndarray]:
        b = np.empty((m + 1, m + 1))
        for i in range(m):
            for j in range(m):
                b[i, j] = float(self._residuals[i] @ self._residuals[j])
        b[:m, m] = -1.0
        b[m, :m] = -1.0
        b[m, m] = 0.0
        rhs = np.zeros(m + 1)
        rhs[m] = -1.0
        try:
            sol = np.linalg.solve(b, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        return sol[:m]
