"""Time profiles f_n(t) that switch the spin-boson coupling on and off."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParametersError

# f(t) = sum_j c_j exp(i nu_j t) on [0, window_end); used by the closed-form
# integral kernels.
ExpComponents = list[tuple[complex, float]]

CONSTANT = "constant"
SIN_SQ_WINDOW = "sin_sq_window"
COS_SQ_WINDOW = "cos_sq_window"
EXP_RAMP = "exp_ramp"

_VARIANTS = (CONSTANT, SIN_SQ_WINDOW, COS_SQ_WINDOW, EXP_RAMP)


@dataclass(frozen=True)
class OpeningFunction:
    """One coupling profile.

    ``constant``      f(t) = 1 for all t
    ``sin_sq_window`` f(t) = sin^2(pi t / T)   on [0, T], zero outside
    ``cos_sq_window`` f(t) = cos^2(pi t / 2T)  on [0, T], zero outside
    ``exp_ramp``      f(t) = e^{t/tau} for t < 0, inner profile for t >= 0

    All profiles take values in [0, 1].
    """

    variant: str
    window: float | None = None
    ramp_time: float | None = None
    inner: "OpeningFunction | None" = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise InvalidParametersError(f"unknown opening variant {self.variant!r}")
        if self.variant in (SIN_SQ_WINDOW, COS_SQ_WINDOW):
            # window 0 is the switched-off profile f = 0
            if self.window is None or not 0 <= self.window < math.inf:
                raise InvalidParametersError("windowed opening requires a finite window >= 0")
        if self.variant == EXP_RAMP:
            if self.ramp_time is None or not 0 < self.ramp_time < math.inf:
                raise InvalidParametersError("exp_ramp requires a finite ramp_time > 0")
            if self.inner is None or self.inner.variant == EXP_RAMP:
                raise InvalidParametersError("exp_ramp requires a non-ramp inner profile")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls) -> "OpeningFunction":
        return cls(CONSTANT)

    @classmethod
    def sin_sq_window(cls, window: float) -> "OpeningFunction":
        return cls(SIN_SQ_WINDOW, window=window)

    @classmethod
    def cos_sq_window(cls, window: float) -> "OpeningFunction":
        return cls(COS_SQ_WINDOW, window=window)

    @classmethod
    def exp_ramp_then(cls, ramp_time: float, inner: "OpeningFunction") -> "OpeningFunction":
        return cls(EXP_RAMP, ramp_time=ramp_time, inner=inner)

    # -- evaluation ----------------------------------------------------
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.variant == CONSTANT:
            return np.ones_like(t)
        if self.variant in (SIN_SQ_WINDOW, COS_SQ_WINDOW):
            if self.window == 0.0:
                return np.zeros_like(t)
            inside = (t >= 0.0) & (t <= self.window)
            phase = np.pi * np.where(inside, t, 0.0) / self.window
            if self.variant == SIN_SQ_WINDOW:
                return np.where(inside, np.sin(phase) ** 2, 0.0)
            return np.where(inside, np.cos(0.5 * phase) ** 2, 0.0)
        # exp_ramp
        ramp = np.exp(np.minimum(t, 0.0) / self.ramp_time)
        return np.where(t < 0.0, ramp, self.inner(np.maximum(t, 0.0)))

    @property
    def window_end(self) -> float:
        """Upper end of the support on t >= 0 (inf when never switched off)."""
        if self.variant in (SIN_SQ_WINDOW, COS_SQ_WINDOW):
            return float(self.window)
        if self.variant == EXP_RAMP:
            return self.inner.window_end
        return math.inf

    def post_ramp(self) -> "OpeningFunction":
        """The t >= 0 part of the profile (strips an adiabatic ramp)."""
        return self.inner if self.variant == EXP_RAMP else self

    def exp_components(self) -> ExpComponents:
        """Exponential decomposition of the t >= 0 part."""
        if self.variant == CONSTANT:
            return [(1.0 + 0.0j, 0.0)]
        if self.variant in (SIN_SQ_WINDOW, COS_SQ_WINDOW):
            if self.window == 0.0:
                return [(0.0j, 0.0)]
            if self.variant == SIN_SQ_WINDOW:
                w = 2.0 * np.pi / self.window
                return [(0.5 + 0.0j, 0.0), (-0.25 + 0.0j, w), (-0.25 + 0.0j, -w)]
            w = np.pi / self.window
            return [(0.5 + 0.0j, 0.0), (0.25 + 0.0j, w), (0.25 + 0.0j, -w)]
        return self.inner.exp_components()
