"""Weather-driven disease-severity regressions, usable standalone or as
infection-pressure forcings for the within-host model.

Three published regression families are implemented exactly as printed:
a quadratic severity index in temperature and leaf-wetness hours, a
logistic appressoria fraction with a log-incubation term, and a
temperature/wetness response surface in two algebraic forms.

Units: the source regressions do not state units for temperature T,
wetness hours W, or humidity H; all three are treated as raw regression
inputs whose units are carried by the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AsiCoefficients",
    "DoddCoefficients",
    "DuthieCoefficients",
    "eval_asi",
    "eval_dodd_fraction",
    "duthie_temperature_factor",
    "eval_duthie_response",
    "WeatherSeries",
    "SeverityForcing",
]


def _require_finite(obj, names):
    for name in names:
        v = float(getattr(obj, name))
        if not np.isfinite(v):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {v}")


# --------------------------------------------------------------------------
# quadratic severity index
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AsiCoefficients:
    """Coefficients of the quadratic severity index in (T, W).

    Note the quadratic pairing: a02 multiplies T^2 and a20 multiplies W^2.
    The subscripts look transposed relative to convention but follow the
    source regression as printed.
    """

    a0: float = 0.0
    a01: float = 0.0
    a10: float = 0.0
    a11: float = 0.0
    a02: float = 0.0
    a20: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("a0", "a01", "a10", "a11", "a02", "a20"))


def eval_asi(c: AsiCoefficients, T, W):
    """Severity index a0 + a01*W + a10*T + a11*T*W + a02*T^2 + a20*W^2."""
    T = np.asarray(T, dtype=float)
    W = np.asarray(W, dtype=float)
    out = c.a0 + c.a01 * W + c.a10 * T + c.a11 * T * W + c.a02 * T ** 2 + c.a20 * W ** 2
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# logistic appressoria fraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DoddCoefficients:
    """Logit coefficients: ln(p/(1-p)) = a0 + a01*H + a10*T + a02*H^2
    + a20*T^2 + b*ln(t)."""

    a0: float = 0.0
    a01: float = 0.0
    a10: float = 0.0
    a02: float = 0.0
    a20: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("a0", "a01", "a10", "a02", "a20", "b"))


def dodd_logit(c: DoddCoefficients, T, H, t):
    """The linear predictor of the appressoria regression; t > 0 required."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("incubation period t must be positive")
    T = np.asarray(T, dtype=float)
    H = np.asarray(H, dtype=float)
    out = c.a0 + c.a01 * H + c.a10 * T + c.a02 * H ** 2 + c.a20 * T ** 2 + c.b * np.log(t)
    return float(out) if out.ndim == 0 else out


def eval_dodd_fraction(c: DoddCoefficients, T, H, t):
    """Fraction p = 1/(1 + exp(-logit)) in (0, 1); domain error for t <= 0.

    Evaluated via the stable logistic (expit-style) form so extreme logits
    saturate smoothly instead of overflowing.
    """
    logit = np.asarray(dodd_logit(c, T, H, t), dtype=float)
    # 1/(1+exp(-x)) = exp(x - logaddexp(0, x)), stable on both tails
    out = np.exp(logit - np.logaddexp(0.0, logit))
    return float(out) if out.ndim == 0 else out


# --------------------------------------------------------------------------
# temperature/wetness response surface
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DuthieCoefficients:
    """Response-surface parameters a..h with the form selector.

    The source overloads the letter f as both a parameter (the temperature
    midpoint) and the temperature function f(T); the parameter is stored
    here as t_mid.  Constraints as stated: a>0, b>0, c>=0, d>0, e>0,
    t_mid>=0, g>0, h>0.
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 0.0
    d: float = 1.0
    e: float = 1.0
    t_mid: float = 0.0
    g: float = 1.0
    h: float = 1.0
    form: str = "form1"

    def __post_init__(self):
        _require_finite(self, ("a", "b", "c", "d", "e", "t_mid", "g", "h"))
        checks = (("a", self.a > 0), ("b", self.b > 0), ("c", self.c >= 0),
                  ("d", self.d > 0), ("e", self.e > 0), ("t_mid", self.t_mid >= 0),
                  ("g", self.g > 0), ("h", self.h > 0))
        for name, ok in checks:
            if not ok:
                raise ValueError(f"DuthieCoefficients.{name} violates its sign constraint")
        if self.form not in ("form1", "form2"):
            raise ValueError(f"form must be 'form1' or 'form2', got {self.form!r}")


def duthie_temperature_factor(c: DuthieCoefficients, T):
    """The temperature function
    f(T) = e*(1+h)*h^(h/(1+h)) * exp(g*(T-t_mid)/(1+h)) / (1 + exp(g*(T-t_mid))),

    computed as C*exp(z/(1+h) - logaddexp(0, z)) with z = g*(T-t_mid), which
    keeps both exponential tails finite.  At T = t_mid the two bracket
    exponentials cancel to 1/2, so f = C/2.
    """
    T = np.asarray(T, dtype=float)
    z = c.g * (T - c.t_mid)
    C = c.e * (1.0 + c.h) * c.h ** (c.h / (1.0 + c.h))
    out = C * np.exp(z / (1.0 + c.h) - np.logaddexp(0.0, z))
    return float(out) if out.ndim == 0 else out


def eval_duthie_response(c: DuthieCoefficients, T, W):
    """Response surface, by form:

    form1: R = f(T) * (1 - exp(-(b*(W-c))^d))
    form2: R = a    * (1 - exp(-(f(T)*(W-c))^d))

    Requires W >= c (wetness at or above the response threshold).
    """
    T = np.asarray(T, dtype=float)
    W = np.asarray(W, dtype=float)
    if np.any(W < c.c):
        raise ValueError(f"W must satisfy W >= c = {c.c}")
    fT = duthie_temperature_factor(c, T)
    excess = W - c.c
    if c.form == "form1":
        out = fT * (-np.expm1(-_scalar_pow(c.b * excess, c.d)))
    else:
        out = c.a * (-np.expm1(-_scalar_pow(fT * excess, c.d)))
    return float(out) if np.asarray(out).ndim == 0 else out


def _scalar_pow(base, d: float):
    """base ** d, taking numpy's scalar pow at every element of an array.

    numpy's array power runs a vectorized pow whose last bit can differ from
    the libm pow behind a scalar ``**``, so an array evaluation would not
    match evaluations one time at a time.
    """
    if np.ndim(base) == 0:
        return base ** d
    return np.array([x ** d for x in base.ravel()]).reshape(base.shape)


# --------------------------------------------------------------------------
# weather series and forcing adapter
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeatherSeries:
    """Sampled weather inputs (t, T, W, H) with linear interpolation.

    Outside the sampled range the series holds its end values.
    """

    times: np.ndarray
    temperature: np.ndarray
    wetness: np.ndarray
    humidity: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        cols = {}
        for name in ("temperature", "wetness", "humidity"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != t.shape:
                raise ValueError(f"{name} must match times in shape")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            cols[name] = v
        if t.ndim != 1 or t.shape[0] < 1:
            raise ValueError("times must be a nonempty 1-D array")
        if t.shape[0] > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        for name, v in cols.items():
            object.__setattr__(self, name, v)

    @classmethod
    def from_csv(cls, path) -> "WeatherSeries":
        """Load columns t, T, W, H from a headered CSV file.

        Column matching is case-sensitive where it is ambiguous: 't' (or
        'time') is the time axis and 'T' (or 'temp'/'temperature') the
        temperature; 'W'/'w'/'wetness' and 'H'/'h'/'humidity' are accepted.
        """
        data = np.genfromtxt(path, delimiter=",", names=True)
        if data.dtype.names is None:
            raise ValueError(f"{path}: expected a headered CSV with columns t,T,W,H")
        cols = list(data.dtype.names)

        def pick(exact, aliases, label):
            if exact in cols:
                return exact
            for n in cols:
                if n.lower() in aliases:
                    return n
            raise ValueError(f"{path}: missing {label} column "
                             f"(expected {exact!r} or one of {sorted(aliases)})")

        t_col = pick("t", {"time"}, "time")
        temp_col = pick("T", {"temp", "temperature"}, "temperature")
        if temp_col == t_col:
            raise ValueError(f"{path}: could not tell time and temperature columns apart")
        w_col = pick("W", {"w", "wetness"}, "wetness")
        h_col = pick("H", {"h", "humidity"}, "humidity")
        rows = np.atleast_1d(data)
        return cls(
            times=rows[t_col].astype(float),
            temperature=rows[temp_col].astype(float),
            wetness=rows[w_col].astype(float),
            humidity=rows[h_col].astype(float),
        )

    def sample(self, t: float):
        """(T, W, H) at time t, linearly interpolated."""
        return (
            float(np.interp(t, self.times, self.temperature)),
            float(np.interp(t, self.times, self.wetness)),
            float(np.interp(t, self.times, self.humidity)),
        )


_SEVERITY_MODELS = ("asi", "dodd", "duthie")


@dataclass(frozen=True)
class SeverityForcing:
    """Adapter exposing a severity regression as an infection-rate forcing:

        alpha(t) = max(scale * model(weather(t)), 0)

    Negative regression outputs are clamped to zero because the infection
    rate must stay nonnegative.  This mapping is a modeling convenience for
    plugging forecast models into the within-host simulator; the regression
    formulas themselves are evaluated exactly as printed.
    """

    series: WeatherSeries
    model: str
    coefficients: object
    scale: float = 1.0
    incubation: float = 1.0  # the t input of the appressoria regression

    def __post_init__(self):
        if self.model not in _SEVERITY_MODELS:
            raise ValueError(f"model must be one of {_SEVERITY_MODELS}, got {self.model!r}")
        if not np.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError(f"scale must be a nonnegative finite number, got {self.scale}")
        expected = {"asi": AsiCoefficients, "dodd": DoddCoefficients,
                    "duthie": DuthieCoefficients}[self.model]
        if not isinstance(self.coefficients, expected):
            raise TypeError(f"model {self.model!r} needs {expected.__name__}, "
                            f"got {type(self.coefficients).__name__}")
        if self.model == "dodd" and self.incubation <= 0.0:
            raise ValueError("incubation must be positive for the appressoria model")

    def __call__(self, t: float, theta: float = 0.0) -> float:
        T, W, H = self.series.sample(t)
        return max(self.scale * self._model_value(T, W, H), 0.0)

    def at(self, times) -> np.ndarray:
        """alpha at every entry of ``times``, in one vectorized pass.

        Bit-identical to calling the forcing at each time: the weather is
        interpolated by the same np.interp, the regressions run elementwise,
        and both max() calls become np.where(b > a, b, a), which keeps
        max()'s choice of its first argument on ties (-0.0) and on NaN.
        """
        s = self.series
        t = np.asarray(times, dtype=float)
        value = self._model_value(np.interp(t, s.times, s.temperature),
                                  np.interp(t, s.times, s.wetness),
                                  np.interp(t, s.times, s.humidity))
        x = self.scale * value
        return np.where(0.0 > x, 0.0, x)

    def _model_value(self, T, W, H):
        co = self.coefficients
        if self.model == "asi":
            return eval_asi(co, T, W)
        if self.model == "dodd":
            return eval_dodd_fraction(co, T, H, self.incubation)
        # max(W, c) keeps W in the response domain
        return eval_duthie_response(co, T, np.where(co.c > W, co.c, W))
