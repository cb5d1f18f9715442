"""Severity regressions, weather series, and the forcing adapter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthractl import (
    AsiCoefficients,
    ConstantForcing,
    ControlSignal,
    DoddCoefficients,
    DuthieCoefficients,
    HostState,
    ModelParams,
    SeverityForcing,
    WeatherSeries,
    dodd_logit,
    duthie_temperature_factor,
    eval_asi,
    eval_dodd_fraction,
    eval_duthie_response,
    integrate_ode,
)

# ---------------------------------------------------------------------------
#  quadratic severity index
# ---------------------------------------------------------------------------

def test_asi_hand_values():
    assert eval_asi(AsiCoefficients(), 5.0, 7.0) == 0.0
    assert eval_asi(AsiCoefficients(a0=1.0), 5.0, 7.0) == 1.0
    assert eval_asi(AsiCoefficients(a01=1.0), 100.0, 3.0) == 3.0   # linear W
    assert eval_asi(AsiCoefficients(a10=1.0), 2.0, 100.0) == 2.0   # linear T
    assert eval_asi(AsiCoefficients(a11=1.0), 2.0, 3.0) == 6.0     # cross term


def test_asi_quadratic_pairing_follows_printed_form():
    # the index pairs a02 with T^2 and a20 with W^2 (as the source prints it)
    assert eval_asi(AsiCoefficients(a02=1.0), 2.0, 100.0) == 4.0
    assert eval_asi(AsiCoefficients(a20=1.0), 100.0, 3.0) == 9.0


def test_asi_vectorized():
    c = AsiCoefficients(a0=0.5, a11=2.0)
    out = eval_asi(c, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [0.5 + 6.0, 0.5 + 16.0])


def test_asi_rejects_nonfinite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        AsiCoefficients(a11=np.nan)


# ---------------------------------------------------------------------------
#  logistic appressoria fraction
# ---------------------------------------------------------------------------

def test_dodd_zero_logit_gives_half():
    assert eval_dodd_fraction(DoddCoefficients(), 1.0, 1.0, 1.0) == 0.5


def test_dodd_unit_logit_frozen():
    # b=1, t=e makes the predictor exactly 1; p = 1/(1+e^-1)
    p = eval_dodd_fraction(DoddCoefficients(b=1.0), 0.0, 0.0, np.e)
    assert p == pytest.approx(0.7310585786300049, abs=1e-15)


def test_dodd_logit_roundtrip():
    c = DoddCoefficients(a0=0.3, a01=-0.2, a10=0.1, a02=0.05, a20=-0.02, b=0.7)
    lg = dodd_logit(c, 2.0, 3.0, 1.7)
    p = eval_dodd_fraction(c, 2.0, 3.0, 1.7)
    assert np.log(p / (1.0 - p)) == pytest.approx(lg, abs=1e-12)


def test_dodd_rejects_nonpositive_incubation():
    c = DoddCoefficients(b=1.0)
    with pytest.raises(ValueError, match="positive"):
        dodd_logit(c, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        eval_dodd_fraction(c, 1.0, 1.0, -2.0)


def test_dodd_extreme_logits_saturate_without_overflow():
    assert eval_dodd_fraction(DoddCoefficients(a0=800.0), 0.0, 0.0, 1.0) == 1.0
    assert eval_dodd_fraction(DoddCoefficients(a0=-800.0), 0.0, 0.0, 1.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(a0=st.floats(min_value=-30.0, max_value=30.0),
       t=st.floats(min_value=0.1, max_value=10.0))
def test_dodd_fraction_is_open_unit_interval(a0, t):
    # |logit| <= 30 + 0.5*|ln t| stays far from the float saturation range,
    # so the fraction must land strictly inside (0, 1)
    p = eval_dodd_fraction(DoddCoefficients(a0=a0, b=0.5), 1.0, 1.0, t)
    assert 0.0 < p < 1.0


# ---------------------------------------------------------------------------
#  temperature/wetness response surface
# ---------------------------------------------------------------------------

_DUTHIE1 = DuthieCoefficients(a=2.0, b=0.8, c=0.5, d=1.5, e=1.2,
                              t_mid=20.0, g=0.3, h=2.0, form="form1")
_DUTHIE2 = DuthieCoefficients(a=2.0, b=0.8, c=0.5, d=1.5, e=1.2,
                              t_mid=20.0, g=0.3, h=2.0, form="form2")


def test_duthie_midpoint_temperature_factor_frozen():
    # at T = t_mid the bracket cancels to 1/2: f = e*(1+h)*h^(h/(1+h)) / 2
    C = 1.2 * 3.0 * 2.0 ** (2.0 / 3.0)
    f = duthie_temperature_factor(_DUTHIE1, 20.0)
    assert f == pytest.approx(C / 2.0, abs=1e-15)
    assert f == pytest.approx(2.8573218935427587, abs=1e-14)


def test_duthie_temperature_tails_finite():
    assert duthie_temperature_factor(_DUTHIE1, 1e5) == 0.0
    assert duthie_temperature_factor(_DUTHIE1, -1e5) == 0.0


def test_duthie_zero_at_wetness_threshold():
    assert eval_duthie_response(_DUTHIE1, 25.0, 0.5) == 0.0
    assert eval_duthie_response(_DUTHIE2, 25.0, 0.5) == 0.0


def test_duthie_rejects_wetness_below_threshold():
    with pytest.raises(ValueError, match="W must satisfy"):
        eval_duthie_response(_DUTHIE1, 25.0, 0.3)


def test_duthie_form2_saturates_at_a():
    assert eval_duthie_response(_DUTHIE2, 25.0, 1e6) == pytest.approx(2.0, abs=1e-12)


def test_duthie_forms_degenerate_identically():
    # form1 with b = f(T0) equals form2 with a = f(T0), b = 1: both reduce to
    # f(T0) * (1 - exp(-(f(T0)*(W-c))^d)) at the pinned temperature
    T0, W = 22.0, 3.7
    fT = duthie_temperature_factor(_DUTHIE2, T0)
    c1 = DuthieCoefficients(a=1.0, b=fT, c=0.5, d=1.5, e=1.2,
                            t_mid=20.0, g=0.3, h=2.0, form="form1")
    c2 = DuthieCoefficients(a=fT, b=1.0, c=0.5, d=1.5, e=1.2,
                            t_mid=20.0, g=0.3, h=2.0, form="form2")
    r1 = eval_duthie_response(c1, T0, W)
    r2 = eval_duthie_response(c2, T0, W)
    assert r1 == pytest.approx(2.4732770572912823, abs=1e-13)
    assert r1 == pytest.approx(r2, abs=1e-13)


def test_duthie_sign_constraints_enforced():
    with pytest.raises(ValueError, match="sign constraint"):
        DuthieCoefficients(b=0.0)
    with pytest.raises(ValueError, match="sign constraint"):
        DuthieCoefficients(c=-0.1)
    with pytest.raises(ValueError, match="form"):
        DuthieCoefficients(form="form3")


# ---------------------------------------------------------------------------
#  weather series
# ---------------------------------------------------------------------------

_CSV = "t,T,W,H\n0.0,18.0,2.0,80.0\n0.5,24.0,5.0,85.0\n1.0,21.0,3.0,90.0\n"


def _write(tmp_path, text, name="weather.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_weather_from_csv_and_interpolation(tmp_path):
    ws = WeatherSeries.from_csv(_write(tmp_path, _CSV))
    assert ws.sample(0.25) == (21.0, 3.5, 82.5)   # midpoints of row 0 and 1
    assert ws.sample(-5.0) == (18.0, 2.0, 80.0)   # held at the ends
    assert ws.sample(9.0) == (21.0, 3.0, 90.0)


def test_weather_from_csv_lowercase_aliases(tmp_path):
    text = "time,temperature,wetness,humidity\n0.0,18.0,2.0,80.0\n1.0,21.0,3.0,90.0\n"
    ws = WeatherSeries.from_csv(_write(tmp_path, text))
    assert ws.sample(0.5) == (19.5, 2.5, 85.0)


def test_weather_from_csv_missing_column(tmp_path):
    with pytest.raises(ValueError, match="temperature"):
        WeatherSeries.from_csv(_write(tmp_path, "t,W,H\n0.0,2.0,80.0\n"))
    with pytest.raises(ValueError, match="time"):
        WeatherSeries.from_csv(_write(tmp_path, "T,W,H\n18.0,2.0,80.0\n"))


def test_weather_from_csv_single_row(tmp_path):
    ws = WeatherSeries.from_csv(_write(tmp_path, "t,T,W,H\n0.5,20.0,1.0,75.0\n"))
    assert ws.sample(0.0) == (20.0, 1.0, 75.0)
    assert ws.sample(3.0) == (20.0, 1.0, 75.0)


def test_weather_series_validation():
    t = np.array([0.0, 1.0])
    ok = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        WeatherSeries(np.array([1.0, 0.0]), ok, ok, ok)
    with pytest.raises(ValueError, match="shape"):
        WeatherSeries(t, np.array([1.0]), ok, ok)
    with pytest.raises(ValueError, match="finite"):
        WeatherSeries(t, np.array([1.0, np.inf]), ok, ok)


# ---------------------------------------------------------------------------
#  forcing adapter
# ---------------------------------------------------------------------------

def _series():
    return WeatherSeries(
        times=np.array([0.0, 0.5, 1.0]),
        temperature=np.array([18.0, 24.0, 21.0]),
        wetness=np.array([2.0, 5.0, 3.0]),
        humidity=np.array([80.0, 85.0, 90.0]),
    )


def test_forcing_clamps_negative_output_to_zero():
    frc = SeverityForcing(_series(), "asi", AsiCoefficients(a0=-10.0, a01=0.1),
                          scale=2.0)
    assert frc(0.0) == 0.0   # raw index is -9.8 at t=0


def test_forcing_scales_positive_output():
    frc = SeverityForcing(_series(), "asi", AsiCoefficients(a0=1.0), scale=2.5)
    assert frc(0.7) == 2.5


def test_forcing_duthie_stays_in_response_domain():
    # W(0) = 2.0 >= c, and the frozen spot value at t=0.5 (T=24, W=5)
    frc = SeverityForcing(_series(), "duthie", _DUTHIE2, scale=0.5)
    assert frc(0.5) == pytest.approx(0.9999999999967838, abs=1e-12)
    low_c = DuthieCoefficients(a=1.0, b=1.0, c=4.0, d=1.0, e=1.0,
                               t_mid=20.0, g=0.3, h=1.0, form="form1")
    frc2 = SeverityForcing(_series(), "duthie", low_c)
    assert frc2(0.0) == 0.0  # W=2 below threshold 4 is lifted to the boundary


def test_forcing_validates_model_and_coefficients():
    ws = _series()
    with pytest.raises(ValueError, match="model"):
        SeverityForcing(ws, "quadratic", AsiCoefficients())
    with pytest.raises(TypeError, match="DoddCoefficients"):
        SeverityForcing(ws, "dodd", AsiCoefficients())
    with pytest.raises(ValueError, match="incubation"):
        SeverityForcing(ws, "dodd", DoddCoefficients(), incubation=0.0)
    with pytest.raises(ValueError, match="scale"):
        SeverityForcing(ws, "asi", AsiCoefficients(), scale=-1.0)


def test_forcing_drives_host_model_frozen():
    # the appressoria fraction as a live infection-pressure forcing
    ws = WeatherSeries(
        times=np.linspace(0.0, 1.0, 11),
        temperature=20.0 + 3.0 * np.sin(np.linspace(0.0, 6.0, 11)),
        wetness=2.0 + np.linspace(0.0, 1.0, 11),
        humidity=80.0 * np.ones(11),
    )
    frc = SeverityForcing(ws, "dodd", DoddCoefficients(a0=-1.0, a10=0.05, b=0.5),
                          scale=1.0, incubation=2.0)
    params = ModelParams(theta1=0.6, theta2=1.0, v_max=1.0, alpha=frc,
                         beta=ConstantForcing(0.5), gamma=ConstantForcing(0.1),
                         eta=ConstantForcing(1.0))
    traj = integrate_ode(params, ControlSignal.constant(0.0),
                         HostState(0.2, 0.3, 0.1), T=1.0, dt=1e-3)
    assert traj.theta[-1] == pytest.approx(0.5546676858964041, abs=1e-12)


# ---------------------------------------------------------------------------
#  vectorized evaluation: bit-identical to one call per time
# ---------------------------------------------------------------------------

def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _weather(seed: int) -> WeatherSeries:
    rng = np.random.default_rng(seed)
    return WeatherSeries(times=np.linspace(0.0, 1.0, 9),
                         temperature=rng.uniform(10.0, 35.0, 9),
                         wetness=rng.uniform(0.0, 24.0, 9),
                         humidity=rng.uniform(50.0, 100.0, 9))


_small = st.floats(-0.05, 0.05)
_forcings = st.one_of(
    # asi with a0 on both sides of zero, so some outputs are clamped
    st.builds(lambda a0, a01, a10, a11, a02, a20, scale, seed: SeverityForcing(
        _weather(seed), "asi", AsiCoefficients(a0, a01, a10, a11, a02, a20), scale),
        st.floats(-5.0, 5.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
        _small, _small, _small, st.floats(0.0, 5.0), st.integers(0, 2**31)),
    st.builds(lambda a0, a01, a10, a02, a20, b, inc, scale, seed: SeverityForcing(
        _weather(seed), "dodd", DoddCoefficients(a0, a01, a10, a02, a20, b),
        scale, incubation=inc),
        st.floats(-30.0, 5.0), st.floats(0.0, 0.5), st.floats(0.0, 0.2),
        _small, _small, st.floats(-2.0, 2.0), st.floats(0.5, 10.0),
        st.floats(0.0, 5.0), st.integers(0, 2**31)),
    # duthie in both forms; c up to 20 puts part of the weather below it
    st.builds(lambda b, c, d, e, t_mid, g, h, form, scale, seed: SeverityForcing(
        _weather(seed), "duthie",
        DuthieCoefficients(2.0, b, c, d, e, t_mid, g, h, form), scale),
        st.floats(0.1, 2.0), st.floats(0.0, 20.0), st.floats(0.3, 4.0),
        st.floats(0.5, 2.0), st.floats(0.0, 30.0), st.floats(0.05, 1.0),
        st.floats(0.5, 3.0), st.sampled_from(["form1", "form2"]),
        st.floats(0.0, 5.0), st.integers(0, 2**31)),
)


@settings(max_examples=200, deadline=None)
@given(frc=_forcings, n=st.integers(1, 400))
def test_forcing_at_matches_calls_bitwise(frc, n):
    h = 1.2 / n
    t = -0.1 + h * np.arange(n)
    stages = np.stack([t, t + 0.5 * h, t + h], axis=1)
    assert np.array_equal(_bits(frc.at(stages)),
                          _bits([[frc(s) for s in row] for row in stages]))


@pytest.mark.parametrize("frc", [
    SeverityForcing(_weather(3), "asi", AsiCoefficients(a0=-1.0, a01=0.1, a10=0.05), 2.0),
    SeverityForcing(_weather(4), "dodd", DoddCoefficients(
        -24.0, 0.35, 0.066, -0.0012, -0.0005, 1.21), 2.0, incubation=6.0),
    SeverityForcing(_weather(5), "duthie",
                    DuthieCoefficients(2.0, 0.8, 6.0, 1.5, 1.2, 20.0, 0.3, 2.0), 1.5),
], ids=["asi", "dodd", "duthie"])
@pytest.mark.parametrize("u", [0.0, 0.2, 1.0])
def test_integrate_ode_staged_alpha_matches_generic_loop(frc, u):
    # A lambda hides the forcing from the kernel dispatch, so the second run
    # takes the generic per-step loop.
    params = ModelParams.with_default_forcings(theta1=0.6, alpha=frc)
    opaque = ModelParams.with_default_forcings(theta1=0.6, alpha=lambda t, th: frc(t, th))
    x0 = HostState(0.2, 0.5, 0.0)
    for control in (u, ControlSignal.constant(u, 0.1, 0.9)):
        a = integrate_ode(params, control, x0, t0=0.1, T=0.9, dt=1e-3)
        b = integrate_ode(opaque, control, x0, t0=0.1, T=0.9, dt=1e-3)
        for name in ("times", "theta", "v", "v_r"):
            assert np.array_equal(_bits(getattr(a, name)), _bits(getattr(b, name)))
