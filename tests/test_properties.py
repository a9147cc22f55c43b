"""Property tests over random over-coupled devices near the reference device,
fuzz tests of the command line over random config documents and random
fit data files, and a round trip of the calibration fits over a wider
device range.

Each device scales the reference cavity linewidth and mechanical linewidth
by up to a factor of 3 either way and draws an over-coupled eta, so every
device has a critical coupling G_c. Examples are derandomized and bounded,
so the suite stays deterministic.
"""

import json
import math

import numpy as np
import pytest
import scipy.signal

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from mcpa import MeasuredSpectrum, calibrate, cli, model, pulses
from mcpa.errors import PulseEstimationError
import reference_integrators as reference
import reference_jacobian

REFERENCE = model.reference_device()

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def over_coupled_devices(draw):
    kappa = REFERENCE.kappa_hz * 10.0 ** draw(st.floats(-0.5, 0.5))
    gamma = REFERENCE.gamma_m_hz * 10.0 ** draw(st.floats(-0.5, 0.5))
    eta = draw(st.floats(0.55, 0.95))
    return model.DeviceParams(REFERENCE.cavity_freq_hz, REFERENCE.mech_freq_hz, kappa, eta, gamma)


# coupling as log10(G / G_c): a decade either side
log_ratio = st.floats(-1.0, 1.0)


@PROPERTY
@given(dev=over_coupled_devices(), x=log_ratio)
def test_passive(dev, x):
    g = model.critical_coupling(dev) * 10.0**x
    window = model.effective_window_hz(dev, g)
    wings = np.geomspace(1e-2, 1e3, 101) * dev.kappa_hz  # |t| -> 1 far out
    detuning = np.concatenate([np.linspace(-20.0, 20.0, 401) * window, wings, -wings])
    t = model.transmission_curve(dev, g, detuning)
    assert np.max(np.abs(t)) <= 1.0 + 1e-12


@PROPERTY
@given(dev=over_coupled_devices(), r=st.floats(2e-3, 0.9))
def test_resonant_phase_is_exact_and_flips_at_critical(dev, r):
    gc = model.critical_coupling(dev)
    below, above = model.transmission_curve(dev, gc * np.array([1.0 - r, 1.0 + r]), 0.0)
    assert below.imag == 0.0 and above.imag == 0.0
    assert model.principal_phase(below) == math.pi
    assert model.principal_phase(above) == 0.0


@PROPERTY
@given(
    dev=over_coupled_devices(),
    x=log_ratio.filter(lambda x: abs(x) > 0.05),
    d=st.floats(-3.0, 3.0),
)
def test_cw_response_matches_transmission(dev, x, d):
    # the tolerance of test_acceptance::test_steady_state_integration_oracle,
    # which also keeps its couplings a few percent away from G_c
    g = model.critical_coupling(dev) * 10.0**x
    detuning = d * model.effective_window_hz(dev, g)
    closed = complex(model.transmission_curve(dev, g, detuning))
    stepped = reference.cw_response(dev, g, detuning)
    assert abs(stepped - closed) <= 1e-4 * abs(closed)


def _unimodal(values):
    """A rise then a fall: an ascending then a descending sorted list, with
    ties and plateau tops, a top on the first or last sample where either
    list is empty, and low tails."""
    return st.tuples(st.lists(values, max_size=20), st.lists(values, max_size=20)).filter(
        lambda a: a[0] or a[1]
    ).map(lambda a: sorted(a[0]) + sorted(a[1], reverse=True))


# envelopes with plateaus, ties and maxima at the edges (small integers),
# generic ones, all-equal and all-zero arrays, and unimodal and two-lobed
# ones, which random lists rarely are
envelopes = st.one_of(
    st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.tuples(st.integers(1, 40), st.sampled_from([0.0, 0.5])).map(lambda a: [a[1]] * a[0]),
    _unimodal(st.integers(0, 6)),
    _unimodal(st.floats(0.0, 1.0)),
    st.tuples(_unimodal(st.integers(0, 6)), _unimodal(st.integers(0, 6))).map(
        lambda a: a[0] + a[1]
    ),
).map(lambda v: np.array(v, dtype=float))


@settings(PROPERTY, max_examples=100)
@given(env=envelopes, share=st.one_of(st.sampled_from([0.0, 1.0 / 3.0]), st.floats(0.0, 1.2)))
def test_lobe_count_matches_find_peaks(env, share):
    bound = share * float(env.max())
    peaks, _ = scipy.signal.find_peaks(env, height=bound, prominence=bound)
    assert pulses._count_lobes(env, bound) == len(peaks)


@settings(PROPERTY, max_examples=10)
@given(dev=over_coupled_devices(), x=log_ratio)
def test_routes_match_band_averaged_delay(dev, x):
    # the probe's rms bandwidth is 1/32 of the window at G, so its delay
    # stays under one width sigma; 2^14 samples over 16 widths keep the ode
    # route's linear-hold error under 1e-5 up to the couplings where the
    # output splits in two. A decade from G_c the delay falls below 1e-3
    # sigma; timed from the probe's center, it still keeps 1e-12.
    g = model.critical_coupling(dev) * 10.0**x
    sigma = 32.0 / (2.0 * math.pi * model.effective_window_hz(dev, g))
    cfg = pulses.PulseConfig(sigma_t_s=sigma, center_s=8.0 * sigma,
                             record_s=16.0 * sigma, dt_s=16.0 * sigma / 2**14)
    try:
        fft = pulses.extract_delay(dev, g, cfg)
        ode = pulses.extract_delay(dev, g, cfg, method="ode")
    except PulseEstimationError:
        assume(False)  # two comparable lobes: no arrival time to compare
    oracle = pulses.band_averaged_delay(dev, g, cfg)
    assert abs(fft - oracle) <= 1e-12 * abs(oracle)
    assert abs(ode - oracle) <= 1e-5 * abs(oracle)


# ---------------------------------------------------------------------------
# config fuzzing: every document ends in an exit code, never a traceback
# ---------------------------------------------------------------------------

# Numbers stay within +/-4096, so no count (points, samples) asks for a
# large grid.
numbers = st.one_of(
    st.integers(-4096, 4096),
    st.floats(-4096.0, 4096.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
unit_strings = st.builds(
    "{}{}".format,
    st.floats(-4096.0, 4096.0, allow_nan=False).map("{:g}".format),
    st.sampled_from(["", " ", " mHz", " Hz", "kHz", " MHz", " GHz", " THz"]),
)
words = st.sampled_from(
    ["", "fft", "ode", "linear", "log", "bare", "mechanical", "critical_sweep",
     "absolute", "detuning", "reference", "x"]
)
scalars = st.one_of(st.none(), st.booleans(), numbers, unit_strings, words)
values = st.one_of(scalars, st.lists(scalars, max_size=3))


def mostly(typical, other):
    """`typical` in about seven draws of eight, else `other`."""
    return st.sampled_from([typical] * 7 + [other]).flatmap(lambda s: s)


def option(typical):
    return mostly(st.sampled_from(typical), values)


# realistic device and option values, each of which a draw may replace
DEVICE_BLOCK = {"cavity_freq": ["5.318 GHz"], "mech_freq": ["755.5 kHz"],
                "kappa": ["420 kHz"], "eta": [0.651, 0.4], "gamma_m": ["9.7 mHz"]}
TYPICAL = {"g": ["11.87 Hz", 23.93, "155.1"], "start": [5.0, "-2 Hz"],
           "stop": [60.0, "40 mHz"], "points": [3, 64], "samples": [64, 256],
           "scale": ["log", "linear"], "method": ["fft", "ode"],
           "carrier_detuning": [0.0, "1 mHz"], "bandwidth_fraction": [0.05],
           "kind": ["bare", "mechanical", "critical_sweep"], "data": ["missing.csv"],
           "add_noise_snr_db": [30]}
# drawn in every typical block, so most draws get past the option checks
REQUIRED = {"spectrum": ("g",), "pulse": ("g",), "fit": ("kind", "data")}

devices = mostly(
    st.sampled_from(["reference", {"preset": "reference"}])
    | st.fixed_dictionaries({k: option(v) for k, v in DEVICE_BLOCK.items()},
                            optional={"vacuum_coupling": option(["1 Hz"])}),
    values,
)


def command_block(name):
    options = {key: option(TYPICAL[key]) for key in cli.OPTIONS[name]}
    required = {key: options.pop(key) for key in REQUIRED.get(name, ())}
    return mostly(st.fixed_dictionaries(required, optional=options), st.none() | values)


# one command block in most documents, else none or two
commands = mostly(st.just(1), st.integers(0, 2)).flatmap(
    lambda n: st.lists(st.sampled_from(cli.COMMANDS), min_size=n, max_size=n, unique=True)
).flatmap(lambda names: st.fixed_dictionaries({name: command_block(name) for name in names}))


@settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(version=mostly(st.just("1"), values), device=devices, command=commands,
       seed=mostly(st.none(), numbers))
def test_cli_config_fuzz_ends_in_exit_code(tmp_path, monkeypatch, version, device, command, seed):
    monkeypatch.chdir(tmp_path)
    doc = {"version": version, "device": device, **command}
    if seed is not None:
        doc["seed"] = seed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# data-file fuzzing: every fit of a random CSV ends in an exit code
# ---------------------------------------------------------------------------

# zeros, non-finite values, the extremes of a double, and any float at all
odd_cells = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]),
    st.floats(),
)
VALUE_COLUMNS = {"bare": [("re", "im"), ("amp_db",), ("amp_db", "phase_rad")],
                 "critical_sweep": [("t_z",), ("amp_db",)]}
VALUE_COLUMNS["mechanical"] = VALUE_COLUMNS["bare"]


def clean_columns(kind, header, rows):
    """The reference device's trace of this kind, one array per header
    column: the cavity dip, the window at 2 G_c, or a coupling sweep."""
    gc = model.critical_coupling(REFERENCE)
    if kind == "critical_sweep":
        axis = np.geomspace(0.5, 2.0, rows) * gc
        t = model.transmission_curve(REFERENCE, axis, 0.0)
    else:
        g = 0.0 if kind == "bare" else 2.0 * gc
        span = REFERENCE.kappa_hz if kind == "bare" else model.effective_window_hz(REFERENCE, g)
        axis = np.linspace(-3.0, 3.0, rows) * span
        t = model.transmission_curve(REFERENCE, g, axis)
    channels = {"g_hz": axis, "detuning_hz": axis, "frequency_hz": REFERENCE.cavity_freq_hz + axis,
                "re": t.real, "im": t.imag, "t_z": np.abs(t), "amp_db": 20.0 * np.log10(np.abs(t)),
                "phase_rad": np.angle(t)}
    return [channels[name] for name in header]


@st.composite
def data_files(draw):
    """A fit kind and a CSV with a valid header for it: its reference trace
    of 1-60 rows, where a column may be one repeated value and up to three
    cells take an odd value."""
    kind = draw(st.sampled_from(sorted(VALUE_COLUMNS)))
    axes = ["g_hz"] if kind == "critical_sweep" else ["detuning_hz", "frequency_hz"]
    axis = draw(st.sampled_from(axes))
    header = [axis, *draw(st.sampled_from(VALUE_COLUMNS[kind]))]
    rows = draw(st.integers(1, 60))
    table = np.column_stack(clean_columns(kind, header, rows))
    for j in range(len(header)):
        if draw(st.integers(0, 7)) == 0:  # one column in eight: one repeated value
            table[:, j] = draw(odd_cells | st.floats(-10.0, 10.0))
    for _ in range(draw(st.integers(0, 3))):
        row, column = draw(st.integers(0, rows - 1)), draw(st.integers(0, len(header) - 1))
        table[row, column] = draw(odd_cells)
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return kind, "\n".join(lines) + "\n"


def no_constant(name):
    raise AssertionError(f"{name} in the fit report")


@settings(PROPERTY, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=data_files())
def test_cli_data_fuzz_ends_in_exit_code(tmp_path, case):
    kind, text = case
    data = tmp_path / "data.csv"
    data.write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"version": "1", "device": "reference",
                                  "fit": {"kind": kind, "data": str(data)}}))
    out = tmp_path / "out"
    report = out / "fit_report.json"
    if report.exists():
        report.unlink()
    code = cli.main(["--config", str(config), "--out", str(out)])
    assert code in (0, 2, 3)
    if code == 0:
        # json writes a non-finite float as NaN or Infinity, outside JSON
        json.loads(report.read_text(), parse_constant=no_constant)


# ---------------------------------------------------------------------------
# calibration: noiseless fits return the device they were written from
# ---------------------------------------------------------------------------

@st.composite
def calibration_cases(draw):
    """A device over the calibration range and a coupling clear of G_c and
    G_b: a fraction of G_c below it, a fraction of the way from G_c to G_b,
    or a multiple of G_b above it."""
    kappa = 10.0 ** draw(st.floats(5.0, math.log10(2e6)))
    gamma = 10.0 ** draw(st.floats(math.log10(3e-3), math.log10(0.3)))
    eta = draw(st.floats(0.55, 0.9))
    dev = model.DeviceParams(REFERENCE.cavity_freq_hz, REFERENCE.mech_freq_hz, kappa, eta, gamma)
    gc, gb = model.critical_coupling(dev), model.boundary_coupling(dev)
    g = draw(st.one_of(
        st.floats(0.3, 0.85).map(lambda u: u * gc),
        st.floats(0.15, 0.85).map(lambda u: gc + u * (gb - gc)),
        st.floats(1.15, 3.0).map(lambda u: u * gb),
    ))
    return dev, g


def data_forms(axis, t):
    """The trace as complex, polar and amplitude-only data on a detuning axis."""
    amp_db = 20.0 * np.log10(np.abs(t))
    return (
        MeasuredSpectrum.from_complex(axis, t, absolute_frequency=False),
        MeasuredSpectrum.from_polar(axis, amp_db, np.angle(t), absolute_frequency=False),
        MeasuredSpectrum.from_polar(axis, amp_db, absolute_frequency=False),
    )


def recovers(fit, truth, offset_scale):
    """Whether the fit or its alternate matches every `truth` value to 1e-6
    relative, with a center offset within 1e-6 `offset_scale` of zero."""

    def matches(candidate):
        params = candidate.params
        return abs(params["center_offset_hz"]) <= 1e-6 * offset_scale and all(
            abs(params[k] / v - 1.0) <= 1e-6 for k, v in truth.items()
        )

    return any(matches(c) for c in (fit, fit.alternate) if c is not None)


@PROPERTY
@given(case=calibration_cases())
def test_noiseless_fits_round_trip(case):
    dev, g = case
    axis = np.linspace(-3.0, 3.0, 241) * dev.kappa_hz
    bare = model.transmission_curve(dev, 0.0, axis)
    for spec in data_forms(axis, bare):
        fit = calibrate.fit_bare_cavity(spec)
        assert recovers(fit, {"kappa_hz": dev.kappa_hz, "eta": dev.eta}, dev.kappa_hz)
    width = model.effective_window_hz(dev, g)
    axis = np.linspace(-5.0, 5.0, 401) * width
    window = model.transmission_curve(dev, g, axis)
    for spec in data_forms(axis, window):
        fit = calibrate.fit_mechanical_window(spec, dev)
        assert recovers(fit, {"gamma_m_hz": dev.gamma_m_hz, "g_hz": g}, width)


@PROPERTY
@given(case=calibration_cases(), move=st.tuples(*[st.floats(-0.1, 0.1)] * 3))
def test_fit_jacobians_match_central_differences(case, move):
    # both fits' closed-form Jacobians in every data form, at a point moved
    # off the device; data written from the model at that point keep the
    # phase residual far from its branch cut
    dev, g = case
    m0, m1, m2 = move
    bare_axis = np.linspace(-3.0, 3.0, 61) * dev.kappa_hz
    width = model.effective_window_hz(dev, g)
    window_axis = np.linspace(-5.0, 5.0, 101) * width
    fits = [
        (bare_axis, calibrate._bare_model_fn(bare_axis),
         (m0 * dev.kappa_hz, dev.kappa_hz * (1.0 + m1), dev.eta * (1.0 + m2)),
         (dev.kappa_hz, dev.kappa_hz, 1.0)),
        (window_axis, calibrate._window_model_fn(dev, window_axis),
         (dev.gamma_m_hz * (1.0 + m0), g * (1.0 + m1), m2 * width),
         (dev.gamma_m_hz, g, width)),
    ]
    for axis, model_fn, x, scale in fits:
        x = np.array(x)
        t = model_fn(x)
        assume(np.abs(t).min() > 1e-3)  # clear of the cone point |t| = 0
        for spec in data_forms(axis, t):
            residual, jacobian = calibrate._make_residual(spec, model_fn)
            want = reference_jacobian.central_difference(residual, x, scale)
            # to 1e-6 of the largest derivative in the parameter's row
            tol = 1e-6 * np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(jacobian(x) - want) <= tol)
