"""CLI tests: config parsing, command execution, exit codes, determinism.

The invocations run in-process through cli.main, so coverage and
monkeypatching work; one test drives the console entry point, which exits
with main's code. test_every_config_runs_without_scipy alone starts a fresh
interpreter, in which scipy cannot be imported.
"""

import glob
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from mcpa import calibrate, cli, model, pulses, reference_device
from mcpa.errors import ConfigError, ConvergenceError


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def reference_doc(**command):
    doc = {"version": "1", "device": {"preset": "reference"}}
    doc.update(command)
    return doc


# ---------------------------------------------------------------------------
# frequency parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        (420, 420.0),
        (0.0097, 0.0097),
        ("420 kHz", 420e3),
        ("420kHz", 420e3),
        ("5.318 GHz", 5.318e9),
        ("755.5 kHz", 755.5e3),
        ("9.7 mHz", 0.0097),
        ("17.66 Hz", 17.66),
        ("17.66", 17.66),
        ("1e3", 1000.0),
        ("-3.5 Hz", -3.5),
        ("2 MHz", 2e6),
    ],
)
def test_parse_frequency(text, expected):
    assert cli.parse_frequency(text) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "text",
    ["fast", "17 THz", "MHz", "1..2 Hz", None, True, [1.0], "420 KHZ", "9.7 mhz",
     # a JSON integer past the largest float
     pytest.param(10**400, id="int-past-float")],
)
def test_parse_frequency_rejects(text):
    with pytest.raises(ConfigError):
        cli.parse_frequency(text)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_full_device(tmp_path):
    doc = {
        "version": "1",
        "device": {
            "cavity_freq": "5.318 GHz",
            "mech_freq": "755.5 kHz",
            "kappa": "420 kHz",
            "eta": 0.651,
            "gamma_m": "9.7 mHz",
        },
        "critical": {"g": "17.66 Hz"},
    }
    cfg = cli.load_config(write_config(tmp_path / "c.json", doc))
    assert cfg.device.kappa_hz == 420e3
    assert cfg.device.gamma_m_hz == pytest.approx(0.0097)
    assert cfg.command == "critical"
    assert cfg.options == {"g": "17.66 Hz"}


def test_load_config_preset_and_overrides(tmp_path):
    path = write_config(tmp_path / "c.json", reference_doc(critical={}))
    cfg = cli.load_config(path, out_dir="elsewhere", seed=3)
    assert cfg.device.cavity_freq_hz == 5.318e9
    assert cfg.options == {}
    # the output directory and the seed come from the --out and --seed flags alone
    assert (cfg.out_dir, cfg.seed) == ("elsewhere", 3)
    assert (cli.load_config(path).out_dir, cli.load_config(path).seed) == (".", None)


@pytest.mark.parametrize(
    "doc",
    [
        {"device": {"preset": "reference"}, "critical": {}},  # no version
        {"version": "2", "device": {"preset": "reference"}, "critical": {}},
        {"version": "1", "critical": {}},  # no device
        {"version": "1", "device": {"preset": "reference"}},  # no command
        reference_doc(critical={}, spectrum={"g": 1}),  # two commands
        reference_doc(critical={}, extra=1),  # unknown key
        reference_doc(critical=[1, 2]),  # command block not a mapping
        {"version": "1", "device": {"eta": 0.5}, "critical": {}},  # missing fields
        {"version": "1", "device": 42, "critical": {}},
        # seed and out are flags, not config keys
        reference_doc(fit={"kind": "bare", "data": "x.csv", "add_noise_snr_db": 30}, seed="abc"),
        reference_doc(fit={"kind": "bare", "data": "x.csv", "add_noise_snr_db": 30}, seed=1.5),
        reference_doc(fit={"kind": "bare", "data": "x.csv", "add_noise_snr_db": 30}, seed=-3),
        reference_doc(critical={}, out=5),
        # option and device keys outside the documented lists
        reference_doc(spectrum={"g": "23.93 Hz", "point": 11, "scal": "log"}),
        reference_doc(critical={"G": 17.66}),
        reference_doc(sweep_g={"pionts": 10}),
        reference_doc(pulse={"g": 155.1, "sample": 1024}),
        reference_doc(fit={"kind": "bare", "data": "x.csv", "snr_db": 30}),
        {"version": "1", "device": {"preset": "reference", "eta": 0.7}, "critical": {}},
        {"version": "1", "device": {"preset": "custom"}, "critical": {}},
        {"version": "1", "critical": {}, "device": {
            "cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz", "kappa": "420 kHz",
            "eta": 0.651, "gamma_m": "9.7 mHz", "gamma": "9.7 mHz"}},
        # the axis column of the data names its kind: fit takes no frequency option
        reference_doc(fit={"kind": "bare", "data": "x.csv", "frequency": ["x"]}),
        reference_doc(critical={}, out=False),
        # a device eta past the largest float
        {"version": "1", "critical": {}, "device": {
            "cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz", "kappa": "420 kHz",
            "eta": 10**400, "gamma_m": "9.7 mHz"}},
        reference_doc(critical={}, seed="abc"),
        # vacuum_coupling, which nothing computed with, is no device key
        {"version": "1", "critical": {}, "device": {
            "cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz", "kappa": "420 kHz",
            "eta": 0.651, "gamma_m": "9.7 mHz", "vacuum_coupling": "1 Hz"}},
        # the preset is spelled {"preset": "reference"} alone, an empty block {}
        {"version": "1", "device": "reference", "critical": {}},
        reference_doc(critical=None),
    ],
)
def test_load_config_rejects(tmp_path, doc):
    path = write_config(tmp_path / "bad.json", doc)
    # refused with and without --seed
    for seed in (None, 3):
        with pytest.raises(ConfigError):
            cli.load_config(path, seed=seed)


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    array_root = tmp_path / "array.json"
    array_root.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        cli.load_config(str(array_root))
    # valid JSON, but an integer of more digits than int() reads from text
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"version": "1", "sweep_g": {"points": ' + "1" * 5000 + "}}")
    with pytest.raises(ConfigError, match="not readable JSON"):
        cli.load_config(str(long_int))


def test_load_config_rejects_bad_device_values(tmp_path):
    doc = {
        "version": "1",
        "device": {
            "cavity_freq": "5 GHz",
            "mech_freq": "755 kHz",
            "kappa": "420 kHz",
            "eta": 1.4,
            "gamma_m": "9.7 mHz",
        },
        "critical": {},
    }
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path / "c.json", doc))


@pytest.mark.parametrize(
    "value,text",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (-0.0, "-0"),
        (0.1, "0.10000000000000001"),
        (1e300, "1.0000000000000001e+300"),
        (True, "True"),
        (7, "7"),
        (None, "None"),
        ("fft", "fft"),
    ],
)
def test_fmt_spells_every_printed_value(value, text):
    # floats print with 17 significant digits, anything else as str
    assert cli._fmt(value) == text


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------

def test_critical_command_output(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", reference_doc(critical={"g": 17.66}))
    assert cli.main(["--config", path]) == 0
    out = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert float(out["critical_coupling_hz"]) == pytest.approx(17.538158398, abs=1e-6)
    assert float(out["boundary_coupling_hz"]) == pytest.approx(29.687339202, abs=1e-6)
    assert float(out["t_z_power_db"]) == pytest.approx(-49.833, abs=1e-3)
    assert out["regime"] == "delay-side-absorbing"


def test_spectrum_command_writes_csv(tmp_path):
    path = write_config(
        tmp_path / "c.json", reference_doc(spectrum={"g": 23.93, "points": 51})
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 0
    lines = (out_dir / "spectrum.csv").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert "# format=mcpa-csv/1" in header
    assert "# command=spectrum" in header
    assert any(ln.startswith("# kappa_hz=") for ln in header)
    cols = next(ln for ln in lines if not ln.startswith("#"))
    assert cols == "detuning_hz,re,im,amp_db,phase_rad,delay_s"
    data_rows = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data_rows) == 51


@pytest.mark.parametrize("ratio", [0.999, 1.001, 2.0])
def test_spectrum_delay_is_the_closed_form(tmp_path, ratio):
    # near G_c the feature is far narrower than the default grid, where a
    # finite difference of the sampled phase read -3551 s for -16391 s
    device = reference_device()
    g = ratio * model.critical_coupling(device)
    path = write_config(tmp_path / "c.json", reference_doc(spectrum={"g": g}))
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    cols, table = cli._read_table(str(tmp_path / "out" / "spectrum.csv"))
    expected = model.group_delay_curve(device, g, table[:, cols["detuning_hz"]])
    np.testing.assert_array_equal(table[:, cols["delay_s"]], expected)


@pytest.mark.parametrize(
    "command,key,written",
    [
        ("spectrum", "points", "spectrum.csv"),
        ("sweep_g", "points", "sweep_g.csv"),
        ("pulse", "samples", "pulse_input.csv"),
    ],
    # the count is set by the command block's option
    ids=["spectrum-points-spectrum.csv-option", "sweep_g-points-sweep_g.csv-option",
         "pulse-samples-pulse_input.csv-option"],
)
def test_zero_count_is_config_error(tmp_path, capsys, command, key, written):
    options = {"g": 155.1} if command != "sweep_g" else {}
    options[key] = 0
    path = write_config(tmp_path / "c.json", reference_doc(**{command: options}))
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (out_dir / written).exists()


def test_too_few_samples_names_the_smallest_count(tmp_path, capsys):
    # the probe's sampling rule dt <= sigma_t / 4 sets the smallest count at
    # this coupling; the message gives it, and it is exactly enough
    def run(samples):
        path = write_config(tmp_path / "c.json",
                            reference_doc(pulse={"g": "155.1 Hz", "samples": samples}))
        out_dir = tmp_path / str(samples)
        code = cli.main(["--config", path, "--out", str(out_dir)])
        return code, capsys.readouterr().err, sorted(p.name for p in out_dir.glob("*.csv"))

    code, err, written = run(31)
    assert code == 2 and not written
    assert err.startswith("config error: samples = 31 ")
    need = int(re.search(r"at least (\d+) samples", err).group(1))
    assert run(need - 1)[:2] == (2, err.replace("= 31 ", f"= {need - 1} "))
    assert run(need)[0] == 0


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))


def _written(out_dir):
    # critical writes no file
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[os.path.basename(c)[: -len(".json")] for c in CONFIGS]
)
def test_rerun_byte_identical(tmp_path, capsys, config):
    # the first run starts from cleared caches; the second reads the warm
    # probe and pump-off caches of a pulse config. No command that writes a
    # file draws noise, so a --seed changes no byte
    pulses._probe.cache_clear()
    pulses._pump_off_arrival.cache_clear()
    runs = []
    for name, flags in (("a", []), ("b", ["--seed", "5"])):
        out_dir = tmp_path / name
        assert cli.main(["--config", config, "--out", str(out_dir), *flags]) == 0
        stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
        runs.append((stdout, _written(out_dir)))
    assert runs[0] == runs[1]


def test_sweep_command_and_critical_sweep_fit(tmp_path, capsys):
    sweep_cfg = write_config(
        tmp_path / "sweep.json",
        reference_doc(sweep_g={"start": 5, "stop": 60, "points": 800}),
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", sweep_cfg, "--out", str(out_dir)]) == 0
    fit_cfg = write_config(
        tmp_path / "fit.json",
        reference_doc(
            fit={"kind": "critical_sweep", "data": str(out_dir / "sweep_g.csv")}
        ),
    )
    assert cli.main(["--config", fit_cfg, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit_report.json").read_text())
    assert report["critical_coupling_hz"] == pytest.approx(17.538, abs=0.01)


def test_pulse_command(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json", reference_doc(pulse={"g": 155.1, "samples": 1024})
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 0
    for name in ("pulse_input.csv", "pulse_output.csv", "pulse_reference.csv"):
        assert (out_dir / name).exists()
    out = capsys.readouterr().out
    extracted = float(out.split("extracted_delay_s=")[1].splitlines()[0])
    analytic = float(out.split("analytic_delay_s=")[1].splitlines()[0])
    assert extracted == pytest.approx(analytic, rel=0.05)


def test_pulse_command_ode_route(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json",
        reference_doc(pulse={"g": 155.1, "samples": 1024, "method": "ode"}),
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 0
    assert "# method=ode\n" in (out_dir / "pulse_output.csv").read_text()
    out = capsys.readouterr().out
    extracted = float(out.split("extracted_delay_s=")[1].splitlines()[0])
    analytic = float(out.split("analytic_delay_s=")[1].splitlines()[0])
    assert extracted == pytest.approx(analytic, rel=0.05)


@pytest.mark.parametrize("method", ["fft", "ode"])
def test_pulse_command_delay_is_extract_delay(tmp_path, capsys, method):
    # at G_c / 10 the delay is under a tenth of the probe width: timed from
    # the record start, the two arrivals would cost its last digits
    g = 1.75
    path = write_config(
        tmp_path / "c.json", reference_doc(pulse={"g": g, "samples": 1024, "method": method})
    )
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    extracted = float(out.split("extracted_delay_s=")[1].splitlines()[0])
    device = reference_device()
    config = pulses.delay_pulse_config(device, g, n_samples=1024)
    expected = pulses.extract_delay(device, g, config, method=method)
    assert extracted == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("fraction", [1e-308, 1e-300, pytest.param(10**400, id="int-past-float")])
def test_pulse_record_beyond_float_is_config_error(tmp_path, capsys, fraction):
    # 1e-308 overflowed the record (a traceback); 1e-300 overflowed the
    # probe's moments (a RuntimeWarning and a delay of 2.3e283 s); an
    # integer past the largest float was an OverflowError traceback
    path = write_config(
        tmp_path / "c.json", reference_doc(pulse={"g": "155.1 Hz", "bandwidth_fraction": fraction})
    )
    out_dir = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("fraction", [1e-14, 1e-20])
def test_pulse_probe_too_wide_for_its_delay_is_config_error(tmp_path, capsys, fraction):
    # the record's rounding would pass for the delay (1e-20 printed -3167 s
    # for a delay of 1.758 s, with exit 0)
    path = write_config(
        tmp_path / "c.json", reference_doc(pulse={"g": "155.1 Hz", "bandwidth_fraction": fraction})
    )
    out_dir = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "rounding" in err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("method", ["fft", "ode"])
@pytest.mark.parametrize("ratio,fraction", [(0.97, 0.5), (8.84, 1.0 / 32.0)])
def test_pulse_warnings_line_is_band_warnings(tmp_path, capsys, method, ratio, fraction):
    # 0.97 G_c at half the window reads "bandwidth" on the reference device,
    # but only just, so the line is compared with the library's tags, not a
    # literal; 8.84 G_c at 1/32 reads none, and the line is left out
    device = reference_device()
    g = ratio * model.critical_coupling(device)
    pulse = {"g": g, "method": method, "carrier_detuning": 0.01, "bandwidth_fraction": fraction}
    path = write_config(tmp_path / "c.json", reference_doc(pulse=pulse))
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line)
    config = pulses.delay_pulse_config(
        device, g, carrier_detuning_hz=0.01, bandwidth_fraction=fraction
    )
    expected = pulses.band_warnings(pulses.gaussian_pulse(config), device, g)
    assert lines.get("warnings") == (",".join(expected) or None)


def test_pulse_unknown_method_is_config_error(tmp_path, capsys):
    path = write_config(
        tmp_path / "c.json", reference_doc(pulse={"g": 155.1, "method": "rk4"})
    )
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "'rk4'" in capsys.readouterr().err


def test_fit_bare_roundtrip_via_cli(tmp_path):
    gen = write_config(
        tmp_path / "gen.json",
        reference_doc(
            spectrum={"g": 0, "start": "-1.2 MHz", "stop": "1.2 MHz", "points": 201}
        ),
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", gen, "--out", str(out_dir)]) == 0
    fit = write_config(
        tmp_path / "fit.json",
        reference_doc(fit={"kind": "bare", "data": str(out_dir / "spectrum.csv")}),
    )
    assert cli.main(["--config", fit, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit_report.json").read_text())
    assert report["converged"] is True
    assert report["params"]["kappa_hz"] == pytest.approx(420e3, rel=1e-6)
    assert report["params"]["eta"] == pytest.approx(0.651, rel=1e-6)


def test_fit_noise_reproducible_with_seed(tmp_path):
    gen = write_config(
        tmp_path / "gen.json",
        reference_doc(
            spectrum={"g": 0, "start": "-1.2 MHz", "stop": "1.2 MHz", "points": 201}
        ),
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", gen, "--out", str(out_dir)]) == 0
    fit = write_config(
        tmp_path / "fit.json",
        reference_doc(
            fit={
                "kind": "bare",
                "data": str(out_dir / "spectrum.csv"),
                "add_noise_snr_db": 30,
            }
        ),
    )
    reports = []
    for run_dir, seed in (("r1", "11"), ("r2", "11"), ("r3", "12")):
        assert cli.main(
            ["--config", fit, "--out", str(tmp_path / run_dir), "--seed", seed]
        ) == 0
        reports.append((tmp_path / run_dir / "fit_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]
    assert json.loads(reports[0])["seed"] == 11
    # each of re and im carries noise of rms 10^(-30/20) / sqrt(2)
    rms = json.loads(reports[0])["residual_rms"]
    assert rms == pytest.approx(10.0 ** (-30.0 / 20.0) / math.sqrt(2.0), rel=0.15)


def test_fit_amplitude_only_csv(tmp_path):
    # hand-built amplitude-only data: the report must carry the mirror
    # candidate for eta
    from mcpa import model, spectra

    device = model.reference_device()
    delta = np.linspace(-1.2e6, 1.2e6, 201)
    amp_db = 20.0 * np.log10(np.abs(model.transmission_curve(device, 0.0, delta)))
    data = tmp_path / "amponly.csv"
    rows = "\n".join(f"{d:.17g},{a:.17g}" for d, a in zip(delta, amp_db))
    data.write_text("detuning_hz,amp_db\n" + rows + "\n")
    fit = write_config(
        tmp_path / "fit.json", reference_doc(fit={"kind": "bare", "data": str(data)})
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", fit, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "fit_report.json").read_text())
    etas = sorted([report["params"]["eta"], report["alternate_params"]["eta"]])
    assert etas[0] == pytest.approx(0.349, abs=1e-3)
    assert etas[1] == pytest.approx(0.651, abs=1e-3)


# ---------------------------------------------------------------------------
# exit codes and failure handling
# ---------------------------------------------------------------------------

def test_exit_code_bad_config(tmp_path, capsys):
    path = write_config(tmp_path / "c.json", reference_doc())
    assert cli.main(["--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_domain_error(tmp_path, capsys):
    doc = {
        "version": "1",
        "device": {
            "cavity_freq": "5.318 GHz",
            "mech_freq": "755.5 kHz",
            "kappa": "420 kHz",
            "eta": 0.4,
            "gamma_m": "9.7 mHz",
        },
        "critical": {},
    }
    path = write_config(tmp_path / "c.json", doc)
    assert cli.main(["--config", path]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["1e-300 Hz", "1e200 Hz"])
def test_special_couplings_out_of_float_range_are_config_errors(tmp_path, capsys, rate):
    # G_c underflowed to 0 (a ZeroDivisionError traceback) or overflowed to
    # inf (printed with exit 0)
    doc = reference_doc(critical={})
    doc["device"] = {"cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz",
                     "kappa": rate, "eta": 0.651, "gamma_m": rate}
    path = write_config(tmp_path / "c.json", doc)
    assert cli.main(["--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error: the critical coupling")


@pytest.mark.parametrize("command", [
    {"critical": {"g": "1e300 Hz"}},
    {"sweep_g": {"start": "1 Hz", "stop": "1e300 Hz"}},
    {"sweep_g": {"stop": "1e300 Hz"}},
], ids=["critical", "sweep_g", "sweep_g-default-start"])
def test_coupling_whose_square_overflows_is_config_error(tmp_path, capsys, command):
    # G^2 overflowed: t_z=nan or NaN rows with exit 0, and a RuntimeWarning
    path = write_config(tmp_path / "c.json", reference_doc(**command))
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: coupling rate") and len(err) < 100
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("command", [
    {"pulse": {"g": "1e80 Hz"}},
    {"pulse": {"g": "1e100 Hz"}},
    {"pulse": {"g": "1e154 Hz"}},
    {"pulse": {"g": 20, "carrier_detuning": "1e300 Hz"}},
    {"pulse": {"g": 20, "carrier_detuning": math.inf}},
    {"spectrum": {"g": "1e80 Hz"}},
    {"spectrum": {"g": "1e100 Hz"}},
    {"spectrum": {"g": "1e154 Hz"}},
    {"spectrum": {"g": 0, "start": "-1e160 Hz", "stop": "1e160 Hz"}},
], ids=["pulse-1e80", "pulse-1e100", "pulse-1e154", "pulse-carrier-1e300",
        "pulse-carrier-inf", "spectrum-1e80", "spectrum-1e100", "spectrum-1e154",
        "spectrum-span-1e160"])
def test_detuning_beyond_float_range_is_config_error(tmp_path, capsys, command):
    # Delta^2 overflowed in the kernel (a RuntimeWarning, exit 1 where
    # warnings are errors); at 1e154 Hz the window overflowed and the error
    # blamed sigma_t_s or the sweep endpoints
    path = write_config(tmp_path / "c.json", reference_doc(**command))
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must lie within +/- 1.34078e+154 Hz" in err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("command", [
    {"pulse": {"g": "1e76 Hz", "samples": 1024}},
    {"spectrum": {"g": "1e76 Hz", "points": 51}},
], ids=["pulse", "spectrum"])
def test_coupling_far_above_range_within_float_range_runs(tmp_path, capsys, command):
    path = write_config(tmp_path / "c.json", reference_doc(**command))
    assert cli.main(["--config", path, "--out", str(tmp_path / "out")]) == 0
    assert "wrote" in capsys.readouterr().out


def test_pulse_without_critical_coupling_writes_nothing(tmp_path, capsys):
    doc = reference_doc(pulse={"g": 155.1, "samples": 1024})
    doc["device"] = {"cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz",
                     "kappa": "420 kHz", "eta": 0.4, "gamma_m": "9.7 mHz"}
    path = write_config(tmp_path / "c.json", doc)
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    # the writer makes the output directory: a run that fails before its
    # first write leaves none behind
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flags,code,message", [
    (None, [], 0, ""),
    ({"pulse": {"g": 20, "carrier_detuning": "1e300 Hz"}}, [], 2, "config error: "),
    # a count comes from the config alone: the parser knows no --points
    (None, ["--points", "5"], 2, "mcpa: error: unrecognized arguments: --points 5"),
], ids=["critical", "pulse-carrier-1e300", "points-flag"])
def test_entrypoint_exits_with_main_code(tmp_path, monkeypatch, capsys, command, flags, code,
                                         message):
    # the function the mcpa console script calls
    if command is None:
        path = os.path.join(REPO, "configs", "critical.json")
    else:
        path = write_config(tmp_path / "c.json", reference_doc(**command))
    monkeypatch.setattr(sys, "argv", ["mcpa", "--config", path, "--out", str(tmp_path / "o"),
                                      *flags])
    with pytest.raises(SystemExit) as caught:
        cli.entrypoint()
    assert caught.value.code == code
    err = capsys.readouterr().err
    # the parser prints its usage line before the error
    assert err.splitlines()[-1].startswith(message) if code else err == ""
    assert "Traceback" not in err
    # critical writes no file, and a failed run none: no output directory
    assert not (tmp_path / "o").exists()


def test_exit_code_missing_config(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json")]) == 4
    assert "io error" in capsys.readouterr().err


def test_exit_code_out_dir_is_a_file(tmp_path):
    blocker = tmp_path / "out"
    blocker.write_text("in the way")
    path = write_config(
        tmp_path / "c.json", reference_doc(spectrum={"g": 23.93, "points": 51})
    )
    assert cli.main(["--config", path, "--out", str(blocker)]) == 4


def test_atomic_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(cli.os, "replace", broken_replace)
    # one block of rows, and several: the rename fails after the last
    for points in (51, 3000):
        path = write_config(
            tmp_path / "c.json", reference_doc(spectrum={"g": 23.93, "points": points})
        )
        out_dir = tmp_path / f"out{points}"
        assert cli.main(["--config", path, "--out", str(out_dir)]) == 4
        assert list(out_dir.iterdir()) == []


def test_write_csv_blocks_match_whole_table(tmp_path):
    # a table that ends one row into a third block, with the extreme cells
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
    rows = np.random.default_rng(5).normal(size=(2 * cli.CSV_BLOCK_ROWS + 1, 3))
    rows.flat[: len(specials)] = specials
    rows.flat[-len(specials):] = specials
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), {"n": 1}, ["a", "b", "c"], rows)
    table = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows.tolist())
    expected = "# format=mcpa-csv/1\n# n=1\na,b,c\n" + table
    assert path.read_bytes() == expected.encode()


def test_write_csv_memory_follows_the_array(tmp_path):
    rows = np.random.default_rng(6).normal(size=(65536, 6))
    tracemalloc.start()
    try:
        cli.write_csv(str(tmp_path / "t.csv"), {}, list("abcdef"), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building the whole text (7.6 MB) at once peaked at 35 MB
    assert peak < 2 * 2**20


def test_read_table_memory_follows_the_array(tmp_path):
    rows = np.random.default_rng(7).normal(size=(8192, 6))
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), {}, list("abcdef"), rows)
    tracemalloc.start()
    try:
        cols, table = cli._read_table(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(table, rows)
    assert cols == {name: i for i, name in enumerate("abcdef")}
    # the whole text and a Python float per cell peaked at about 7 times the file
    assert peak < path.stat().st_size


def test_missing_config_flag_is_argparse_error():
    with pytest.raises(SystemExit):
        cli.main([])


def test_fit_rejects_unknown_kind(tmp_path):
    path = write_config(
        tmp_path / "c.json", reference_doc(fit={"kind": "mystery", "data": "x.csv"})
    )
    assert cli.main(["--config", path]) == 2


def test_spectrum_rejects_half_range(tmp_path, capsys):
    # with it, the other malformed spans: a scale that is not a name, and a
    # log scale on the default span, which is centred on zero detuning
    for block in (
        {"g": 23.93, "start": -1.0},
        {"g": 23.93, "scale": ["log"]},
        {"g": 23.93, "scale": "log"},
    ):
        path = write_config(tmp_path / "c.json", reference_doc(spectrum=block))
        assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "o" / "spectrum.csv").exists()


@pytest.mark.parametrize(
    "kind,data,where",
    [
        ("critical_sweep", "", "is empty"),
        ("bare", "# format=mcpa-csv/1\ndetuning_hz,re,im\n", "no data rows"),
        ("critical_sweep", "g_hz,t_z\n", "no data rows"),
        ("bare", "detuning_hz,re,im\n1,0.5,0\n2,0.5,0\n3,abc,0\n", "data row 3"),
        ("bare", "detuning_hz,re,im\n1,0.5,0\n\n2,0.5,0\n3,abc,0\n", "data row 3"),
        # the fit read the last re column
        ("bare", "detuning_hz,re,im, re\n1,0.5,0,9\n2,0.5,0,9\n", "more than one column named 're'"),
    ],
    ids=["empty", "measured-header-only", "sweep-header-only", "non-numeric-cell",
         "blank-line-not-counted", "repeated-column"],
)
def test_fit_malformed_csv_is_config_error(tmp_path, capsys, kind, data, where):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(data)
    path = write_config(
        tmp_path / "c.json", reference_doc(fit={"kind": kind, "data": str(csv_path)})
    )
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert str(csv_path) in err and where in err


@pytest.mark.parametrize(
    "kind,data",
    [
        (None, None),
        ("critical_sweep", b"g_hz,t_z\n5.0,0.5\n6.0,0.4\xff\n"),
        ("bare", b"detuning_hz,re,im\n\xff1,0.5,0\n2,0.5,0\n"),
    ],
    ids=["config", "sweep-csv", "measured-csv"],
)
def test_non_utf8_input_is_config_error(tmp_path, capsys, kind, data):
    if kind is None:
        bad = tmp_path / "c.json"
        bad.write_bytes(b'{"version": "1", "device": {"preset": "reference"}, "critical": {}}\xff')
        path = str(bad)
    else:
        bad = tmp_path / "data.csv"
        bad.write_bytes(data)
        path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": kind, "data": str(bad)}))
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(bad) in err


@pytest.mark.parametrize(
    "command,value",
    [
        ({"spectrum": {"g": 23.93, "points": "many"}}, "'many'"),
        ({"pulse": {"g": 155.1, "samples": "many"}}, "'many'"),
        ({"pulse": {"g": 155.1, "samples": 1024.5}}, "1024.5"),
        ({"sweep_g": {"points": 20.9}}, "20.9"),
        # counts past MAX_COUNT are refused before any array is allocated
        ({"spectrum": {"g": 23.93, "points": 10**13}}, str(10**13)),
        ({"pulse": {"g": 155.1, "samples": 10**13}}, str(10**13)),
        # a JSON true is no count, though int(True) is 1
        ({"spectrum": {"g": 23.93, "points": True}}, "True"),
    ],
    ids=["points", "samples", "fractional-samples", "fractional-points",
         "huge-points", "huge-samples", "bool-points"],
)
def test_non_numeric_count_is_config_error(tmp_path, capsys, command, value):
    path = write_config(tmp_path / "c.json", reference_doc(**command))
    out_dir = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and value in err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize(
    "fit",
    [
        {"kind": "bare", "data": ["bare.csv"]},
        {"kind": "bare", "data": "x.csv", "add_noise_snr_db": -7000},
        {"kind": "bare", "data": "x.csv", "add_noise_snr_db": "1e309"},
        {"kind": "bare", "data": "x.csv", "add_noise_snr_db": True},
        {"kind": "bare", "data": "x.csv", "add_noise_snr_db": 10**400},
    ],
    ids=["data-list", "snr-overflow", "snr-infinite", "snr-bool", "snr-int-past-float"],
)
def test_fit_option_of_wrong_type_is_config_error(tmp_path, capsys, fit):
    path = write_config(tmp_path / "c.json", reference_doc(fit=fit))
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error")


def _reference_table(kind, header):
    """The reference device's trace for a fit of `kind`: 30 rows of its
    cavity dip, or six rows of a coupling sweep around G_c."""
    device = reference_device()
    if kind == "critical_sweep":
        axis = np.geomspace(0.5, 2.0, 6) * model.critical_coupling(device)
        t = model.transmission_curve(device, axis, 0.0)
    else:
        axis = np.linspace(-3.0, 3.0, 30) * device.kappa_hz
        t = model.transmission_curve(device, 0.0, axis)
    channels = {"re": t.real, "im": t.imag, "t_z": np.abs(t), "amp_db": 20.0 * np.log10(np.abs(t))}
    return np.column_stack([axis, *(channels[name] for name in header[1:])])


@pytest.mark.parametrize(
    "kind,header,column,cell,named",
    [
        ("bare", ["detuning_hz", "re", "im"], 1, 1e160, "t reaches"),
        ("bare", ["detuning_hz", "amp_db"], 1, 1e308, "amplitude_db"),
        ("critical_sweep", ["g_hz", "amp_db"], 1, 1e308, "amp_db"),
        ("critical_sweep", ["g_hz", "t_z"], 1, 1e200, "t_z"),
        # re + 1j * im warned of an invalid value before the cell was refused
        ("bare", ["detuning_hz", "re", "im"], 2, math.inf, "t contains non-finite"),
    ],
    ids=["bare-re", "bare-amp-db", "sweep-amp-db", "sweep-t-z", "bare-im-inf"],
)
def test_out_of_range_fit_data_is_config_error(tmp_path, capsys, kind, header, column, cell,
                                               named):
    # values whose power or squared residual overflows a float: a config
    # error that names the column, before numpy can warn of the overflow
    table = _reference_table(kind, header)
    table[3, column] = cell
    data = tmp_path / "data.csv"
    rows = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": kind, "data": str(data)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and named in err
    if named == "amp_db":
        assert "t_z" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("kind", ["bare", "mechanical"])
def test_detuning_axis_beyond_the_kernel_range_is_config_error(tmp_path, capsys, kind):
    # the kernel squares each detuning: past sqrt(float max) the fit overflowed
    # and reported that no seed met the gradient tolerance (exit 3)
    header = ["detuning_hz", "re", "im"]
    table = _reference_table("bare", header)
    table[0, 0] = -1.3407807929942597e154
    data = tmp_path / "data.csv"
    rows = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": kind, "data": str(data)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and "fit's detuning axis" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_fit_report_is_strict_json(tmp_path, capsys):
    # every row 1e100 - 1e100 i: the window fit converges at once with no
    # sigma (NaN), which the report writes as null and stdout as nan
    axis = np.linspace(-3.0, 3.0, 30) * reference_device().kappa_hz
    data = tmp_path / "data.csv"
    rows = [f"{d!r},1e100,-1e100" for d in axis.tolist()]
    data.write_text("\n".join(["detuning_hz,re,im", *rows]) + "\n")
    path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": "mechanical", "data": str(data)}))
    out_dir = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 0
    report = _strict_json((out_dir / "fit_report.json").read_text())
    assert report["converged"] is True
    assert set(report["sigma"]) == {"gamma_m_hz", "g_hz", "center_offset_hz"}
    assert all(value is None for value in report["sigma"].values())
    assert all(math.isfinite(value) for value in report["params"].values())
    out = capsys.readouterr().out
    for name in report["sigma"]:
        assert f"sigma.{name}=nan\n" in out


def test_fit_sigma_of_a_huge_residual_is_finite(tmp_path, capsys, monkeypatch):
    # one re cell of 1e150, below the data bound: the residual variance
    # times diag((J^T J)^-1) overflowed (a RuntimeWarning, which pytest
    # raises); every seed's sigma must now be a finite float
    header = ["detuning_hz", "re", "im"]
    table = _reference_table("bare", header)
    table[3, 1] = 1e150
    data = tmp_path / "data.csv"
    rows = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": "bare", "data": str(data)}))
    sigmas = []
    solve = calibrate._levenberg_marquardt

    def recorded(*args):
        result = solve(*args)
        sigmas.append(result[1])
        return result

    monkeypatch.setattr(calibrate, "_levenberg_marquardt", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["--config", path, "--out", str(tmp_path / "o")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sigmas and all(np.all(np.isfinite(sigma)) for sigma in sigmas)
    # the outlier still stalls every seed: a typed error, not a traceback
    assert code == 3
    assert "no seed met the gradient tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [1e20, 1e100])
def test_fit_stalled_by_one_outlier_names_its_row(tmp_path, capsys, cell):
    # one re cell stalls every seed; the error keeps its text and names the
    # row that holds nearly all of the final cost, with its residual
    header = ["detuning_hz", "re", "im"]
    table = _reference_table("bare", header)
    table[3, 1] = cell
    data = tmp_path / "data.csv"
    rows = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": "bare", "data": str(data)}))
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no seed met the gradient tolerance (up to ")
    where = f"spectrum row 4 (counted from 1, at {table[3, 0]:.9g} Hz)"
    assert where in err and f"its re residual (model minus data) is {-cell:.6g}" in err


def test_fit_stall_without_an_outlier_names_no_row(monkeypatch):
    # a stall whose cost no single residual dominates keeps the plain text
    device = reference_device()
    axis = np.linspace(-3.0, 3.0, 30) * device.kappa_hz
    spectrum = calibrate.MeasuredSpectrum.from_complex(
        axis, model.transmission_curve(device, 0.0, axis) + 0.1, absolute_frequency=False
    )
    solve = calibrate._levenberg_marquardt

    def stalled(*args):
        x, sigma, history, n_iter, _ = solve(*args)
        return x, sigma, history, n_iter, False

    monkeypatch.setattr(calibrate, "_levenberg_marquardt", stalled)
    with pytest.raises(ConvergenceError) as caught:
        calibrate.fit_bare_cavity(spectrum)
    assert "row" not in str(caught.value)


# ---------------------------------------------------------------------------
# startup imports
# ---------------------------------------------------------------------------

# Runs every config named on the command line at --seed 3 in a fresh
# interpreter in which `import scipy` fails, and so does `import
# numpy.random` where `import numpy` leaves it unloaded (numpy 2 on), each
# into its own directory under argv[1], and prints each one's exit code and
# stdout (the output directory masked).
_NO_SCIPY_RUN = """
import contextlib, io, json, os, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule fails
import numpy
if "numpy.random" not in sys.modules:
    sys.modules["numpy.random"] = None
import mcpa.cli

runs = []
for config in sys.argv[2:]:
    out_dir = os.path.join(sys.argv[1], os.path.basename(config))
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = mcpa.cli.main(["--config", config, "--out", out_dir, "--seed", "3"])
    runs.append([code, stdout.getvalue().replace(out_dir, "<out>")])
print(json.dumps(runs))
"""


def test_every_config_runs_without_scipy(tmp_path, capsys):
    # the package needs numpy alone: with scipy and numpy.random unimportable
    # and a RuntimeWarning raised as an error, every command, seeded noisy
    # fits of a pump-off trace and of a mechanical window too, succeeds and
    # prints and writes what a normal run does
    noisy_fits = []
    for kind, spectrum in (
        ("bare", {"g": 0, "start": "-1.2 MHz", "stop": "1.2 MHz", "points": 201}),
        ("mechanical", {"g": "23.93 Hz", "points": 401}),
    ):
        gen = write_config(tmp_path / f"gen_{kind}.json", reference_doc(spectrum=spectrum))
        assert cli.main(["--config", gen, "--out", str(tmp_path / f"data_{kind}")]) == 0
        noisy_fits.append(write_config(tmp_path / f"noisy_fit_{kind}.json", reference_doc(fit={
            "kind": kind, "data": str(tmp_path / f"data_{kind}" / "spectrum.csv"),
            "add_noise_snr_db": 30})))
    capsys.readouterr()
    configs = [*CONFIGS, *noisy_fits]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", _NO_SCIPY_RUN,
            str(tmp_path / "blocked"), *configs]
    proc = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(configs) > 1
    for config, (code, stdout) in zip(configs, blocked):
        name = os.path.basename(config)
        out_dir = tmp_path / "normal" / name
        assert cli.main(["--config", config, "--out", str(out_dir), "--seed", "3"]) == 0
        assert (code, stdout) == (0, capsys.readouterr().out.replace(str(out_dir), "<out>")), name
        assert _written(tmp_path / "blocked" / name) == _written(out_dir), name
