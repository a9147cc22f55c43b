"""CLI tests: config parsing, command execution, exit codes, determinism.

All invocations run in-process through cli.main so coverage and
monkeypatching work; the console entry point is the same function.
"""

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mcpa import cli, model, pulses, reference_device
from mcpa.errors import ConfigError


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
    "text", ["fast", "17 THz", "MHz", "1..2 Hz", None, True, [1.0], "420 KHZ", "9.7 mhz"]
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
    path = write_config(tmp_path / "c.json", reference_doc(critical=None, seed=7))
    cfg = cli.load_config(path, out_dir="elsewhere", seed=99, points=55)
    assert cfg.device.cavity_freq_hz == 5.318e9
    assert cfg.options == {}  # critical has no count option to override
    assert cfg.out_dir == "elsewhere"
    assert cfg.seed == 99  # CLI flag beats the config value
    # --points becomes the command's count option, beating the config value
    for command, key in (("spectrum", "points"), ("sweep_g", "points"), ("pulse", "samples")):
        path = write_config(tmp_path / f"{command}.json", reference_doc(**{command: {key: 7}}))
        assert cli.load_config(path, points=55).options == {key: 55}
        assert cli.load_config(path).options == {key: 7}


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
    ],
)
def test_load_config_rejects(tmp_path, doc):
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path / "bad.json", doc))


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    array_root = tmp_path / "array.json"
    array_root.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        cli.load_config(str(array_root))


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


def test_points_flag_overrides_config(tmp_path):
    path = write_config(
        tmp_path / "c.json", reference_doc(spectrum={"g": 23.93, "points": 51})
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir), "--points", "31"]) == 0
    rows = [
        ln
        for ln in (out_dir / "spectrum.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert len(rows) == 1 + 31


@pytest.mark.parametrize("source", ["flag", "option"])
@pytest.mark.parametrize(
    "command,key,written",
    [
        ("spectrum", "points", "spectrum.csv"),
        ("sweep_g", "points", "sweep_g.csv"),
        ("pulse", "samples", "pulse_input.csv"),
    ],
)
def test_zero_count_is_config_error(tmp_path, capsys, source, command, key, written):
    options = {"g": 155.1} if command != "sweep_g" else {}
    argv = ["--points", "0"] if source == "flag" else []
    if source == "option":
        options[key] = 0
    path = write_config(tmp_path / "c.json", reference_doc(**{command: options}))
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not (out_dir / written).exists()


def test_too_few_samples_names_the_smallest_count(tmp_path, capsys):
    # the probe's sampling rule dt <= sigma_t / 4 sets the smallest count at
    # this coupling; the message gives it, and it is exactly enough
    path = write_config(tmp_path / "c.json", reference_doc(pulse={"g": "155.1 Hz"}))

    def run(samples):
        out_dir = tmp_path / str(samples)
        code = cli.main(["--config", path, "--out", str(out_dir), "--points", str(samples)])
        return code, capsys.readouterr().err, sorted(p.name for p in out_dir.glob("*.csv"))

    code, err, written = run(31)
    assert code == 2 and not written
    assert err.startswith("config error: samples = 31 ")
    need = int(re.search(r"at least (\d+) samples", err).group(1))
    assert run(need - 1)[:2] == (2, err.replace("= 31 ", f"= {need - 1} "))
    assert run(need)[0] == 0


def test_spectrum_rerun_byte_identical(tmp_path):
    path = write_config(
        tmp_path / "c.json", reference_doc(spectrum={"g": 17.66, "points": 101})
    )
    assert cli.main(["--config", path, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["--config", path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "spectrum.csv").read_bytes()
    b = (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert a == b


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


def test_pulse_without_critical_coupling_writes_nothing(tmp_path, capsys):
    doc = reference_doc(pulse={"g": 155.1, "samples": 1024})
    doc["device"] = {"cavity_freq": "5.318 GHz", "mech_freq": "755.5 kHz",
                     "kappa": "420 kHz", "eta": 0.4, "gamma_m": "9.7 mHz"}
    path = write_config(tmp_path / "c.json", doc)
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out_dir.glob("pulse_*.csv"))


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
    path = write_config(
        tmp_path / "c.json", reference_doc(spectrum={"g": 23.93, "points": 51})
    )
    out_dir = tmp_path / "out"
    assert cli.main(["--config", path, "--out", str(out_dir)]) == 4
    assert list(out_dir.iterdir()) == []


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
    ],
    ids=["empty", "measured-header-only", "sweep-header-only", "non-numeric-cell"],
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
        bad.write_bytes(b'{"version": "1", "device": "reference", "critical": {}}\xff')
        path = str(bad)
    else:
        bad = tmp_path / "data.csv"
        bad.write_bytes(data)
        path = write_config(tmp_path / "c.json", reference_doc(fit={"kind": kind, "data": str(bad)}))
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(bad) in err


@pytest.mark.parametrize(
    "command,argv,value",
    [
        ({"spectrum": {"g": 23.93, "points": "many"}}, [], "'many'"),
        ({"pulse": {"g": 155.1, "samples": "many"}}, [], "'many'"),
        ({"pulse": {"g": 155.1, "samples": 1024.5}}, [], "1024.5"),
        ({"sweep_g": {"points": 20.9}}, [], "20.9"),
        # counts past MAX_COUNT are refused before any array is allocated
        ({"spectrum": {"g": 23.93, "points": 10**13}}, [], str(10**13)),
        ({"pulse": {"g": 155.1, "samples": 10**13}}, [], str(10**13)),
        ({"pulse": {"g": 155.1}}, ["--points", str(10**13)], str(10**13)),
        # a JSON true is no count, though int(True) is 1
        ({"spectrum": {"g": 23.93, "points": True}}, [], "True"),
    ],
    ids=["points", "samples", "fractional-samples", "fractional-points",
         "huge-points", "huge-samples", "huge-points-flag", "bool-points"],
)
def test_non_numeric_count_is_config_error(tmp_path, capsys, command, argv, value):
    path = write_config(tmp_path / "c.json", reference_doc(**command))
    out_dir = tmp_path / "o"
    assert cli.main(["--config", path, "--out", str(out_dir), *argv]) == 2
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
    ],
    ids=["data-list", "snr-overflow", "snr-infinite", "snr-bool"],
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
    "kind,header,cell,named",
    [
        ("bare", ["detuning_hz", "re", "im"], 1e160, "t reaches"),
        ("bare", ["detuning_hz", "amp_db"], 1e308, "amplitude_db"),
        ("critical_sweep", ["g_hz", "amp_db"], 1e308, "amp_db"),
        ("critical_sweep", ["g_hz", "t_z"], 1e200, "t_z"),
    ],
    ids=["bare-re", "bare-amp-db", "sweep-amp-db", "sweep-t-z"],
)
def test_out_of_range_fit_data_is_config_error(tmp_path, capsys, kind, header, cell, named):
    # values whose power or squared residual overflows a float: a config
    # error that names the column, before numpy can warn of the overflow
    table = _reference_table(kind, header)
    table[3, 1] = cell
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


# ---------------------------------------------------------------------------
# startup imports
# ---------------------------------------------------------------------------

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter and prints, after each step, its exit code,
# whether scipy.signal has been imported and whether any scipy module has.
# A pulse step that succeeds also shows that the function-local import in
# `pulses` is in place: without it the name `ztbtrs` would be unbound there.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import mcpa, mcpa.cli

def loaded():
    return ["scipy.signal" in sys.modules, any(m.split(".")[0] == "scipy" for m in sys.modules)]

steps = [["import", 0, *loaded()]]
for name, config in zip(sys.argv[2::2], sys.argv[3::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mcpa.cli.main(["--config", config, "--out", sys.argv[1]])
    steps.append([name, code, *loaded()])
print(json.dumps(steps))
"""


def test_scipy_loads_only_for_ode_pulses(tmp_path):
    # scipy.signal never loads; scipy.linalg loads for the ode route's
    # banded solve, and nothing else needs scipy
    ode = write_config(
        tmp_path / "ode.json",
        reference_doc(pulse={"g": 155.1, "samples": 1024, "method": "ode"}),
    )
    configs = [
        ("critical", "configs/critical.json"),
        ("spectrum", "configs/spectrum.json"),
        ("sweep_g", "configs/sweep_g.json"),
        ("pulse-fft", "configs/pulse.json"),
        ("pulse-ode", ode),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    argv = [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out")]
    argv += [item for pair in configs for item in pair]
    proc = subprocess.run(argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import", 0, False, False],
        ["critical", 0, False, False],
        ["spectrum", 0, False, False],
        ["sweep_g", 0, False, False],
        ["pulse-fft", 0, False, False],
        ["pulse-ode", 0, False, True],
    ]
