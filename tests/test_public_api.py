"""The package's public surface: `mcpa.__all__` and `mcpa.__version__`."""

import dataclasses
import os
import re

import mcpa
from mcpa import pulses

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_all_names_resolve_once_in_order():
    assert [name for name in mcpa.__all__ if not hasattr(mcpa, name)] == []
    assert len(set(mcpa.__all__)) == len(mcpa.__all__)
    assert mcpa.__all__ == sorted(mcpa.__all__)


def test_one_delay_entry_point():
    # extract_delay takes one coupling or many; the array-only name is gone
    assert "extract_delay" in mcpa.__all__
    assert "delay_curve" not in mcpa.__all__
    assert not hasattr(mcpa, "delay_curve") and not hasattr(pulses, "delay_curve")


def test_one_band_check():
    # the band check is a function of the input; a waveform carries no tags
    assert "band_warnings" in mcpa.__all__
    fields = tuple(f.name for f in dataclasses.fields(mcpa.PulseWaveform))
    assert fields == ("t0_s", "dt_s", "samples", "carrier_detuning_hz")


def test_containers_carry_no_second_source():
    # a transmission zero reads as a NaN delay_s; every device field but
    # mech_freq_hz is one the model computes with (mech_freq_hz is only
    # validated and echoed into CSV headers)
    spectrum = tuple(f.name for f in dataclasses.fields(mcpa.Spectrum))
    assert spectrum == ("x_hz", "t", "amplitude_db", "phase_rad", "delay_s")
    device = tuple(f.name for f in dataclasses.fields(mcpa.DeviceParams))
    assert device == ("cavity_freq_hz", "mech_freq_hz", "kappa_hz", "eta", "gamma_m_hz")


def test_version_matches_pyproject():
    # by regex: Python 3.10 has no tomllib
    with open(PYPROJECT, encoding="utf-8") as f:
        project = re.search(r"^\[project\]$(.*?)(?=^\[)", f.read(), re.M | re.S).group(1)
    assert mcpa.__version__ == re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
