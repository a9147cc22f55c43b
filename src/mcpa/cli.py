"""Config-driven command-line front end.

A run is described by a small JSON document: a device block and exactly
one command block (critical, spectrum, sweep_g, pulse, or fit); the output
directory and the seed are flags. Frequencies anywhere in the config accept
unit suffixes (mHz, Hz, kHz, MHz, GHz) and are normalized to Hz.

CSV outputs are written atomically (temp file + rename), start with a
comment header carrying the format version and the full device parameters,
and format floats with 17 significant digits, so identical configs produce
byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical/domain error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import array
import csv
import io
import json
import math
import os
import random
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Any

import numpy as np

from . import calibrate, model, pulses, spectra
from .errors import ConfigError, McpaError, ParameterError
from .model import DeviceParams

FORMAT_VERSION = "1"
CSV_FORMAT_TAG = "mcpa-csv/1"
# the options each command block accepts, as listed in the README
OPTIONS = {
    "critical": ("g",),
    "spectrum": ("g", "start", "stop", "points", "scale"),
    "sweep_g": ("start", "stop", "points", "scale"),
    "pulse": ("g", "method", "samples", "carrier_detuning", "bandwidth_fraction"),
    "fit": ("kind", "data", "add_noise_snr_db"),
}
COMMANDS = tuple(OPTIONS)
#: the largest `points` or `samples` count a config may ask for
MAX_COUNT = 2**22
#: data rows `write_csv` formats and writes at a time
CSV_BLOCK_ROWS = 1024

_UNIT_SCALE = {"mHz": 1e-3, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_FREQ_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*(mHz|Hz|kHz|MHz|GHz)?\s*$")


def parse_frequency(value: Any) -> float:
    """Normalize a config frequency (number, or string with unit suffix) to Hz."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the largest float
            raise ConfigError(f"frequency {value!r} lies beyond float range") from None
    if isinstance(value, str):
        m = _FREQ_RE.match(value)
        if m:
            try:
                number = float(m.group(1))
            except ValueError:
                raise ConfigError(f"cannot parse frequency {value!r}") from None
            return number * _UNIT_SCALE[m.group(2) or "Hz"]
    raise ConfigError(f"cannot parse frequency {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description."""

    device: DeviceParams
    command: str
    options: dict[str, Any]
    out_dir: str
    seed: int | None


def _build_device(block: Any) -> DeviceParams:
    """The preset, or one key per DeviceParams field: the field's name
    without its `_hz` suffix, which marks a frequency."""
    if block == {"preset": "reference"}:
        return model.reference_device()
    if not isinstance(block, dict):
        raise ConfigError("device block must be a mapping")
    keys = {f.name.removesuffix("_hz"): f.name for f in fields(DeviceParams)}
    unknown = set(block) - set(keys)
    if unknown:
        raise ConfigError(f"unknown device keys {sorted(unknown)}; a device block is "
                          f"{{'preset': 'reference'}} alone or keys out of {tuple(keys)}")
    try:
        return DeviceParams(**{
            name: (parse_frequency if name.endswith("_hz") else float)(block[key])
            for key, name in keys.items()
        })
    except KeyError as exc:
        raise ConfigError(f"device block is missing {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise ConfigError(f"bad device block: {exc}") from None


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; bytes that do not decode are a
    ConfigError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def load_config(path: str, *, out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Read and validate a JSON run config; `out_dir` (default the working
    directory) and `seed` are the --out and --seed flags."""
    try:
        doc = json.loads(_read_text(path))
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise ConfigError(f"config is not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported config version {version!r}; this build reads version {FORMAT_VERSION!r}"
        )
    if "device" not in doc:
        raise ConfigError("config needs a device block")
    present = [k for k in COMMANDS if k in doc]
    if len(present) != 1:
        raise ConfigError(
            f"config must contain exactly one command block out of {COMMANDS}, found {present or 'none'}"
        )
    command = present[0]
    options = doc[command]
    if not isinstance(options, dict):
        raise ConfigError(f"{command} block must be a mapping")
    unknown = set(options) - set(OPTIONS[command])
    if unknown:
        raise ConfigError(f"unknown {command} options {sorted(unknown)}; it takes {OPTIONS[command]}")
    unknown = set(doc) - set(COMMANDS) - {"version", "device"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return RunConfig(
        device=_build_device(doc["device"]),
        command=command,
        options=options,
        out_dir=out_dir or ".",
        seed=seed,
    )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value: Any) -> str:
    """A float to 17 significant digits (nan, inf, -inf, -0 too), else str."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _header(cfg: RunConfig, **extras: Any) -> dict[str, Any]:
    """CSV header entries: the command, the device's fields, then `extras`."""
    return {"command": cfg.command, **asdict(cfg.device), **extras}


def _print_values(values: dict[str, Any]) -> None:
    """Print one `key=value` line per entry; a nested mapping prints as
    `key.sub=value` lines."""
    for key, value in values.items():
        if isinstance(value, dict):
            _print_values({f"{key}.{sub}": v for sub, v in value.items()})
        else:
            print(f"{key}={_fmt(value)}")


def _atomic_write(path: str, pieces) -> None:
    """Write the text `pieces`, in order, to a temp file in the directory of
    `path` (made if missing), then rename it over `path`, so a failed write
    leaves no partial file behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, meta: dict[str, Any], columns: list[str], rows) -> None:
    """Atomic CSV write: header comment block, column row, data rows. The
    rows are formatted CSV_BLOCK_ROWS at a time, so the text of the whole
    table is never held in memory."""
    head = io.StringIO()
    head.write(f"# format={CSV_FORMAT_TAG}\n")
    for key, value in meta.items():
        head.write(f"# {key}={_fmt(value)}\n")
    csv.writer(head, lineterminator="\n").writerow(columns)
    table = np.asarray(rows, dtype=float)
    cell = "{:.17g}".format

    def pieces():
        yield head.getvalue()
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start : start + CSV_BLOCK_ROWS].tolist()
            yield "".join(",".join(map(cell, row)) + "\n" for row in block)

    _atomic_write(path, pieces())


def _read_table(path: str) -> tuple[dict[str, int], np.ndarray]:
    """Column index by header name and the numeric data rows of a CSV file.

    Lines starting with '#' are comments. The file is read a line at a time
    into one flat array of doubles. An empty file, a header that names a
    column twice, a header without data rows, a row of the wrong length, a
    non-numeric cell or bytes that are not UTF-8 are a ConfigError naming
    the file (and the data row, counted from 1).
    """
    cells = array.array("d")
    n_rows = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader, None)
            if header is None:
                raise ConfigError(f"{path} is empty")
            columns: dict[str, int] = {}
            for i, name in enumerate(header):
                if columns.setdefault(name.strip(), i) != i:
                    raise ConfigError(f"{path} has more than one column named {name.strip()!r}")
            for row in reader:
                if not row:
                    continue
                n_rows += 1
                if len(row) != len(header):
                    raise ConfigError(f"{path} data row {n_rows} has {len(row)} cells, "
                                      f"the header has {len(header)}")
                try:
                    cells.extend(map(float, row))
                except ValueError as exc:
                    raise ConfigError(f"{path} data row {n_rows}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    if not n_rows:
        raise ConfigError(f"{path} has a header but no data rows")
    table = np.frombuffer(cells, dtype=float).reshape(n_rows, len(header))
    return columns, table


def read_measured_csv(path: str) -> calibrate.MeasuredSpectrum:
    """Load a MeasuredSpectrum from CSV.

    Accepts a frequency column frequency_hz (absolute) or detuning_hz, plus
    either (re, im) or (amp_db [, phase_rad]). Comment lines start with '#'.
    """
    cols, data = _read_table(path)
    if "frequency_hz" in cols:
        freq_col, is_absolute = cols["frequency_hz"], True
    elif "detuning_hz" in cols:
        freq_col, is_absolute = cols["detuning_hz"], False
    else:
        raise ConfigError(f"{path} has neither a frequency_hz nor a detuning_hz column")
    freq = data[:, freq_col]
    if "re" in cols and "im" in cols:
        # not re + 1j * im, where an infinite im cell warns before it is refused
        values = data[:, cols["re"]].astype(complex)
        values.imag = data[:, cols["im"]]
        return calibrate.MeasuredSpectrum.from_complex(freq, values, absolute_frequency=is_absolute)
    if "amp_db" in cols:
        phase = data[:, cols["phase_rad"]] if "phase_rad" in cols else None
        return calibrate.MeasuredSpectrum.from_polar(
            freq, data[:, cols["amp_db"]], phase, absolute_frequency=is_absolute
        )
    raise ConfigError(f"{path} needs (re, im) or amp_db columns")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _number(options: dict, key: str, default, kind=int):
    """Option `key` converted by `kind`; an unconvertible value (an int past
    the largest float too), a JSON true or false, or a count (kind int) that
    is not a whole number or exceeds MAX_COUNT, is a ConfigError."""
    value = options.get(key, default)
    try:
        # int(True) is 1: a bool is no number here
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "a whole number" if kind is int else "a number within float range"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    if kind is int and number > MAX_COUNT:
        raise ConfigError(f"{key} must be at most {MAX_COUNT}, got {value!r}")
    return number


def _coupling_from(options: dict) -> float:
    if "g" not in options:
        raise ConfigError("command block needs a 'g' entry")
    return parse_frequency(options["g"])


def cmd_critical(cfg: RunConfig) -> int:
    device = cfg.device
    gc = model.critical_coupling(device)
    gb = model.boundary_coupling(device)
    lines = {
        "critical_coupling_hz": gc,
        "boundary_coupling_hz": gb,
        "boundary_to_critical_ratio": gb / gc,
    }
    if "g" in cfg.options:
        g = _coupling_from(cfg.options)
        tz = float(model.transmission_curve(device, g, 0.0).real)
        result = model.classify_regime(device, g)
        lines["g_hz"] = g
        lines["t_z"] = tz
        lines["t_z_power_db"] = 20.0 * math.log10(abs(tz)) if tz != 0.0 else -math.inf
        lines["regime"] = result.regime.value
        lines["at_boundary"] = result.at_boundary
    _print_values(lines)
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    device = cfg.device
    g = _coupling_from(cfg.options)
    n = _number(cfg.options, "points", 2001)
    scale = cfg.options.get("scale", "linear")
    if "start" in cfg.options or "stop" in cfg.options:
        if not ("start" in cfg.options and "stop" in cfg.options):
            raise ConfigError("give both start and stop, or neither")
        x = spectra.grid(parse_frequency(cfg.options["start"]),
                         parse_frequency(cfg.options["stop"]), n, scale)
    elif scale != "linear":
        raise ConfigError(
            f"scale {scale!r} needs start and stop: the default span is linear and "
            "centred on zero detuning"
        )
    else:
        x = spectra.detuning_span(device, g, n_points=n)
    result = spectra.sweep_detuning(device, g, x)
    rows = np.column_stack([result.x_hz, result.t.real, result.t.imag,
                            result.amplitude_db, result.phase_rad, result.delay_s])
    path = os.path.join(cfg.out_dir, "spectrum.csv")
    write_csv(path, _header(cfg, g_hz=g, n_points=n, scale=scale),
              ["detuning_hz", "re", "im", "amp_db", "phase_rad", "delay_s"], rows)
    print(f"wrote {path} ({len(result)} rows)")
    return 0


def cmd_sweep_g(cfg: RunConfig) -> int:
    n = _number(cfg.options, "points", 2000)
    scale = cfg.options.get("scale", "log")
    g = spectra.grid(parse_frequency(cfg.options.get("start", 5.0)),
                     parse_frequency(cfg.options.get("stop", 60.0)), n, scale)
    result = spectra.sweep_coupling_resonance(cfg.device, g)
    rows = np.column_stack([result.x_hz, result.t.real, result.amplitude_db,
                            result.phase_rad, result.delay_s])
    path = os.path.join(cfg.out_dir, "sweep_g.csv")
    write_csv(path, _header(cfg, n_points=n, scale=scale),
              ["g_hz", "t_z", "amp_db", "phase_rad", "delay_s"], rows)
    print(f"wrote {path} ({len(result)} rows)")
    return 0


def cmd_pulse(cfg: RunConfig) -> int:
    device = cfg.device
    g = _coupling_from(cfg.options)
    method = cfg.options.get("method", "fft")
    carrier = parse_frequency(cfg.options.get("carrier_detuning", 0.0))
    n = _number(cfg.options, "samples", 4096)
    fraction = _number(cfg.options, "bandwidth_fraction", pulses.DELAY_BANDWIDTH_FRACTION, float)
    pulse_cfg = pulses.delay_pulse_config(
        device, g, carrier_detuning_hz=carrier, bandwidth_fraction=fraction, n_samples=n
    )
    # before any file is written: a device with no critical coupling fails here
    regime = model.classify_regime(device, g).regime.value
    # the library's delay, timed on the probe's decimated grid (and a bad
    # method refused before any propagation); the CSVs keep every sample
    tau = pulses.extract_delay(device, g, pulse_cfg, method=method)
    run = pulses.propagate if method == "fft" else pulses.integrate_langevin
    pulse = pulses.gaussian_pulse(pulse_cfg)
    out, ref = run(pulse, device, g), run(pulse, device, 0.0)
    meta = _header(cfg, g_hz=g, carrier_detuning_hz=carrier, method=method,
                   sigma_t_s=pulse_cfg.sigma_t_s, dt_s=pulse_cfg.dt_s)
    columns = ["time_s", "re", "im", "abs"]
    for name, w in (("pulse_input", pulse), ("pulse_output", out), ("pulse_reference", ref)):
        rows = np.column_stack([w.times_s, w.samples.real, w.samples.imag, np.abs(w.samples)])
        write_csv(os.path.join(cfg.out_dir, f"{name}.csv"), meta, columns, rows)
    values = {
        "extracted_delay_s": tau,
        "analytic_delay_s": float(model.group_delay_curve(device, g, carrier)),
        "regime": regime,
    }
    tags = pulses.band_warnings(pulse, device, g)
    if tags:
        values["warnings"] = ",".join(tags)
    _print_values(values)
    print(f"wrote {cfg.out_dir}/pulse_input.csv, pulse_output.csv, pulse_reference.csv")
    return 0


def _finite_or_null(value: Any) -> Any:
    """`value` with each non-finite float, in it or in its nested dicts, as
    None: JSON has no NaN or Infinity, so the report writes null there."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def cmd_fit(cfg: RunConfig) -> int:
    options = cfg.options
    kind = options.get("kind")
    if kind not in ("bare", "mechanical", "critical_sweep"):
        raise ConfigError("fit kind must be 'bare', 'mechanical', or 'critical_sweep'")
    if "data" not in options:
        raise ConfigError("fit block needs a 'data' path")
    data_path = options["data"]
    if not isinstance(data_path, str):
        raise ConfigError(f"fit data must be a path string, got {data_path!r}")
    report: dict[str, Any] = {"kind": kind, "data": data_path}
    if kind == "critical_sweep":
        if "add_noise_snr_db" in options:
            raise ConfigError("add_noise_snr_db does not apply to a critical_sweep fit")
        cols, table = _read_table(data_path)
        if "g_hz" not in cols:
            raise ConfigError(f"{data_path} has no g_hz column")
        g = table[:, cols["g_hz"]]
        if "t_z" in cols:
            name, top = "t_z", math.sqrt(sys.float_info.max)
        elif "amp_db" in cols:
            name, top = "amp_db", 10.0 * sys.float_info.max_10_exp
        else:
            raise ConfigError(f"{data_path} needs a t_z or amp_db column")
        values = table[:, cols[name]]
        # the power |t_z|^2 or 10^(amp_db / 10) must be a finite float (a
        # very negative amp_db only underflows to 0)
        if not np.all((np.abs(values) if name == "t_z" else values) <= top):
            raise ConfigError(f"{data_path} {name} values must be numbers up to {top:.6g}")
        power = np.square(values) if name == "t_z" else 10.0 ** (values / 10.0)
        report["critical_coupling_hz"] = calibrate.infer_critical_from_sweep(g, power)
    else:
        snr_db = options.get("add_noise_snr_db")
        if snr_db is not None:
            snr_db = _number(options, "add_noise_snr_db", None, float)
            # a noise level 10^(-snr/20) in [1e-154, 1e154] neither overflows
            # nor vanishes where it is drawn and added
            if not abs(snr_db) <= 3080.0:
                raise ConfigError(f"add_noise_snr_db must lie in [-3080, 3080] dB, got {snr_db!r}")
        measured = read_measured_csv(data_path)
        if snr_db is not None:
            report["add_noise_snr_db"] = snr_db
            report["seed"] = cfg.seed
            # the standard library's generator: numpy.random costs every
            # process that imports it about 5 MB
            gauss = random.Random(cfg.seed).gauss
            level = 10.0 ** (-snr_db / 20.0)
            n = len(measured.frequency_hz)
            re_part = np.array([gauss(0.0, 1.0) for _ in range(n)])
            im_part = np.array([gauss(0.0, 1.0) for _ in range(n)])
            noise = level / math.sqrt(2.0) * (re_part + 1j * im_part)
            # the noisy trace keeps the data's form; amplitude-only data gets |a + n|
            values = (measured.complex_values() if measured.has_phase
                      else measured.amplitude()) + noise
            if measured.t is not None:
                measured = replace(measured, t=values)
            else:
                measured = replace(measured, amplitude_db=spectra._amplitude_db(np.abs(values)),
                                   phase_rad=np.angle(values) if measured.has_phase else None)
        if kind == "bare":
            fit = calibrate.fit_bare_cavity(measured)
        else:
            fit = calibrate.fit_mechanical_window(measured, cfg.device)
        report["params"] = fit.params
        report["sigma"] = fit.sigma
        report["residual_rms"] = fit.residual_rms
        report["n_iterations"] = fit.n_iterations
        report["converged"] = fit.converged
        if fit.alternate is not None:
            report["alternate_params"] = fit.alternate.params
            report["alternate_residual_rms"] = fit.alternate.residual_rms
    report_text = json.dumps(
        _finite_or_null(report), indent=2, sort_keys=True, allow_nan=False
    ) + "\n"
    _atomic_write(os.path.join(cfg.out_dir, "fit_report.json"), (report_text,))
    _print_values(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcpa",
        description="Electromechanical cavity response: spectra, resonance sweeps, "
        "pulse propagation, and calibration fits, driven by a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="random seed for noise workflows")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
        # looked up at call time, so a rebound cmd_<command> is the one run
        return globals()[f"cmd_{cfg.command}"](cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except McpaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
