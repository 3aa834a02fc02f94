"""File formats: state files, experiment configs, result serialization.

State files are JSON documents of one of two kinds::

    {"kind": "matrix", "dim": N, "re": [[...]], "im": [[...]]}
    {"kind": "bell", "c": [c1, c2, c3], "mode": "full" | "deviation"}

Experiment configs are flat ``key = value`` text files with dotted keys
(``relaxation.t1_a = 3.57``); command-line flags override file values.

All numeric output is rendered with a fixed 15-significant-digit format
so that rerunning a command with the same inputs produces byte-identical
files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bloch import BellDiagonalState
from .channels import RelaxationParams, Trajectory
from .measures import CorrelationReport
from .protocol import MeasurementRecord


class StateFormatError(ValueError):
    """A state file cannot be parsed; ``field`` names the offending part."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used for all numeric output."""
    return format(float(x), ".15g")


def _json_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    raise TypeError(f"cannot serialize {type(v)!r}")


def dump_json(value, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (insertion-ordered keys)."""
    pad = " " * indent
    if isinstance(value, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 2).lstrip()}'
                 for k, v in value.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        rendered = [dump_json(v, indent + 2).lstrip() for v in value]
        return pad + "[" + ", ".join(rendered) + "]"
    return pad + _json_scalar(value)


# ---------------------------------------------------------------------------
# state files

@dataclass(frozen=True)
class LoadedState:
    """Parsed state file: a raw matrix or a Bell-diagonal description."""

    kind: str
    matrix: np.ndarray | None = None
    bell: BellDiagonalState | None = None


def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise StateFormatError(f"{where}: missing field {key!r}", field_name=key)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):  # JSON true is no number
        raise StateFormatError(
            f"{where}: field {key!r} has type {type(value).__name__}", field_name=key
        )
    return value


def _number_array(doc: dict, key: str, where: str) -> np.ndarray:
    """Field ``key`` as a float array: a list, or list of lists, of finite JSON numbers."""
    value = _require(doc, key, list, where)
    entries = [v for item in value for v in (item if isinstance(item, list) else [item])]
    # exact types: bool is an int subclass, and a list here would nest too deep
    if not all(type(v) in (int, float) for v in entries):
        raise StateFormatError(f"{where}: field {key!r} must hold numbers only",
                               field_name=key)
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise StateFormatError(f"{where}: field {key!r} is not a numeric array ({exc})",
                               field_name=key)
    if not np.isfinite(arr).all():
        raise StateFormatError(f"{where}: field {key!r} holds non-finite numbers",
                               field_name=key)
    return arr


def load_state_file(path: str | Path) -> LoadedState:
    """Parse a state file; format problems raise StateFormatError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {path}: {exc}", field_name="file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{path}: not valid JSON ({exc})", field_name="file")
    if not isinstance(doc, dict):
        raise StateFormatError(f"{path}: top level must be an object", field_name="file")

    kind = _require(doc, "kind", str, str(path))
    if kind == "matrix":
        dim = _require(doc, "dim", int, str(path))
        re_arr = _number_array(doc, "re", str(path))
        im_arr = _number_array(doc, "im", str(path))
        if re_arr.shape != (dim, dim):
            raise StateFormatError(
                f"{path}: field 're' has shape {re_arr.shape}, expected ({dim}, {dim})",
                field_name="re",
            )
        if im_arr.shape != (dim, dim):
            raise StateFormatError(
                f"{path}: field 'im' has shape {im_arr.shape}, expected ({dim}, {dim})",
                field_name="im",
            )
        return LoadedState(kind="matrix", matrix=re_arr + 1j * im_arr)
    if kind == "bell":
        coeffs = _number_array(doc, "c", str(path))
        if coeffs.shape != (3,):
            raise StateFormatError(f"{path}: field 'c' must hold 3 numbers", field_name="c")
        mode = doc.get("mode", "full")
        if mode not in ("full", "deviation"):
            raise StateFormatError(
                f"{path}: field 'mode' must be 'full' or 'deviation', got {mode!r}",
                field_name="mode",
            )
        return LoadedState(
            kind="bell",
            bell=BellDiagonalState(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]),
                                   mode=mode),
        )
    raise StateFormatError(f"{path}: unknown kind {kind!r}", field_name="kind")


def write_state_file(path: str | Path, rho: np.ndarray) -> None:
    rho = np.asarray(rho, dtype=complex)
    doc = {
        "kind": "matrix",
        "dim": rho.shape[0],
        "re": rho.real,
        "im": rho.imag,
    }
    Path(path).write_text(dump_json(doc) + "\n")


# ---------------------------------------------------------------------------
# result serialization

def report_text(report: CorrelationReport) -> str:
    rec = report.as_record()
    lines = [f"units = {rec['units']}"]
    for key in ("d_g", "q", "theta", "q_n", "negativity"):
        value = rec[key]
        lines.append(f"{key} = {'none' if value is None else format_float(value)}")
    return "\n".join(lines)


def report_csv(report: CorrelationReport) -> str:
    rec = report.as_record()
    keys = ("d_g", "q", "theta", "q_n", "negativity", "units")
    cells = []
    for key in keys:
        value = rec[key]
        if value is None:
            cells.append("")
        elif isinstance(value, str):
            cells.append(value)
        else:
            cells.append(format_float(value))
    return ",".join(keys) + "\n" + ",".join(cells) + "\n"


def serialize_report(report: CorrelationReport, fmt: str) -> str:
    if fmt == "csv":
        return report_csv(report)
    if fmt == "json":
        return dump_json(report.as_record()) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


TRAJECTORY_HEADER = ("t", "c1", "c2", "c3", "d_g", "q", "q_n", "negativity")


def trajectory_rows(traj: Trajectory):
    for i, t in enumerate(traj.times):
        rep = traj.reports[i]
        yield {
            "t": float(t),
            "c1": float(traj.bell_coeffs[i, 0]),
            "c2": float(traj.bell_coeffs[i, 1]),
            "c3": float(traj.bell_coeffs[i, 2]),
            "d_g": rep.d_g,
            "q": rep.q,
            "q_n": rep.q_n,
            "negativity": rep.negativity,
        }


def serialize_trajectory(traj: Trajectory, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(TRAJECTORY_HEADER)]
        for row in trajectory_rows(traj):
            lines.append(
                ",".join(
                    "" if row[k] is None else format_float(row[k])
                    for k in TRAJECTORY_HEADER
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return dump_json(list(trajectory_rows(traj))) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def serialize_measurement(record: MeasurementRecord) -> str:
    return dump_json(record.as_record()) + "\n"


# ---------------------------------------------------------------------------
# experiment configuration

_CONFIG_KEYS = {
    "state.file",
    "state.c",
    "state.mode",
    "relaxation.t1_a",
    "relaxation.t2_a",
    "relaxation.t1_b",
    "relaxation.t2_b",
    "relaxation.epsilon",
    "relaxation.j_coupling",
    "grid.t_max",
    "grid.dt",
    "grid.n_points",
    "include_local_bloch",
    "output",
    "format",
}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment; keys are validated."""
    raw: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value
    return raw


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration for the evolve command."""

    state_file: str | None = None
    state_coeffs: tuple[float, float, float] | None = None
    state_mode: str = "deviation"
    relaxation: RelaxationParams = field(default_factory=RelaxationParams)
    t_max: float | None = None
    dt: float | None = None
    n_points: int = 251
    include_local_bloch: bool = False
    output: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if (self.state_file is None) == (self.state_coeffs is None):
            raise ConfigError("give exactly one of a state file and inline coefficients")
        if self.t_max is not None and self.dt is not None:
            raise ConfigError("give at most one of grid.t_max and grid.dt")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.state_mode not in ("full", "deviation"):
            raise ConfigError(
                f"state.mode must be 'full' or 'deviation', got {self.state_mode!r}"
            )


def build_config(raw: dict[str, str], overrides: dict | None = None) -> ExperimentConfig:
    """Turn raw config text plus override values into an ExperimentConfig.

    ``overrides`` (typically from command-line flags) win over file
    values; keys with value None are ignored.
    """
    cfg = ExperimentConfig()
    relax: dict[str, float] = {}

    def as_float(key: str, value: str) -> float:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")

    def as_int(key: str, value: str) -> int:
        number = as_float(key, value)
        if not number.is_integer():
            raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
        return int(number)

    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "state.file":
            cfg.state_file = value
        elif key == "state.c":
            parts = [p for p in value.replace(",", " ").split() if p]
            if len(parts) != 3:
                raise ConfigError(f"config key 'state.c': expected 3 numbers, got {value!r}")
            cfg.state_coeffs = tuple(as_float("state.c", p) for p in parts)
        elif key == "state.mode":
            cfg.state_mode = value
        elif key.startswith("relaxation."):
            relax[key.split(".", 1)[1]] = as_float(key, value)
        elif key == "grid.t_max":
            cfg.t_max = as_float(key, value)
        elif key == "grid.dt":
            cfg.dt = as_float(key, value)
        elif key == "grid.n_points":
            cfg.n_points = as_int(key, value)
        elif key == "include_local_bloch":
            cfg.include_local_bloch = _parse_bool(value, key)
        elif key == "output":
            cfg.output = value
        elif key == "format":
            cfg.format = value
    if relax:
        try:
            cfg.relaxation = replace(cfg.relaxation, **relax)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad relaxation parameters: {exc}")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "epsilon":
            cfg.relaxation = replace(cfg.relaxation, epsilon=value)
        elif hasattr(cfg, key):
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"unknown override {key!r}")
    cfg.validate()
    return cfg
