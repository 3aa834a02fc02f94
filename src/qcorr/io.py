"""File formats: state files, evolve settings and result tables.

Each format is defined once, here:

* State files (``load_state_file``, ``write_state_file``) are UTF-8 JSON
  documents of one of two kinds, read in one binary read (a BOM or
  invalid UTF-8 is refused)::

      {"kind": "matrix", "dim": N, "re": [[...]], "im": [[...]]}
      {"kind": "bell", "c": [c1, c2, c3], "mode": "full" | "deviation"}

* Evolve settings are ``key -> text`` pairs with dotted keys
  (``relaxation.t1_a = 3.57``), read from flat ``key = value`` config
  files by ``parse_config_file``. The table ``_SETTINGS`` names every key,
  the ``ExperimentConfig`` field it sets and the parser of its text;
  ``build_config`` applies it. The evolve flags are entered under the same
  keys, so a flag value is parsed like the file value it replaces.
* Result tables (``render_table``) are columns, key -> one value per
  row, or one record, written as JSON or CSV; every command writes its
  file through ``write_output``, which writes it with one ``open``. JSON
  and CSV tables are rendered in one pass over their columns: one row
  template, filled by ``%``, with no dict per row and no call per float
  cell; ``dump_json`` writes a plain float in a list or a dict in place,
  with no call of its own.

All numeric output is rendered with a fixed 15-significant-digit format
so that rerunning a command with the same inputs produces byte-identical
files.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bloch import BellDiagonalState
from .channels import _MIN_TRANSITION_POINTS, RelaxationParams, Trajectory
from .measures import CorrelationReport


class StateFormatError(ValueError):
    """A state file cannot be parsed; the message names the offending field."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


def format_float(x: float) -> str:
    """Fixed 15-significant-digit rendering used for all numeric output."""
    return format(float(x), ".15g")


def _json_scalar(v) -> str:
    if isinstance(v, float):  # np.float64 too, a float subclass
        return format_float(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return format_float(float(v))
    raise TypeError(f"cannot serialize {type(v)!r}")


def dump_json(value, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (insertion-ordered keys)."""
    pad = " " * indent
    if isinstance(value, dict):
        items = [f'{pad}  {json.dumps(str(k))}: '
                 + (format(v, ".15g") if type(v) is float else dump_json(v, indent + 2).lstrip())
                 for k, v in value.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        # a plain float is formatted in place, anything else by a call per item
        rendered = [format(v, ".15g") if type(v) is float else dump_json(v, indent + 2).lstrip()
                    for v in value]
        return pad + "[" + ", ".join(rendered) + "]"
    return pad + _json_scalar(value)


# ---------------------------------------------------------------------------
# state files

def _require(doc: dict, key: str, kinds, where: str):
    if key not in doc:
        raise StateFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kinds):  # JSON true is no number
        raise StateFormatError(f"{where}: field {key!r} has type {type(value).__name__}")
    return value


def _number_array(doc: dict, key: str, where: str) -> np.ndarray:
    """Field ``key`` as a float array: a list, or list of lists, of finite JSON numbers."""
    value = _require(doc, key, list, where)
    # exact types: bool is an int subclass, and a list here would nest too deep
    kinds = {type(v) for item in value for v in (item if isinstance(item, list) else (item,))}
    if not kinds <= {int, float}:
        raise StateFormatError(f"{where}: field {key!r} must hold numbers only")
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise StateFormatError(f"{where}: field {key!r} is not a numeric array ({exc})")
    if not np.isfinite(arr).all():
        raise StateFormatError(f"{where}: field {key!r} holds non-finite numbers")
    return arr


def load_state_file(path: str | Path) -> np.ndarray | BellDiagonalState:
    """Parse a state file into its complex matrix or its BellDiagonalState;
    format problems raise StateFormatError."""
    where = str(path)
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise StateFormatError(f"cannot read state file {where}: {exc}")
    # a BOM stays in the text, which json.loads refuses (it would skip one in bytes), and
    # newlines are translated as a text-mode read translates them, for the error positions
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{where}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise StateFormatError(f"{where}: top level must be an object")

    kind = _require(doc, "kind", str, where)
    if kind == "matrix":
        dim = _require(doc, "dim", int, where)
        re_arr = _number_array(doc, "re", where)
        im_arr = _number_array(doc, "im", where)
        for key, arr in (("re", re_arr), ("im", im_arr)):
            if arr.shape != (dim, dim):
                raise StateFormatError(f"{where}: field {key!r} has shape {arr.shape}, "
                                       f"expected ({dim}, {dim})")
        return re_arr + 1j * im_arr
    if kind == "bell":
        coeffs = _number_array(doc, "c", where)
        if coeffs.shape != (3,):
            raise StateFormatError(f"{where}: field 'c' must hold 3 numbers")
        mode = doc.get("mode", "full")
        if mode not in ("full", "deviation"):
            raise StateFormatError(
                f"{where}: field 'mode' must be 'full' or 'deviation', got {mode!r}")
        return BellDiagonalState(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]),
                                 mode=mode)
    raise StateFormatError(f"{where}: unknown kind {kind!r}")


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
# result tables

def render_table(table: dict, fmt: str) -> str:
    """A result table as a JSON list of row objects or a CSV table (the keys as
    header, then one line per row). ``table`` maps each key to its column, a list
    or a 1-D array, whose ints or bools are written as the JSON values a list
    holds; a missing value, None in a list or NaN in an array, is an empty cell or
    JSON null. A table of single values is one record, which JSON writes as one
    object."""
    if not isinstance(next(iter(table.values())), (list, np.ndarray)):
        if fmt == "json":
            return dump_json(table) + "\n"
        table = {key: [value] for key, value in table.items()}
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown format {fmt!r}")
    # an array of ints or bools holds JSON values in both formats, as a list does
    columns = [[None if v != v else v for v in col.tolist()]
               if isinstance(col, np.ndarray) and col.dtype.kind != "f" else col
               for col in table.values()]
    # one `%` writes the float-array cells ("%.15g": only NaN contains "nan", made an
    # empty cell or null next); a second `%` puts in the texts: a list's cells, and in
    # JSON each key before its cell
    n = min(map(len, columns))  # rows, as zip counts them
    cells = ["%.15g" if isinstance(col, np.ndarray) else "%%s" for col in columns]
    if fmt == "json":
        row = "{\n" + ",\n".join("    %%s: " + cell for cell in cells) + "\n  }"
        template, missing = "[" + ", ".join([row] * n) + "]\n", "null"
        texts = []
        for key, col in zip(table, columns):
            texts.append(itertools.repeat(json.dumps(str(key)), n))
            if not isinstance(col, np.ndarray):  # as dump_json writes a row object's values
                texts.append([dump_json(v, 4).lstrip() for v in col[:n]])
    else:
        template, missing = (",".join(cells) + "\n") * n, ""
        texts = [["" if v is None else v if isinstance(v, str) else _json_scalar(v)
                  for v in col[:n]] for col in columns if not isinstance(col, np.ndarray)]
    arrays = [col[:n] for col in columns if isinstance(col, np.ndarray)]
    body = (template % tuple(np.array(arrays).T.ravel().tolist())).replace("nan", missing)
    if texts:
        body %= tuple(itertools.chain.from_iterable(zip(*texts)))
    return body if fmt == "json" else ",".join(table) + "\n" + body


def write_output(path: str | Path, text: str) -> None:
    """Write a command's result file; a path that cannot be written is a
    ConfigError naming it."""
    try:
        with open(path, "w") as file:
            file.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def report_text(report: CorrelationReport) -> str:
    rec = report.as_record()
    lines = [f"units = {rec['units']}"]
    for key in ("d_g", "q", "theta", "q_n", "negativity"):
        value = rec[key]
        lines.append(f"{key} = {'none' if value is None else format_float(value)}")
    return "\n".join(lines)


def serialize_trajectory(traj: Trajectory, fmt: str) -> str:
    """The trajectory as a result table, one row per grid point with columns
    t, c1, c2, c3, d_g, q, q_n, negativity."""
    coeffs, rep = traj.bell_coeffs, traj.reports
    return render_table({"t": traj.times, "c1": coeffs[:, 0], "c2": coeffs[:, 1],
                         "c3": coeffs[:, 2], "d_g": rep.d_g, "q": rep.q, "q_n": rep.q_n,
                         "negativity": rep.negativity}, fmt)


# ---------------------------------------------------------------------------
# evolve settings

def _text(key: str, value: str) -> str:
    return value


def _number(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")


def _integer(key: str, value: str) -> int:
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
    return int(number)


def _coefficients(key: str, value: str) -> tuple[float, float, float]:
    parts = [p for p in value.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ConfigError(f"config key {key!r}: expected 3 numbers, got {value!r}")
    return tuple(_number(key, p) for p in parts)


def _boolean(key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"config key {key!r}: expected a boolean, got {value!r}")


#: config key -> (field it sets, parser of its text); a ``relaxation.*`` key
#: sets that field of ``RelaxationParams``, every other key one of ``ExperimentConfig``
_SETTINGS = {
    "state.file": ("state_file", _text),
    "state.c": ("state_coeffs", _coefficients),
    "state.mode": ("state_mode", _text),
    **{f"relaxation.{f.name}": (f.name, _number) for f in fields(RelaxationParams)},
    "grid.t_max": ("t_max", _number),
    "grid.dt": ("dt", _number),
    "grid.n_points": ("n_points", _integer),
    "include_local_bloch": ("include_local_bloch", _boolean),
    "output": ("output", _text),
    "format": ("format", _text),
}


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
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = value
    return raw


#: peak memory of ``evolve`` per grid point: about 0.85 KB with CSV, 0.88 KB with JSON (peak
#: RSS of one in-process run at 80k points, less the 30 MB after import); the estimate is
#: the one made when JSON output built a dict per row and took 1.66 KB, kept for the cap
EVOLVE_BYTES_PER_POINT = 1700
#: memory ``evolve`` may take for its grid, and the point count that this caps
EVOLVE_MEMORY_BUDGET = 2**30
MAX_POINTS = EVOLVE_MEMORY_BUDGET // EVOLVE_BYTES_PER_POINT


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
        if self.n_points < _MIN_TRANSITION_POINTS:  # refused before anything is computed
            raise ConfigError(f"grid.n_points must be at least {_MIN_TRANSITION_POINTS} "
                              f"points for the transition search, got {self.n_points}")
        if self.n_points > MAX_POINTS:  # refused before anything is allocated
            raise ConfigError(
                f"grid.n_points {self.n_points} is above the cap of {MAX_POINTS} points "
                f"(about {EVOLVE_BYTES_PER_POINT} bytes each in {EVOLVE_MEMORY_BUDGET >> 20} MiB)"
            )


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Parse ``key -> text`` settings into a validated ExperimentConfig."""
    cfg = ExperimentConfig()
    relax: dict[str, float] = {}
    for key, value in raw.items():
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _SETTINGS[key]
        if key.startswith("relaxation."):
            relax[name] = parse(key, value)
        else:
            setattr(cfg, name, parse(key, value))
    try:
        cfg.relaxation = RelaxationParams(**relax)
    except ValueError as exc:
        raise ConfigError(f"bad relaxation parameters: {exc}")
    cfg.validate()
    return cfg
