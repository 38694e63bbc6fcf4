"""CSV serialization for time series, mode lists, spectra, and window tracks.

Every float is written with 17 significant digits, so write -> read round
trips reproduce values bit-exactly.  All files start with one ``#`` header
line of space-separated key=value metadata, then an optional line of column
names, then rows of comma-separated floats.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Sequence

import numpy as np

from .decompose import Mode, _mode_columns
from .glide import ModeTrack
from .kds import Spectrum
from .signals import TimeSeries

__all__ = [
    "MalformedFileError",
    "write_timeseries",
    "read_timeseries",
    "write_modes",
    "read_modes",
    "write_spectrum",
    "read_spectrum",
    "write_tracks",
    "read_tracks",
]

# rows formatted per write call: bounds the text held in memory at once
_CHUNK_ROWS = 2**16


class MalformedFileError(ValueError):
    """Input file that does not follow the CSV table format."""


def _meta_line(pairs: dict) -> str:
    parts = []
    for key, value in pairs.items():
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, float):
            text = "%.17g" % value
        else:
            text = str(value)
        if " " in text:
            raise ValueError(f"metadata value may not contain spaces: {text!r}")
        parts.append(f"{key}={text}")
    return "# " + " ".join(parts)


def _parse_meta(line: str) -> dict:
    meta: dict = {}
    for token in line.lstrip("#").split():
        key, _, raw = token.partition("=")
        for cast in (int, float):
            try:
                meta[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            if raw in ("true", "false"):
                meta[key] = raw == "true"
            else:
                meta[key] = raw
    return meta


def _write_table(path, header: str, columns, names=None) -> None:
    """Write the header line, the optional column names, then the float rows.

    ``columns`` is a sequence of equal-length 1-D arrays, one per CSV column.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        if names is not None:
            fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = zip(*(col[lo : lo + _CHUNK_ROWS].tolist() for col in columns))
            fh.write("".join(map(row.__mod__, chunk)))


def _header_number(path, meta: dict, key: str, positive: bool, default=None) -> float:
    """Header value ``key`` (``default`` if absent): finite, and > 0 if ``positive``."""
    value = meta.get(key, default)
    low, kind = (0, "positive") if positive else (-math.inf, "finite")
    if type(value) not in (int, float) or not low < value < math.inf:
        raise MalformedFileError(
            f"{path}, line 1: header needs {key}=<{kind} number>, got {value!r}"
        )
    return float(value)


def _data_lines(path, skip: int) -> list:
    """(1-based line number, comma-split fields) of each data row after ``skip`` lines."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        # loadtxt skips blank lines and drops '#' comments
        texts = [(lineno, line.split("#")[0]) for lineno, line in enumerate(fh, 1)]
    return [(n, text.split(",")) for n, text in texts[skip:] if text.strip()]


def _first_bad_line(path, skip: int):
    """1-based number of the first data line that is non-numeric or ragged."""
    rows = _data_lines(path, skip)
    for lineno, fields in rows:
        try:
            list(map(float, fields))
        except ValueError:
            return lineno
        if len(fields) != len(rows[0][1]):
            return lineno
    return None


def _read_table(path, with_names: bool):
    """Header metadata, column names (or None) and the (rows, columns) floats."""
    skip = 2 if with_names else 1
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise MalformedFileError(f"{path}, line 1: expected a '#' header line")
        meta = _parse_meta(first)
        names = fh.readline().strip().split(",") if with_names else None
        try:
            with warnings.catch_warnings():
                # a file without data rows is a valid empty table
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            # loadtxt's own "at row N" skips the header and blank lines
            reason = str(exc).split(" at row ")[0]
            lineno = _first_bad_line(path, skip)
            where = path if lineno is None else f"{path}, line {lineno}"
            raise MalformedFileError(f"{where}: {reason}") from exc
    if names is not None and table.size == 0:
        table = table.reshape(0, len(names))
    return meta, names, table


def write_timeseries(path, ts: TimeSeries) -> None:
    """Single-channel series: '# dt=.. t0=..' then one sample per line.

    Complex samples take two columns (re,im), real samples one.
    """
    x = np.asarray(ts.samples)
    if x.ndim != 1:
        raise ValueError("CSV serialization handles single-channel series only")
    columns = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    _write_table(path, _meta_line({"dt": ts.dt, "t0": ts.t0}), columns)


def read_timeseries(path) -> TimeSeries:
    meta, _, table = _read_table(path, with_names=False)
    if table.size == 0:
        raise MalformedFileError(f"{path}: no samples")
    if table.shape[1] > 2:
        raise MalformedFileError(f"{path}: expected 1 (real) or 2 (complex) columns")
    samples = table[:, 0] if table.shape[1] == 1 else table.view(complex)[:, 0]
    dt = _header_number(path, meta, "dt", positive=True)
    t0 = _header_number(path, meta, "t0", positive=False, default=0.0)
    return TimeSeries(samples, dt=dt, t0=t0)


def _mode_column_names(n_channels: int) -> list[str]:
    cols = ["frequency_hz", "growth_rate", "amplitude", "phase_rad"]
    for c in range(n_channels):
        cols += [f"shape{c}_re", f"shape{c}_im"]
    return cols


def write_modes(
    path,
    modes: Sequence[Mode],
    *,
    dt: float,
    d: int,
    ranks: tuple[int, int, int],
) -> None:
    """Mode list: rates, amplitude, phase, and per-channel shape columns."""
    header = _meta_line({"dt": dt, "d": d, "ranks": ",".join(map(str, ranks))})
    *rates, _, _, shapes = _mode_columns(modes)
    parts = np.ascontiguousarray(shapes.T).view(float).T  # re,im pairs per channel
    _write_table(path, header, [*rates, *parts], _mode_column_names(shapes.shape[0]))


def read_modes(path) -> tuple[list[Mode], dict]:
    """Mode list plus header metadata (dt, d, ranks)."""
    meta, _, table = _read_table(path, with_names=True)
    dt = _header_number(path, meta, "dt", positive=True)
    if isinstance(meta.get("ranks"), str):
        try:
            meta["ranks"] = tuple(int(v) for v in meta["ranks"].split(","))
        except ValueError as exc:
            raise MalformedFileError(
                f"{path}, line 1: header needs ranks=<integers>, got {meta['ranks']!r}"
            ) from exc
    n_columns = table.shape[1]
    if n_columns < 4 or n_columns % 2:
        raise MalformedFileError(
            f"{path}, line 2: expected 4 rate columns and a re,im pair per "
            f"channel, got {n_columns} columns"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(table), axis=1) | (table[:, 2] < 0))
    if bad.size:
        lineno = _data_lines(path, 2)[bad[0]][0]
        raise MalformedFileError(
            f"{path}, line {lineno}: values must be finite and the amplitude >= 0"
        )
    shapes = np.ascontiguousarray(table[:, 4:]).view(complex)  # re,im pairs
    modes = [
        Mode(f, g, a, p, shape, cmath.exp(complex(g, 2.0 * math.pi * f) * dt))
        for (f, g, a, p), shape in zip(table[:, :4].tolist(), shapes)
    ]
    return modes, meta


def write_spectrum(path, spec: Spectrum) -> None:
    """Spectrum: '#' metadata echo, then frequency_hz,value rows."""
    columns = (spec.frequencies, spec.values)
    _write_table(path, _meta_line(spec.meta), columns, ("frequency_hz", "value"))


def read_spectrum(path) -> Spectrum:
    meta, _, table = _read_table(path, with_names=True)
    if table.shape[1] != 2:
        raise MalformedFileError(
            f"{path}, line 2: expected 2 columns (frequency_hz,value), "
            f"got {table.shape[1]}"
        )
    try:
        return Spectrum(table[:, 0], table[:, 1], meta)
    except ValueError as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


_TRACK_COLUMNS = (
    "window_start_index,window_start_time,frequency_hz,growth_rate,amplitude,phase_rad"
).split(",")


def write_tracks(
    path,
    tracks: Sequence[ModeTrack],
    *,
    dt: float,
    window_len: int,
    hop: int,
    d: int,
) -> None:
    """Long-format track table: one row per (window, mode).

    Failed or empty windows contribute no rows; failures stay visible on the
    in-memory tracks.
    """
    header = _meta_line({"dt": dt, "window_len": window_len, "hop": hop, "d": d})
    counts = [len(t.modes) for t in tracks]
    starts = [(t.window_start_index, t.window_start_time) for t in tracks]
    rates = _mode_columns([m for t in tracks for m in t.modes])[:4]
    windows = np.repeat(np.reshape(starts, (-1, 2)), counts, axis=0).T
    _write_table(path, header, [*windows, *rates], _TRACK_COLUMNS)


def read_tracks(path) -> tuple[list[dict], dict]:
    """Track rows as dicts (column name -> value) plus header metadata."""
    meta, columns, table = _read_table(path, with_names=True)
    rows = [
        {columns[0]: int(row[0]), **dict(zip(columns[1:], row[1:]))}
        for row in table.tolist()
    ]
    return rows, meta
