"""CSV serialization for time series, mode lists, spectra, and window tracks.

Every float is written with 17 significant digits, so write -> read round
trips reproduce values bit-exactly.  All files start with one ``#`` header
line of space-separated key=value metadata, then an optional line of column
names, then rows of comma-separated floats.

The float text is exactly Python's ``"%.17g" % v``, made for a whole block
of rows at once by numpy array operations (:func:`_csv_rows`).  The 17
digits of a finite nonzero ``v`` are |v|·10**(16 - e) rounded to an integer,
e the decimal exponent.  The product is formed in double-double arithmetic
from a double-double 10**k and comes within 2**-47 of its exact value, so
its rounding is decided correctly unless its fraction lies within 2**-40 of
one half.  Those values, exact ties such as 2**-25 among them, and only
those, take their digits from Python's own correctly rounded ``"%.16e" % v``.
"""

from __future__ import annotations

import functools
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

# floats formatted per _csv_rows call: bounds its index arrays (25 per value)
# below the text of 2**16 rows formatted per value by Python
_CHUNK_VALUES = 2**14


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


# 10**k = (hh + hl)·2**s with hh = hh_hi + hh_lo in [1, 2) and hh_hi, hh_lo
# of 26 bits each (Dekker 1971): one row per k = 16 - e in -293..341, the
# decimal exponents e of all finite doubles and one more either side; NaN
# until _pow10 first needs the row
_KMIN = -293
_POW10 = np.full((342 - _KMIN, 4), np.nan)
_SPLIT = 2.0**27 + 1.0


def _split(v):
    """High 26 bits of ``v``: v - _split(v) holds the rest exactly."""
    c = _SPLIT * v
    return c - (c - v)


def _pow10_row(k: int) -> tuple:
    """(hh_hi, hh_lo, hl, s) of 10**k from Python integers: hh + hl is within
    2**-105 of 10**k / 2**s."""
    if k >= 0:
        s = (10**k).bit_length() - 1
        num, den = 10**k, 1 << s
    else:
        s = -(10**-k).bit_length()
        num, den = 1 << -s, 10**-k
    hh = num / den  # int / int rounds correctly
    hl = (num * 2**52 - int(hh * 2**52) * den) / (den << 52)
    hh_hi = _split(hh)
    return hh_hi, hh - hh_hi, hl, s


def _pow10(k: np.ndarray) -> np.ndarray:
    """hh_hi, hh_lo, hl and s of 10**k, one array each; rows built on first use."""
    lo, hi = int(k.min()) - _KMIN, int(k.max()) - _KMIN
    for i in np.flatnonzero(np.isnan(_POW10[lo : hi + 1, 0])).tolist():
        _POW10[lo + i] = _pow10_row(lo + i + _KMIN)
    return _POW10.take(k - _KMIN, axis=0).T


def _scaled_digits(a: np.ndarray, e: np.ndarray) -> tuple:
    """round(a·10**(16 - e)), its floor, and whether its fraction is within
    2**-40 of one half; ``a`` positive and finite."""
    hh_hi, hh_lo, hl, s = _pow10(16 - e)
    x = np.ldexp(a, s.astype(np.int32))  # exact: x·(hh + hl) = a·10**(16 - e)
    x_hi = _split(x)
    x_lo = x - x_hi
    p = x * (hh_hi + hh_lo)
    p_err = ((x_hi * hh_hi - p) + x_hi * hh_lo + x_lo * hh_hi) + x_lo * hh_lo
    p_int = np.floor(p)
    rest = (p - p_int) + p_err + x * hl
    rest_int = np.floor(rest)
    frac = rest - rest_int
    floor = p_int.astype(np.int64) + rest_int.astype(np.int64)
    return floor + (frac >= 0.5), floor, np.abs(frac - 0.5) < 2.0**-40


def _layouts() -> tuple:
    """Source-row index and kept-byte mask of the 25 output bytes per layout key.

    key = (cls·17 + nd - 1)·2 + negative, with nd significant digits; cls
    0-20 is fixed notation for exponents -4..16, 21 and 22 scientific with a
    2- and a 3-digit exponent, 23 zero, 24 inf, 25 nan (printed unsigned).
    The separator follows the field's last byte.
    """
    key = np.arange(26 * 34)[:, None]
    cls, nd = key // 34, key // 2 % 17 + 1
    signed = (key % 2 == 1) & (cls != 25)
    j = np.arange(25) - signed  # byte position after the sign
    e = cls - 4
    # fixed, e < 0: "0.", -e - 1 zeros, the digits
    small = np.where(j == 1, 1, np.where(j < 1 - e, 25, 2 + e + j))
    # fixed, e >= 0: e + 1 digits, then "." and the rest if any
    fixed = np.where(j <= e, 3 + j, np.where(j == e + 1, 1, 2 + j))
    # scientific: a digit, "." and the rest if any, "e", the exponent
    q = nd + (nd > 1)
    width = np.where(cls == 22, 3, 2)
    sci = np.select(
        [j == 0, (j == 1) & (nd > 1), j < q, j == q, j == q + 1],
        [3, 1, 2 + j, 2, 20],
        22 - width + j - q,
    )
    kinds = [cls < 4, cls < 21, cls < 23, cls == 23, cls == 24]
    nan = np.array([27, 29, 27])[j.clip(0, 2)]
    index = np.select(kinds, [small, fixed, sci, 25, 26 + j], nan)
    index = np.where(j < 0, 0, index)
    lengths = [1 - e + nd, np.maximum(nd, e + 1) + (nd > e + 1), q + 2 + width, 1]
    length = signed + np.select(kinds[:4], lengths, 3)
    index = np.where(np.arange(25) == length, 24, index)
    keep = np.arange(25) <= length
    return np.where(keep, index, 0), keep


# Each value's 32-byte source row, which _layouts() indexes: "-" 0, "." 1,
# "e" 2, the 17 digits 3-19, the exponent's sign 20 and 3 digits 21-23, the
# separator 24, "0" 25, "infa" 26-29, 2 pad bytes.
_SOURCE = np.frombuffer(b"-.e" + b"0" * 17 + b"+000,0infa  ", dtype=np.uint8)


@functools.cache
def _text_tables() -> tuple:
    """_layouts(); per exponent -330..330 its key offset (cls·34 + 32) and its
    sign and 3 digits; per 4-digit group its ASCII digits and trailing zeros.
    Text is in memory order, 4 bytes to a uint32.  Built on first use, so
    that importing the CLI stays as fast."""
    g = np.arange(10000)
    ascii4 = (np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + 48).astype(np.uint8)
    trailing = sum((g % 10**i == 0).astype(np.uint8) for i in range(1, 5))
    e = np.arange(-330, 331)
    fixed = (e >= -4) & (e <= 16)
    key_offset = np.where(fixed, e + 4, np.where(np.abs(e) < 100, 21, 22)) * 34 + 32
    exponent = ascii4[np.abs(e)]
    exponent[:, 0] = np.where(e < 0, 45, 43)  # "-", "+"
    exponent4, digits4 = (t.view(np.uint32)[:, 0] for t in (exponent, ascii4))
    return *_layouts(), key_offset, exponent4, digits4, trailing


def _csv_rows(block: np.ndarray) -> bytes:
    """The bytes of ``",".join(["%.17g"] * ncols) + "\\n"`` for each row of a
    C-ordered (rows, ncols) float64 block."""
    rows, ncols = block.shape
    v = block.ravel()
    if not v.size:
        return b""
    layout, keep, key_offset, exponent4, digits4, trailing4 = _text_tables()
    a = np.abs(v)
    regular = (a > 0) & (a < np.inf)  # zero, inf and nan have layouts of their own
    special = ~regular
    any_special = special.any()
    if any_special:
        a = np.where(regular, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    digits, floor, near_tie = _scaled_digits(a, e)
    # np.log10 may be an ulp off, and e with it next to a power of ten; the
    # floor decides e - 1, since 10**16 - 0.3 rounds to 10**16 but needs it
    off = np.flatnonzero((digits > 10**17) | (floor < 10**16))
    if off.size:
        e[off] += np.where(floor[off] < 10**16, -1, 1)
        digits[off], _, near_tie[off] = _scaled_digits(a[off], e[off])
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    e[carry] += 1
    for i in np.flatnonzero(near_tie & regular).tolist():
        mantissa, _, exponent = ("%.16e" % a[i]).partition("e")
        digits[i], e[i] = int(mantissa.replace(".", "")), int(exponent)

    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.int32)
    high = high.astype(np.int32)
    groups = (high % 10**8 // 10**4, high % 10**4, low // 10**4, low % 10**4)
    zeros = trailing4[groups[0]]
    for g in groups[1:]:  # the trailing zero digits of the groups so far
        zeros = np.where(g == 0, zeros + 4, trailing4[g])
    src = np.empty((v.size, 32), dtype=np.uint8)
    src[:] = _SOURCE
    src[:, 3] = high // 10**8 + 48
    lanes = src.view(np.uint32)
    for lane, g in enumerate(groups, 1):
        lanes[:, lane] = digits4[g]
    lanes[:, 5] = exponent4[e + 330]
    src.reshape(rows, ncols, 32)[:, -1, 24] = 10  # "\n" ends each row

    key = key_offset[e + 330]
    if any_special:
        v_special = v[special]
        cls = np.where(v_special == 0, 23, np.where(np.isnan(v_special), 25, 24))
        key[special] = cls * 34 + 32
    key = key - 2 * zeros + np.signbit(v)
    index = layout.take(key, axis=0)
    index += np.arange(0, src.size, 32)[:, None]
    return src.ravel().take(index)[keep.take(key, axis=0)].tobytes()


def _write_table(path, header: str, columns, names=None) -> None:
    """Write the header line, the optional column names, then the float rows.

    ``columns`` is a sequence of equal-length 1-D arrays, one per CSV column.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    if len({col.shape for col in columns}) != 1 or columns[0].ndim != 1:
        shapes = [col.shape for col in columns]
        raise ValueError(f"table columns must be 1-D of equal length, got shapes {shapes}")
    lines = [header, ",".join(names)] if names is not None else [header]
    head = "".join(line + "\n" for line in lines).encode("ascii")
    rows = max(1, _CHUNK_VALUES // len(columns))
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, len(columns[0]), rows):
            fh.write(_csv_rows(np.column_stack([col[lo : lo + rows] for col in columns])))


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
    """1-based number of the first data line that is non-numeric or ragged.

    A field counts as numeric if Python's ``float`` takes it without the
    digit-grouping underscores that it accepts and ``np.loadtxt`` does not.
    """
    rows = _data_lines(path, skip)
    for lineno, fields in rows:
        try:
            list(map(float, fields))
        except ValueError:
            return lineno
        if any("_" in f for f in fields) or len(fields) != len(rows[0][1]):
            return lineno
    return None


def _read_table(path, with_names: bool):
    """Header metadata, column names (or None) and the (rows, columns) floats.

    ``np.loadtxt`` reads the rows from the path itself.  Each byte decodes
    as one Latin-1 character, so one that is not ASCII reads inside a
    comment and, outside one, makes its line malformed.
    """
    skip = 2 if with_names else 1
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        names = fh.readline().strip().split(",") if with_names else None
    if not first.startswith("#"):
        raise MalformedFileError(
            f"{path}, line 1: expected a '#' header line, got {first[:16]!a}"
        )
    try:
        with warnings.catch_warnings():
            # a file without data rows is a valid empty table
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=skip, encoding="latin-1")
    except ValueError as exc:
        # loadtxt's own "at row N" skips the header and blank lines
        reason = str(exc).split(" at row ")[0]
        lineno = _first_bad_line(path, skip)
        where = path if lineno is None else f"{path}, line {lineno}"
        raise MalformedFileError(f"{where}: {reason}") from exc
    if names is not None and table.size == 0:
        table = table.reshape(0, len(names))
    return _parse_meta(first), names, table


def _check_rows(path, ok: np.ndarray, rule: str) -> None:
    """Reject the first data row below the names line where ``ok`` is False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        lineno = _data_lines(path, 2)[bad[0]][0]
        raise MalformedFileError(f"{path}, line {lineno}: {rule}")


def _check_columns(path, names: list, table: np.ndarray, want: Sequence[str]) -> None:
    """Reject column names other than the writer's ``want``, as when the
    names line is missing, or a column count other than theirs."""
    if names != list(want) or table.shape[1] != len(want):
        raise MalformedFileError(
            f"{path}, line 2: expected the {len(want)} columns {','.join(want)}, "
            f"got {table.shape[1]} named {','.join(names)!r}"
        )


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
    meta, names, table = _read_table(path, with_names=True)
    dt = _header_number(path, meta, "dt", positive=True)
    if "ranks" in meta:
        ranks = str(meta["ranks"]).split(",")
        if len(ranks) != 3 or not all(r.isascii() and r.isdigit() for r in ranks):
            raise MalformedFileError(
                f"{path}, line 1: header needs ranks=<three non-negative integers>, "
                f"got {meta['ranks']!r}"
            )
        meta["ranks"] = tuple(map(int, ranks))
    # 4 rate columns and a re,im pair per channel
    _check_columns(path, names, table, _mode_column_names((table.shape[1] - 4) // 2))
    # the poles exp((g + 2j pi f) dt), from parts so a frequency of -0 keeps its sign
    exponent = np.stack([table[:, 1], 2.0 * np.pi * table[:, 0]], axis=1).view(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        poles = np.exp(exponent[:, 0] * dt)
    ok = np.all(np.isfinite(table), axis=1) & (table[:, 2] >= 0) & np.isfinite(poles)
    _check_rows(path, ok, "values must be finite, the amplitude >= 0 and the pole "
                "exp((growth_rate + 2j pi frequency_hz) dt) finite")
    shapes = np.ascontiguousarray(table[:, 4:]).view(complex)  # re,im pairs
    modes = [
        Mode(f, g, a, p, shape, pole)
        for (f, g, a, p), shape, pole in zip(table[:, :4].tolist(), shapes, poles.tolist())
    ]
    return modes, meta


def write_spectrum(path, spec: Spectrum) -> None:
    """Spectrum: '#' metadata echo, then frequency_hz,value rows."""
    columns = (spec.frequencies, spec.values)
    _write_table(path, _meta_line(spec.meta), columns, ("frequency_hz", "value"))


def read_spectrum(path) -> Spectrum:
    meta, names, table = _read_table(path, with_names=True)
    _check_columns(path, names, table, ("frequency_hz", "value"))
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
    meta, names, table = _read_table(path, with_names=True)
    _check_columns(path, names, table, _TRACK_COLUMNS)
    index = table[:, 0]
    ok = np.all(np.isfinite(table), axis=1) & (index >= 0) & (index == np.floor(index))
    _check_rows(path, ok, "values must be finite and window_start_index an integer >= 0")
    rows = [
        {names[0]: int(row[0]), **dict(zip(names[1:], row[1:]))}
        for row in table.tolist()
    ]
    return rows, meta
