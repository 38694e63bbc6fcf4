"""In-memory span tracer that wraps modespect's public functions from outside.

The package modules import each other's names directly (``from .linalg
import svd_econ``), so a wrapper must replace the attribute the *calling*
module looks up, e.g. ``modespect.decompose.svd_econ`` or
``modespect.cli.kds_gaussian``.  ``WRAPS`` lists every such attribute with
the span name it records.  Spans stay in memory; ``layer_metrics`` reduces
them to the per-layer figures and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

MIB = 2.0**20


def _svd_attrs(args, kwargs, result):
    a = args[0]
    return {"shape": list(a.shape), "complex": bool(a.dtype.kind == "c")}


def _rank_attrs(args, kwargs, result):
    shape = args[2] if len(args) > 2 else kwargs["matrix_shape"]
    return {"rank": int(result), "shape": [int(v) for v in shape]}


def _eig_attrs(args, kwargs, result):
    return {"eigenvalues": int(result[0].size)}


def _embedding_attrs(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _hodmd_attrs(args, kwargs, result):
    return {"modes": len(result.modes)}


def _tracks_attrs(args, kwargs, result):
    return {"windows": len(result), "failed": sum(t.failed for t in result)}


def _kds_attrs(args, kwargs, result):
    return {"evals": len(args[0]) * int(result.values.size)}


def _welch_attrs(args, kwargs, result):
    return {"segments": int(result.meta["segments"])}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, attribute extractor)
WRAPS = [
    ("modespect.decompose", "svd_econ", "linalg.svd_econ", _svd_attrs),
    ("modespect.decompose", "truncation_rank", "linalg.truncation_rank", _rank_attrs),
    ("modespect.decompose", "eig", "linalg.eig", _eig_attrs),
    ("modespect.decompose", "lstsq", "linalg.lstsq", None),
    (
        "modespect.decompose",
        "build_delay_embedding",
        "decompose.build_delay_embedding",
        _embedding_attrs,
    ),
    ("modespect.glide", "hodmd", "decompose.hodmd", _hodmd_attrs),
    ("modespect.cli", "hodmd", "decompose.hodmd", _hodmd_attrs),
    ("modespect.glide", "gliding_hodmd", "glide.gliding_hodmd", _tracks_attrs),
    ("modespect.glide", "batch_hodmd", "glide.batch_hodmd", _tracks_attrs),
    ("modespect.glide", "pool_modes", "glide.pool_modes", None),
    ("modespect.cli", "gliding_hodmd", "glide.gliding_hodmd", _tracks_attrs),
    ("modespect.cli", "pool_modes", "glide.pool_modes", None),
    ("modespect.kds", "kds_gaussian", "kds.gaussian", _kds_attrs),
    ("modespect.kds", "kds_lorentz", "kds.lorentz", _kds_attrs),
    ("modespect.kds", "find_peaks", "kds.find_peaks", None),
    ("modespect.cli", "kds_gaussian", "kds.gaussian", _kds_attrs),
    ("modespect.cli", "kds_lorentz", "kds.lorentz", _kds_attrs),
    ("modespect.cli", "find_peaks", "kds.find_peaks", None),
    # welch looks periodogram up in its own module, so its segments nest here
    ("modespect.fourier", "periodogram", "fourier.periodogram", None),
    ("modespect.fourier", "welch", "fourier.welch", _welch_attrs),
    ("modespect.cli", "periodogram", "fourier.periodogram", None),
    ("modespect.cli", "welch", "fourier.welch", _welch_attrs),
    ("modespect.cli", "main", "cli.main", None),
] + [
    ("modespect.fileio", f"{verb}_{kind}", f"fileio.{verb}", _file_attrs)
    for verb in ("read", "write")
    for kind in ("timeseries", "modes", "spectrum", "tracks")
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "children")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = {}
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # calls are synchronous, so child spans never overlap each other
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Records one span per wrapped call; ``op_span`` calls open a new operation id.

    Entering installs the wrappers and leaving removes them; a wrapper a
    caller kept hold of records nothing while the tracer is not entered.
    """

    def __init__(self, op_span: str):
        self.op_span = op_span
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []
        self._ops = 0
        self._active = False

    def __enter__(self) -> "Tracer":
        self._active = True
        for module_name, attr, name, attrs in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            if name == self.op_span:
                self._ops += 1
                op = self._ops
            else:
                op = parent.op if parent else None
            span = Span(name, parent, op)
            if parent:
                parent.children.append(span)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line; ``parent`` is a line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                record = {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index[id(s.parent)] if s.parent else None,
                    "op": s.op,
                    **s.attrs,
                }
                fh.write(json.dumps(record) + "\n")


def svd_gflop(shape, is_complex: bool) -> float:
    """Thin-SVD flop count 6*p*q**2 + 20*q**3 (p >= q), x4 for complex data."""
    p, q = max(shape), min(shape)
    return (6.0 * p * q * q + 20.0 * q**3) * (4.0 if is_complex else 1.0) / 1e9


def _delay_rank_spans(spans):
    """truncation_rank spans taken on a delay-embedded matrix.

    Inside ``hodmd`` the delay-space rank is the one chosen after
    ``build_delay_embedding``; an earlier call is the spatial reduction.
    """
    out = []
    for s in spans:
        if s.name != "decompose.hodmd":
            continue
        embedded = False
        for c in s.children:
            if c.name == "decompose.build_delay_embedding":
                embedded = True
            elif c.name == "linalg.truncation_rank" and embedded and c.attrs:
                out.append(c)
    return out


def layer_metrics(spans, reps: int) -> dict:
    """Per-layer figures per repetition of the workload body.

    A call that raised has no attributes, so it adds time but no counts.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def seconds(name, keep=lambda s: True):
        return sum(s.duration for s in by[name] if keep(s)) / reps

    def summed(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name]) / reps

    delay = _delay_rank_spans(spans)
    kept = sum(s.attrs["rank"] for s in delay)
    available = sum(min(s.attrs["shape"]) for s in delay)
    eigenvalues = sum(
        c.attrs.get("eigenvalues", 0)
        for s in by["decompose.hodmd"]
        for c in s.children
        if c.name == "linalg.eig"
    )
    modes_out = sum(s.attrs.get("modes", 0) for s in by["decompose.hodmd"])
    drivers = by["glide.gliding_hodmd"] + by["glide.batch_hodmd"]
    embeddings = [s.attrs.get("bytes", 0) for s in by["decompose.build_delay_embedding"]]
    return {
        "linalg.svd_econ.calls": len(by["linalg.svd_econ"]) / reps,
        "linalg.svd_econ.s": seconds("linalg.svd_econ"),
        "linalg.svd_econ.gflop": sum(
            svd_gflop(s.attrs["shape"], s.attrs["complex"])
            for s in by["linalg.svd_econ"]
            if s.attrs
        )
        / reps,
        "linalg.kept_rank_ratio": kept / available if available else 0.0,
        "linalg.eig.s": seconds("linalg.eig"),
        "linalg.lstsq.s": seconds("linalg.lstsq"),
        "decompose.hodmd.calls": len(by["decompose.hodmd"]) / reps,
        "decompose.hodmd.s": seconds("decompose.hodmd"),
        "decompose.self_s": sum(s.self_time for s in by["decompose.hodmd"]) / reps,
        "decompose.modes_out": modes_out / reps,
        "decompose.modes_per_eig": modes_out / eigenvalues if eigenvalues else 0.0,
        "decompose.build_delay_embedding.s": seconds("decompose.build_delay_embedding"),
        "decompose.embedding_mb": max(embeddings, default=0) / MIB,
        "glide.self_s": sum(s.self_time for s in drivers) / reps,
        "glide.windows": sum(s.attrs.get("windows", 0) for s in drivers) / reps,
        "glide.failed_windows": sum(s.attrs.get("failed", 0) for s in drivers) / reps,
        "glide.pool_modes.s": seconds("glide.pool_modes"),
        "kds.gaussian.s": seconds("kds.gaussian"),
        "kds.lorentz.s": seconds("kds.lorentz"),
        "kds.kernel_evals": summed("kds.gaussian", "evals") + summed("kds.lorentz", "evals"),
        "kds.find_peaks.s": seconds("kds.find_peaks"),
        "fourier.periodogram.s": seconds(
            "fourier.periodogram",
            lambda s: not (s.parent and s.parent.name == "fourier.welch"),
        ),
        "fourier.welch.s": seconds("fourier.welch"),
        "fourier.welch.segments": summed("fourier.welch", "segments"),
        "fileio.read.s": seconds("fileio.read"),
        "fileio.write.s": seconds("fileio.write"),
        "fileio.read_mb": summed("fileio.read", "bytes") / MIB,
        "fileio.write_mb": summed("fileio.write", "bytes") / MIB,
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": sum(s.self_time for s in by["cli.main"]) / reps,
    }
