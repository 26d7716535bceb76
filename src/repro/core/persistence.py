"""Predictor persistence: crash-safe save and restore of the synopses.

A plan cache earns its keep across sessions: the synopses learned
during one day's workload should survive a server restart.  This
module serializes an :class:`~repro.core.histogram_predictor.HistogramPredictor`
(the production structure — a few kilobytes of histogram buckets plus
the random transform parameters) to a plain JSON-compatible dict and
restores it exactly: the reloaded predictor returns bit-identical
predictions, because the random projections, translations, bucket
contents and counters are all captured.

On disk, format **v2** wraps the state in an envelope carrying a schema
version and a CRC32 checksum of the canonical payload, and every write
is atomic: temp file in the target directory, flush + fsync, then
``os.replace``, optionally rotating the previous generation(s) to
``<name>.bak1``, ``<name>.bak2``, …  A crash at any instant therefore
leaves either the old complete file or the new complete file — never a
torn hybrid.  :func:`load_predictor` detects truncation, bit flips and
version mismatches; with ``strict=False`` it walks the backup chain and
finally falls back to a caller-supplied cold predictor instead of
raising mid-boot.  Legacy v1 files (bare state dict, no envelope)
remain readable.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
import zlib
from collections.abc import Callable

import numpy as np

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.point import SamplePool
from repro.exceptions import PersistenceError
from repro.histograms.base import Bucket
from repro.lsh.grid import Grid
from repro.lsh.transforms import PlanSpaceTransform

#: Current on-disk schema version (v1 = bare state dict, v2 = CRC
#: envelope around the same state).
STATE_VERSION = 2

#: Versions :func:`predictor_from_state` can reconstruct.
SUPPORTED_VERSIONS = (1, 2)

#: Envelope type marker, so a v2 file is self-identifying.
DOCUMENT_FORMAT = "repro-predictor"

#: Default number of rotated ``.bakN`` generations kept by
#: :func:`save_predictor`.
DEFAULT_BACKUPS = 1


def predictor_to_state(predictor: HistogramPredictor) -> dict:
    """Capture a histogram predictor as a JSON-compatible dict."""
    transforms = []
    for transform in predictor.ensemble:
        transforms.append(
            {
                "input_dims": transform.input_dims,
                "output_dims": transform.output_dims,
                "resolution": transform.resolution,
                "directions": transform.directions.tolist(),
                "translations": transform.translations.tolist(),
            }
        )
    histograms = [
        [
            {
                "max_buckets": getattr(
                    histogram, "max_buckets", predictor.max_buckets
                ),
                "buckets": [
                    [b.lo, b.hi, b.count, b.cost_sum]
                    for b in histogram.buckets
                ],
            }
            for histogram in row
        ]
        for row in predictor._histograms
    ]
    return {
        "version": STATE_VERSION,
        "dimensions": predictor.dimensions,
        "plan_count": predictor.plan_count,
        "resolution": predictor.grids[0].resolution,
        "max_buckets": predictor.max_buckets,
        "radius": predictor.radius,
        "confidence_threshold": predictor.confidence_threshold,
        "noise_fraction": predictor.noise_fraction,
        "aggregation": predictor.aggregation,
        "axis_weights": (
            None
            if predictor.axis_weights is None
            else predictor.axis_weights.tolist()
        ),
        "total_points": predictor.total_points,
        "total_mass": predictor.total_mass,
        "transforms": transforms,
        "histograms": histograms,
    }


def predictor_from_state(state: dict) -> HistogramPredictor:
    """Reconstruct a predictor saved by :func:`predictor_to_state`."""
    if state.get("version") not in SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"unsupported predictor state version {state.get('version')!r}"
        )
    predictor = HistogramPredictor(
        SamplePool(state["dimensions"]),
        plan_count=state["plan_count"],
        transforms=len(state["transforms"]),
        resolution=state["resolution"],
        max_buckets=state["max_buckets"],
        radius=state["radius"],
        confidence_threshold=state["confidence_threshold"],
        noise_fraction=state["noise_fraction"],
        histogram_kind="incremental",
        output_dims=state["transforms"][0]["output_dims"],
        aggregation=state["aggregation"],
        axis_weights=(
            None
            if state["axis_weights"] is None
            else np.array(state["axis_weights"])
        ),
        seed=0,
    )
    # Replace the randomly initialized transforms with the saved ones,
    # and rebuild the grids (their bounds depend on the translations).
    predictor.ensemble.transforms = [
        PlanSpaceTransform.from_arrays(
            spec["input_dims"],
            spec["output_dims"],
            spec["resolution"],
            np.array(spec["directions"]),
            np.array(spec["translations"]),
        )
        for spec in state["transforms"]
    ]
    predictor.grids = [
        Grid(*transform.output_bounds, state["resolution"])
        for transform in predictor.ensemble
    ]
    # The stacked struct-of-arrays view caches directions and grid
    # bounds at construction; rebuild it or predictions would silently
    # use the discarded random transforms.
    predictor._rebuild_stacked()
    # Restore histogram contents into the fresh predictor's store rows.
    for row, specs in zip(predictor._histograms, state["histograms"], strict=True):
        for histogram, spec in zip(row, specs, strict=True):
            histogram.max_buckets = spec["max_buckets"]
            histogram.load(Bucket(*values) for values in spec["buckets"])
    predictor.total_points = int(state["total_points"])
    # States written before the count/mass split carry only
    # ``total_points`` (which then included fractional weights).
    predictor.total_mass = float(
        state.get("total_mass", state["total_points"])
    )
    return predictor


# ----------------------------------------------------------------------
# The v2 document: CRC32 envelope around the canonical payload
# ----------------------------------------------------------------------
def _encode_document(state: dict) -> str:
    """Wrap a state dict in the self-checking v2 envelope."""
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "format": DOCUMENT_FORMAT,
            "version": state.get("version", STATE_VERSION),
            "crc32": zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF,
            "payload": payload,
        }
    )


def _decode_document(text: str, source: str = "<memory>") -> dict:
    """Parse and verify a serialized predictor document.

    Accepts both the v2 envelope and a legacy v1 bare state dict;
    raises :class:`PersistenceError` on truncation, checksum mismatch,
    or an unsupported schema version.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(
            f"{source}: truncated or corrupt predictor state (invalid JSON)"
        ) from exc
    if not isinstance(document, dict):
        raise PersistenceError(
            f"{source}: predictor state is not a JSON object"
        )
    if "payload" in document or document.get("format") == DOCUMENT_FORMAT:
        payload = document.get("payload")
        declared = document.get("crc32")
        if not isinstance(payload, str) or not isinstance(declared, int):
            raise PersistenceError(
                f"{source}: malformed predictor envelope"
            )
        actual = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        if actual != declared:
            raise PersistenceError(
                f"{source}: checksum mismatch "
                f"(declared {declared:#010x}, actual {actual:#010x})"
            )
        try:
            state = json.loads(payload)
        except json.JSONDecodeError as exc:  # pragma: no cover - CRC
            raise PersistenceError(
                f"{source}: corrupt payload behind a valid checksum"
            ) from exc
    else:
        # Legacy v1: the bare state dict, no envelope, no checksum.
        state = document
    if not isinstance(state, dict):
        raise PersistenceError(f"{source}: predictor state is not a dict")
    if state.get("version") not in SUPPORTED_VERSIONS:
        raise PersistenceError(
            f"{source}: unsupported predictor state version "
            f"{state.get('version')!r}"
        )
    return state


def dumps_predictor(predictor: HistogramPredictor) -> str:
    """Serialize a predictor to the v2 document string."""
    return _encode_document(predictor_to_state(predictor))


def loads_predictor(text: str) -> HistogramPredictor:
    """Parse a document produced by :func:`dumps_predictor` (or a
    legacy v1 file's contents)."""
    return predictor_from_state(_decode_document(text))


# ----------------------------------------------------------------------
# Crash-safe file I/O
# ----------------------------------------------------------------------
def backup_path(path: "str | pathlib.Path", generation: int) -> pathlib.Path:
    """The ``generation``-th rotated backup of ``path`` (1 = newest)."""
    path = pathlib.Path(path)
    return path.with_name(f"{path.name}.bak{generation}")


def _rotate_backups(path: pathlib.Path, generations: int) -> None:
    """Shift ``path`` into the ``.bak`` chain, dropping the oldest."""
    oldest = backup_path(path, generations)
    if oldest.exists():
        oldest.unlink()
    for generation in range(generations - 1, 0, -1):
        source = backup_path(path, generation)
        if source.exists():
            os.replace(source, backup_path(path, generation + 1))
    os.replace(path, backup_path(path, 1))


def atomic_write_text(
    path: "str | pathlib.Path", text: str, backups: int = 0
) -> pathlib.Path:
    """Write ``text`` so a crash never leaves a torn file.

    The bytes land in a temp file in the target directory, are flushed
    and fsynced, and only then renamed over the target; with
    ``backups > 0`` the previous generation is rotated into the
    ``.bakN`` chain first (each step an atomic rename).
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    tmp = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if backups > 0 and path.exists():
            _rotate_backups(path, backups)
        os.replace(tmp, path)
    except OSError as exc:
        raise PersistenceError(f"failed to write {path}: {exc}") from exc
    finally:
        if tmp.exists():  # pragma: no cover - only on failure paths
            tmp.unlink()
    # Persist the directory entry too (best effort: not every platform
    # or filesystem supports fsyncing a directory).
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return path
    try:
        with contextlib.suppress(OSError):  # pragma: no cover
            os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def append_text(path: "str | pathlib.Path", text: str) -> pathlib.Path:
    """Durably append ``text`` to ``path`` (creating it if missing).

    The journal-file primitive behind ``benchmarks/results/history.jsonl``:
    an append is flushed and fsynced before returning, so a crash can
    lose at most the line being written — never corrupt earlier lines.
    Appends are not atomic the way :func:`atomic_write_text` renames
    are; callers writing JSONL keep each record on one line so a torn
    tail is detectable (and skippable) on read.
    """
    path = pathlib.Path(path)
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise PersistenceError(f"failed to append to {path}: {exc}") from exc
    return path


def save_predictor(
    predictor: HistogramPredictor,
    path: "str | pathlib.Path",
    backups: int = DEFAULT_BACKUPS,
) -> pathlib.Path:
    """Atomically write a predictor's state (v2 envelope + checksum),
    rotating up to ``backups`` previous generations to ``.bakN``."""
    if backups < 0:
        raise PersistenceError("backups must be >= 0")
    return atomic_write_text(path, dumps_predictor(predictor), backups)


def load_predictor(
    path: "str | pathlib.Path",
    strict: bool = True,
    cold: "HistogramPredictor | Callable[[], HistogramPredictor] | None" = None,
) -> HistogramPredictor:
    """Restore a predictor saved with :func:`save_predictor`.

    ``strict=True`` (the default) raises :class:`PersistenceError` on
    any damage — missing file, truncation, bit flips (checksum
    mismatch), or an unsupported schema version.  ``strict=False`` is
    the boot-time mode: on damage it walks the rotated ``.bakN``
    generations newest-first, and if none restores, returns ``cold``
    (a pre-built cold predictor, or the result of calling it when it
    is callable) instead of raising.  With no ``cold`` supplied,
    non-strict loading re-raises the primary file's error.
    """
    path = pathlib.Path(path)
    candidates = [path]
    if not strict:
        generation = 1
        while True:
            candidate = backup_path(path, generation)
            if not candidate.exists():
                break
            candidates.append(candidate)
            generation += 1
    primary_error: "PersistenceError | None" = None
    for candidate in candidates:
        try:
            text = candidate.read_text()
        except OSError as exc:
            error = PersistenceError(
                f"cannot read predictor state {candidate}: {exc}"
            )
            error.__cause__ = exc
            primary_error = primary_error or error
            continue
        try:
            return predictor_from_state(
                _decode_document(text, source=str(candidate))
            )
        except PersistenceError as exc:
            primary_error = primary_error or exc
            continue
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            # Structurally mangled state that still parsed (possible
            # only for legacy v1 files, which carry no checksum).
            error = PersistenceError(
                f"{candidate}: malformed predictor state ({exc})"
            )
            error.__cause__ = exc
            primary_error = primary_error or error
            continue
    if not strict and cold is not None:
        return cold() if callable(cold) else cold
    raise primary_error  # type: ignore[misc]
