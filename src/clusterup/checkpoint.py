"""Single-file checkpoint container: JSON manifest plus a float64 blob.

Layout: 4-byte magic ``CKP1``, an 8-byte little-endian manifest length, the
manifest JSON (UTF-8, sorted keys, compact separators), then all tensors as
little-endian float64, row-major, concatenated in manifest order. Tensors
keep every bit, so a model computes the same numbers after a save and load.
The canonical JSON encoding makes save -> load -> save byte-identical. Files
of another ``format_version`` are refused.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

MAGIC = b"CKP1"
HEADER_BYTES = len(MAGIC) + 8
FORMAT_VERSION = 2
REQUIRED_KEYS = ("format_version", "tensors", "config", "seeds", "extra")


@dataclass
class Checkpoint:
    manifest: dict
    tensors: dict[str, np.ndarray]  # float64 copies of the stored data

    @property
    def config(self) -> dict:
        return self.manifest["config"]

    @property
    def seeds(self) -> dict:
        return self.manifest["seeds"]

    @property
    def extra(self) -> dict:
        return self.manifest["extra"]


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **open_kwargs):
    """``open`` a temporary file in ``path``'s directory that replaces ``path``
    when the block exits normally, so a write that fails leaves any previous
    file at ``path`` intact and no temporary file behind."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(
    path,
    tensors: dict[str, np.ndarray],
    *,
    config: dict,
    seeds: dict,
    extra: dict | None = None,
) -> None:
    """Write tensors (as float64) with their manifest to ``path``.

    Tensor order follows the dict's insertion order and is preserved in the
    manifest, so identical inputs always produce identical bytes. The write
    goes through ``atomic_open``.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        a = np.ascontiguousarray(np.asarray(arr), dtype="<f8")
        entries.append({
            "name": name,
            "shape": list(a.shape),
            "dtype": "float64",
            "offset": offset,
        })
        blobs.append(a.tobytes())
        offset += a.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "tensors": entries,
        "config": config,
        "seeds": seeds,
        "extra": extra or {},
    }
    payload = _canonical_json(manifest)
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)


def _check_tensor_table(entries, blob_bytes: int, path) -> None:
    """Every entry is well formed with its own name and dtype float64, and
    the entries tile the blob in order."""
    if not isinstance(entries, list):
        raise CheckpointError(f"manifest tensor table in {path} is not a list")
    offset, names = 0, set()
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(f"malformed tensor entry {entry!r} in {path}")
        if entry["name"] in names:
            raise CheckpointError(f"duplicate tensor name {entry['name']!r} in {path}")
        names.add(entry["name"])
        if entry.get("dtype") != "float64":
            raise CheckpointError(
                f"tensor {entry['name']!r} in {path} has dtype {entry.get('dtype')!r}, not float64"
            )
        if type(entry.get("offset")) is not int or entry["offset"] != offset:
            raise CheckpointError(
                f"tensor {entry['name']!r} at offset {entry.get('offset')!r}, expected {offset}"
            )
        offset += 8 * math.prod(entry["shape"])
    if offset != blob_bytes:
        raise CheckpointError(f"blob length {blob_bytes} != manifest total {offset}")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; tensors come back as float64 for computation.

    Any malformed or truncated file, or a NaN or Inf value, raises
    ``CheckpointError``.
    """
    with open(path, "rb") as fh:
        header = fh.read(HEADER_BYTES)
        magic = header[:len(MAGIC)]
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r} in {path}")
        if len(header) < HEADER_BYTES:
            raise CheckpointError(f"truncated header in {path}")
        (length,) = struct.unpack("<Q", header[len(MAGIC):])
        if length > os.fstat(fh.fileno()).st_size - HEADER_BYTES:
            raise CheckpointError(f"manifest length {length} runs past the end of {path}")
        payload = fh.read(length)
        blob = fh.read()
    try:
        manifest = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError, JSONDecodeError, or nesting past the recursion limit.
        raise CheckpointError(f"unreadable manifest in {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest in {path} is not a JSON object")
    missing = [key for key in REQUIRED_KEYS if key not in manifest]
    if missing:
        raise CheckpointError(f"manifest in {path} lacks {missing}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {manifest['format_version']}"
        )
    if not isinstance(manifest["extra"], dict):
        raise CheckpointError(f"manifest extra in {path} is not a JSON object")
    _check_tensor_table(manifest["tensors"], len(blob), path)
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        name, shape = entry["name"], entry["shape"]
        raw = np.frombuffer(blob, dtype="<f8", count=math.prod(shape), offset=entry["offset"])
        if not np.isfinite(raw).all():
            raise CheckpointError(f"tensor {name!r} in {path} is not finite")
        try:
            tensors[name] = raw.reshape(shape).astype(np.float64)
        except ValueError as exc:
            # Over 64 dimensions, or an empty shape whose other sizes overflow.
            raise CheckpointError(f"tensor {name!r} in {path} has shape {shape}: {exc}") from None
    return Checkpoint(manifest=manifest, tensors=tensors)
