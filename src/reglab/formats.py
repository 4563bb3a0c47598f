"""File formats: correspondence CSV, transform JSON, ASCII PLY points.

Floats are written with ``repr`` (shortest round-trip form), so files
are byte-stable across runs and load back to the exact same doubles.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import CorrespondenceSet, RigidTransform

CSV_HEADER_LABELED = "xs,ys,zs,xt,yt,zt,label"
CSV_HEADER_UNLABELED = "xs,ys,zs,xt,yt,zt"


def read_text_file(path: str | Path) -> str:
    """Read a UTF-8 text file.

    A missing file raises ``FileNotFoundError`` as usual; any other file
    that cannot be read as UTF-8 text (a directory, no permission, bad
    bytes) raises ``ConfigurationError`` naming it.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: cannot read ({exc})") from exc


def save_correspondences(path: str | Path, c: CorrespondenceSet) -> None:
    lines = [CSV_HEADER_LABELED if c.labels is not None else CSV_HEADER_UNLABELED]
    for i in range(len(c)):
        cells = [repr(float(v)) for v in (*c.source[i], *c.target[i])]
        if c.labels is not None:
            cells.append(str(int(c.labels[i])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def load_correspondences(path: str | Path) -> CorrespondenceSet:
    text = read_text_file(path).strip().splitlines()
    if not text:
        raise ConfigurationError(f"{path}: empty correspondence file")
    header = text[0].strip()
    if header == CSV_HEADER_LABELED:
        labeled = True
    elif header == CSV_HEADER_UNLABELED:
        labeled = False
    else:
        raise ConfigurationError(
            f"{path}: unexpected header {header!r}, "
            f"expected {CSV_HEADER_LABELED!r} or {CSV_HEADER_UNLABELED!r}"
        )
    width = 7 if labeled else 6
    rows = []
    for ln, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigurationError(f"{path}:{ln}: expected {width} cells, got {len(cells)}")
        try:
            row = [float(v) for v in cells]
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{ln}: non-numeric cell ({exc})") from exc
        if labeled and row[6] not in (0.0, 1.0):
            raise ConfigurationError(f"{path}:{ln}: label must be 0 or 1, got {cells[6]!r}")
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path}: header but no correspondence rows")
    data = np.asarray(rows, dtype=np.float64)
    labels = data[:, 6].astype(bool) if labeled else None
    return CorrespondenceSet(data[:, 0:3], data[:, 3:6], labels)


def transform_doc(transform: RigidTransform) -> dict:
    """The JSON object of a transform: row-major rotation and translation as lists."""
    return {
        "rotation": [float(v) for v in transform.rotation.reshape(-1)],
        "translation": [float(v) for v in transform.translation],
    }


def save_transform(path: str | Path, transform: RigidTransform) -> None:
    Path(path).write_text(json.dumps(transform_doc(transform), sort_keys=True, indent=1) + "\n")


def load_transform(path: str | Path) -> RigidTransform:
    try:
        doc = json.loads(read_text_file(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        rotation = np.asarray(doc["rotation"], dtype=np.float64).reshape(3, 3)
        translation = np.asarray(doc["translation"], dtype=np.float64).reshape(3)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: not a transform document ({exc})") from exc
    return RigidTransform(rotation, translation)


# Fewest whitespace-separated tokens each PLY header keyword needs.
_PLY_HEADER_ARITY = {"format": 2, "element": 3, "property": 2}


def load_ply_points(path: str | Path) -> np.ndarray:
    """Read vertex x/y/z from an ASCII PLY file.

    Only ``format ascii 1.0`` is supported. The vertex element must carry
    float (or double) x, y, z properties; additional scalar properties are
    ignored. Returns an (N, 3) float64 array.
    """
    lines = read_text_file(path).splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ConfigurationError(f"{path}: missing 'ply' magic line")
    elements: list[tuple[str, int, list[str]]] = []  # (name, count, property names)
    fmt = None
    i = 1
    while i < len(lines):
        parts = lines[i].strip().split()
        i += 1
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < _PLY_HEADER_ARITY.get(parts[0], 1):
            raise ConfigurationError(f"{path}:{i}: truncated header line {lines[i - 1].strip()!r}")
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except ValueError:
                count = -1
            if count < 0:
                raise ConfigurationError(
                    f"{path}:{i}: element count must be an integer >= 0, got {parts[2]!r}"
                )
            elements.append((parts[1], count, []))
        elif parts[0] == "property":
            if not elements:
                raise ConfigurationError(f"{path}: property before any element")
            if parts[1] == "list":
                elements[-1][2].append(f"list:{parts[-1]}")
            else:
                if parts[1] not in ("float", "float32", "double", "float64"):
                    elements[-1][2].append(f"nonfloat:{parts[-1]}")
                else:
                    elements[-1][2].append(parts[-1])
        elif parts[0] == "end_header":
            break
    else:
        raise ConfigurationError(f"{path}: header never ends")
    if fmt != "ascii":
        raise ConfigurationError(f"{path}: only ASCII PLY is supported, got format {fmt!r}")

    data_lines = [(n, ln) for n, ln in enumerate(lines[i:], start=i + 1) if ln.strip()]
    cursor = 0
    for name, count, props in elements:
        if name != "vertex":
            cursor += count
            continue
        for want in ("x", "y", "z"):
            if want not in props:
                raise ConfigurationError(
                    f"{path}: vertex element lacks float property {want!r}"
                )
        cols = [props.index(w) for w in ("x", "y", "z")]
        rows = []
        for n, ln in data_lines[cursor:cursor + count]:
            cells = ln.split()
            try:
                rows.append([float(cells[k]) for k in cols])
            except (IndexError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path}:{n}: vertex row {ln.strip()!r} lacks numeric x, y, z"
                ) from exc
        if len(rows) != count:
            raise ConfigurationError(
                f"{path}: vertex element declares {count} rows, found {len(rows)}"
            )
        return np.asarray(rows, dtype=np.float64).reshape(count, 3)
    raise ConfigurationError(f"{path}: no vertex element")
