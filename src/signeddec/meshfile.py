"""Mesh file I/O: Triangle/TetGen .node/.ele pairs and OFF surfaces.

.node/.ele carry planar triangle meshes (2D nodes, 3 vertices per cell) or
tetrahedral meshes (3D nodes, 4 per cell); OFF carries triangle surfaces
embedded in 3D. Vertex numbering in .node/.ele may start at 0 or 1; the
base is detected from the first data row and normalized to 0 on read.
Writes are 1-based with 17 significant digits, so coordinates round-trip
exactly. Readers convert each block of rows with one C call (``np.loadtxt``;
a .node block's ids and coordinates together) and validate by masks over
the rows, reporting the first faulty row in file order; line numbers are
counted only for that message. Only when that call refuses a block are its
rows split and converted token by token with Python's ``int``/``float``,
which finds the faulty rows and accepts what only Python reads (``1_0``,
non-ASCII digits); the values are the same either way. Writers format each
row with one %-format string and write once.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .complexes import _non_index_dtype, build_complex
from .errors import MeshFormatError
from .geometry import _real_floats

__all__ = ["MeshFile", "read_mesh", "write_mesh", "load_complex"]

FORMAT_NODE_ELE = "node_ele"
FORMAT_OFF = "off"
# integers beyond int64 fail every range check; they are clipped to this
_INT_CLIP = 2**62


@dataclass(frozen=True)
class MeshFile:
    """Parsed mesh: points (P, N) and top cells (T, n+1), 0-based."""

    format: str
    points: np.ndarray
    cells: np.ndarray


def _data_rows(path, what):
    """The data rows of a file (lines cut at ``#`` and stripped, blank ones
    dropped) and ``at``, which names data row k ``path:line`` for a message."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    lines = list(map(str.strip, lines))
    rows = list(filter(None, lines))
    if not rows:
        raise MeshFormatError(f"{path}: empty {what} file")

    def at(row):  # lines are numbered only here
        return f"{path}:{[k for k, line in enumerate(lines, 1) if line][row]}"

    return rows, at


def _parse_ints(tokens, count, at, row, what):
    if len(tokens) < count:
        raise MeshFormatError(f"{at(row)}: expected {count} fields for {what}")
    try:
        return [int(t) for t in tokens[:count]]
    except ValueError as exc:
        raise MeshFormatError(f"{at(row)}: bad integer in {what}") from exc


def _field(rows, row, column):
    """The integer in field ``column`` of ``rows[row]``, for a message."""
    return int(rows[row].split()[column])


def _number(kind, token):
    """kind(token), ints clipped into int64, or None if kind rejects it."""
    try:
        value = kind(token)
    except ValueError:
        return None
    return min(max(value, -_INT_CLIP), _INT_CLIP) if kind is int else value


def _table(rows, *fields):
    """The leading fields of each row as one array per (kind, width) in
    ``fields`` (kind int or float; consecutive ranges from the first field),
    a mask of the rows with fewer fields than the widths sum to and, per
    range, a mask of the rows holding a field in it that ``kind`` rejects.

    One ``np.loadtxt`` call converts the block into a structured array, one
    field per range. It splits fields as ``str.split`` does, and its parsers
    accept a subset of what ``int`` and ``float`` accept and read it the same
    way. Only when it refuses are the rows split and converted token by
    token (short rows padded with "0"), which finds the faulty rows.
    """
    columns = [(f"f{k}", np.intp if kind is int else np.float64, (width,))
               for k, (kind, width) in enumerate(fields)]
    stop = sum(width for _, width in fields)
    if rows:  # np.loadtxt warns on no rows; the token path gives empty arrays
        try:
            table = np.loadtxt(rows, columns, usecols=range(stop), ndmin=1, comments=None)
        except ValueError:
            pass
        else:
            clean = np.zeros(len(rows), bool)
            return [table[name] for name, *_ in columns], clean, [clean] * len(fields)
    split = [line.split() for line in rows]
    pad = ["0"] * stop
    arrays, bads, start = [], [], 0
    for (kind, width), (_, dtype, _) in zip(fields, columns):
        numbers = [_number(kind, t) for row in split for t in (row + pad)[start:start + width]]
        arrays.append(np.array([0 if v is None else v for v in numbers], dtype).reshape(-1, width))
        bads.append(np.reshape([v is None for v in numbers], (-1, width)).any(axis=1))
        start += width
    return arrays, np.array([len(row) < stop for row in split], dtype=bool), bads


def _raise_first(at, start, checks):
    """Raise for the first row, in file order, that fails a check.

    ``checks`` lists (mask over data rows ``start`` on, message) in the order
    one row is checked; a message may be a callable of the row's position in
    the masks. Only the first failing check of that row is formatted.
    """
    failed = np.array([mask for mask, _ in checks])
    for row in np.flatnonzero(failed.any(axis=0))[:1]:
        message = checks[failed[:, row].argmax()][1]
        text = message(row) if callable(message) else message
        raise MeshFormatError(f"{at(start + row)}: {text}")


def _check_count(path, at, rows, count, what):
    """Raise unless exactly ``count`` data rows follow the header row."""
    if len(rows) > count + 1:
        raise MeshFormatError(f"{at(count + 1)}: more {what} rows than declared ({count})")
    if len(rows) < count + 1:
        raise MeshFormatError(f"{path}: declared {count} {what}s, found {len(rows) - 1}")


def _read_node(path):
    rows, at = _data_rows(path, "node")
    count, dim = _parse_ints(rows[0].split(), 2, at, 0, "node header")
    if dim not in (2, 3):
        raise MeshFormatError(f"{at(0)}: node dimension must be 2 or 3, got {dim}")
    if count < 1:
        raise MeshFormatError(f"{at(0)}: node count must be positive")

    data = rows[1:1 + count]
    (ids, coords), short, (bad_ids, bad_coords) = _table(data, (int, 1), (float, dim))
    base = int(ids[0, 0]) if data else 0
    index = ids[:, 0] - base
    first_seen = np.zeros(len(data), dtype=bool)
    first_seen[np.unique(index, return_index=True)[1]] = True
    _raise_first(at, 1, [
        (bad_ids, "bad integer in node index"),
        ((np.arange(len(data)) == 0) & (base not in (0, 1)),
         lambda row: f"first node index must be 0 or 1, got {_field(data, row, 0)}"),
        ((index < 0) | (index >= count),
         lambda row: f"node index {_field(data, row, 0)} out of range"),
        (~first_seen, lambda row: f"duplicate node index {_field(data, row, 0)}"),
        (short, f"expected {dim} coordinates"),
        (bad_coords, "bad coordinate"),
    ])
    _check_count(path, at, rows, count, "node")
    points = np.empty((count, dim))
    points[index] = coords
    if not np.isfinite(points).all():
        raise MeshFormatError(f"{path}: non-finite coordinates")
    return points, base


def _read_ele(path, num_points, node_base, dim):
    rows, at = _data_rows(path, "element")
    count, per_cell = _parse_ints(rows[0].split(), 2, at, 0, "element header")
    if per_cell != dim + 1:
        raise MeshFormatError(
            f"{at(0)}: expected {dim + 1} vertices per cell for "
            f"{dim}-d nodes, got {per_cell}"
        )
    if count < 1:
        raise MeshFormatError(f"{at(0)}: element count must be positive")

    data = rows[1:1 + count]
    (values,), short, (bad,) = _table(data, (int, 1 + per_cell))
    cells = values[:, 1:] - node_base
    outside = (cells < 0) | (cells >= num_points)
    _raise_first(at, 1, [
        (short, f"expected {1 + per_cell} fields for element row"),
        (bad, "bad integer in element row"),
        (outside.any(axis=1), lambda row: "vertex reference "
         f"{_field(data, row, 1 + outside[row].argmax())} out of range"),
    ])
    _check_count(path, at, rows, count, "element")
    return cells


def _read_off(path):
    rows, at = _data_rows(path, "OFF")
    head, tokens = 0, rows[0].split()
    if tokens[0].upper() == "OFF":
        tokens = tokens[1:]
        if not tokens:
            if len(rows) == 1:
                raise MeshFormatError(f"{path}: missing OFF counts")
            head, tokens = 1, rows[1].split()
    num_vertices, num_faces = _parse_ints(tokens, 2, at, head, "OFF counts")
    if num_vertices < 1 or num_faces < 1:
        raise MeshFormatError(f"{at(head)}: OFF needs positive vertex/face counts")

    vertex_rows = rows[head + 1:][:num_vertices]
    (points,), short, (bad,) = _table(vertex_rows, (float, 3))
    _raise_first(at, head + 1, [
        (short, "expected 3 coordinates"), (bad, "bad coordinate"),
    ])
    if len(vertex_rows) < num_vertices:
        raise MeshFormatError(f"{path}: truncated vertex list")

    face_rows = rows[head + 1 + num_vertices:][:num_faces]
    # the count and three indices; fields after them (a colour) are not read
    (values,), short, (bad,) = _table(face_rows, (int, 4))
    cells = values[:, 1:].copy()
    outside = (cells < 0) | (cells >= num_vertices)
    _raise_first(at, head + 1 + num_vertices, [
        (bad, "bad integer in face row"),
        (values[:, 0] != 3, lambda row: "only triangle faces supported, got "
         f"{_field(face_rows, row, 0)} vertices"),
        (short, "truncated face row"),
        (outside.any(axis=1), lambda row: "vertex reference "
         f"{_field(face_rows, row, 1 + outside[row].argmax())} out of range"),
    ])
    if len(face_rows) < num_faces:
        raise MeshFormatError(f"{path}: truncated face list")
    if not np.isfinite(points).all():
        raise MeshFormatError(f"{path}: non-finite coordinates")
    return points, cells


def read_mesh(path):
    """Read a mesh from a .node/.ele pair (pass either path) or an OFF
    file. The suffix, in any case, decides the format; any other suffix
    raises MeshFormatError. The given file is read under its own name and
    only its suffix is replaced to find the partner, so ``mesh.1.ele``
    pairs with ``mesh.1.node``; an upper-case suffix pairs with an
    upper-case one (``V.NODE`` with ``V.ELE``), any other with a lower-case
    one."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".off":
        points, cells = _read_off(path)
        return MeshFile(format=FORMAT_OFF, points=points, cells=cells)
    if suffix in (".node", ".ele"):
        partner = ".ele" if suffix == ".node" else ".node"
        partner = path.with_suffix(partner.upper() if path.suffix.isupper() else partner)
        node_path, ele_path = (path, partner) if suffix == ".node" else (partner, path)
        points, base = _read_node(node_path)
        cells = _read_ele(ele_path, len(points), base, points.shape[1])
        return MeshFile(format=FORMAT_NODE_ELE, points=points, cells=cells)
    raise MeshFormatError(f"cannot infer format from {path.name!r}: expected .node, .ele or .off")


def format_rows(fmt, *columns):
    """The text of one ``fmt % row`` per row of the columns (lists, e.g.
    from ``ndarray.tolist()``, or ranges), joined with no separator."""
    return "".join(map(fmt.__mod__, zip(*columns)))


def write_mesh(path, points, cells):
    """Write a mesh; returns the list of paths written.

    The shapes pick the format: triangle surfaces in 3-d go to one OFF
    file; planar triangles (2-d points, 3 per cell) and tets (3-d, 4) go to
    a .node/.ele pair (1-based); any other shape raises MeshFormatError,
    as do complex, non-numeric or non-finite coordinates, no points or
    cells, and cell indices that are not integers (float arrays of integral
    values pass) or lie outside [0, P), which no reader accepts; nothing is
    written then.
    ``path`` is the base name: a trailing .node, .ele or .off is dropped and
    the proper extensions are appended, so ``mesh.1`` writes ``mesh.1.node``
    and ``mesh.1.ele``.
    """
    try:  # ragged cells are reported before complex points
        array, points = np.asarray(cells), _real_floats(points, MeshFormatError)
    except ValueError:  # ragged rows
        raise MeshFormatError("points and cells must be 2-d arrays") from None
    bad = _non_index_dtype(cells, array)
    if bad is not None:
        raise MeshFormatError(f"cell vertex indices must be integers, got {bad} values")
    cells = array
    if points.ndim != 2 or cells.ndim != 2:
        raise MeshFormatError("points and cells must be 2-d arrays")
    if not np.isfinite(points).all():
        raise MeshFormatError("points must be finite")
    (_, ambient), (_, per_cell) = points.shape, cells.shape
    surface = ambient == 3 and per_cell == 3
    if not surface and (per_cell != ambient + 1 or ambient not in (2, 3)):
        raise MeshFormatError(f"no format for {ambient}-d points with {per_cell}-vertex cells")
    if not len(points) or not len(cells):
        raise MeshFormatError("a mesh needs at least one point and one cell")
    if cells.min() < 0 or cells.max() >= len(points):
        raise MeshFormatError(f"cell vertex indices must lie in [0, {len(points)})")
    cells = cells.astype(np.intp)
    base = Path(path)
    if base.suffix.lower() in (".node", ".ele", ".off"):
        base = base.with_suffix("")
    coordinates = " ".join(["%.17g"] * ambient) + "\n"
    if surface:
        target = Path(f"{base}.off")
        target.write_text(
            f"OFF\n{len(points)} {len(cells)} 0\n"
            + format_rows(coordinates, *points.T.tolist())
            + format_rows("3 %d %d %d\n", *cells.T.tolist())
        )
        return [target]
    node_path, ele_path = Path(f"{base}.node"), Path(f"{base}.ele")
    node_path.write_text(
        f"{len(points)} {ambient} 0 0\n"
        + format_rows("%d " + coordinates, range(1, len(points) + 1), *points.T.tolist())
    )
    ele_path.write_text(
        f"{len(cells)} {per_cell} 0\n"
        + format_rows("%d" + " %d" * per_cell + "\n", range(1, len(cells) + 1),
                      *(cells + 1).T.tolist())
    )
    return [node_path, ele_path]


def load_complex(path):
    """Read a mesh file (see :func:`read_mesh`) and build the simplicial
    complex."""
    mesh_file = read_mesh(path)
    return build_complex(mesh_file.points, mesh_file.cells)
