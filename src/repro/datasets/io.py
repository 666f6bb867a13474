"""CSV import/export of interaction data.

Real TIN datasets (e.g. the preprocessed Bitcoin data or NYC taxi trips)
typically arrive as CSV files with one interaction per row.  This module
reads and writes the simple ``source,destination,time,quantity`` format so
the library can be used on the paper's original data when available, and so
synthetic datasets can be persisted for external tools.

Two ingests share one row format and one set of errors:

* :func:`read_interaction_block` parses a whole file into a time-ordered
  columnar :class:`~repro.core.blocks.InteractionBlock`.  Regular files
  (unquoted ASCII, exactly four comma-separated fields per line, LF or
  CRLF endings, no whitespace) are parsed with numpy in a handful of
  vectorised passes; anything else — quotes, blank lines, extra columns,
  padded ids, non-finite or negative values, unparseable numbers, fields
  over 512 bytes, a few labels so much longer than the rest that cutting
  every label at their width would take over twice the file's bytes in a
  large file — falls back to a
  ``csv.reader`` row loop that raises the usual ``path:line``
  :class:`~repro.exceptions.DatasetError`.  Both produce the same block
  bit for bit.  :func:`read_network_csv` wraps that block in a
  :class:`~repro.core.network.TemporalInteractionNetwork` whose interaction
  objects, edge histories and neighbour sets are built only on first use.
* :func:`read_interactions_csv` streams: it yields rows one at a time
  without materialising the file, in file order, so
  :class:`repro.runtime.Runner` (with ``stream=True``) can drive a policy
  over CSV files larger than memory.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.interaction import Interaction
from repro.core.network import TemporalInteractionNetwork
from repro.exceptions import DatasetError

__all__ = [
    "write_interactions_csv",
    "read_interactions_csv",
    "read_interaction_block",
    "read_network_csv",
    "parse_interaction_row",
    "is_header_row",
]

_HEADER = ("source", "destination", "time", "quantity")

#: Rows cut into fixed-width fields per pass of the vectorised parser; with
#: ``_MAX_FIELD_BYTES`` it bounds each pass's temporaries.
_CHUNK_ROWS = 1 << 16
#: Every field of a column is cut as wide as the column's widest one, so a
#: file with a longer field takes the row loop instead.
_MAX_FIELD_BYTES = 512

_NL, _CR, _COMMA, _QUOTE = (ord(byte) for byte in '\n\r,"')
#: The separator bytes of one regular line, by line ending.
_LF_LINE = np.frombuffer(b",,,\n", dtype=np.uint8)
_CRLF_LINE = np.frombuffer(b",,,\r\n", dtype=np.uint8)

_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def parse_interaction_row(
    row: Sequence[str],
    *,
    vertex_type: type = str,
    path: object = "<csv>",
    line_number: int = 0,
) -> Interaction:
    """Parse one ``source,destination,time,quantity`` CSV row.

    Shared by the eager readers here and the tailing
    :class:`repro.sources.CsvTailSource`, so both accept exactly the same
    format and raise the same :class:`~repro.exceptions.DatasetError` with a
    ``path:line`` prefix.
    """
    if len(row) < 4:
        raise DatasetError(
            f"{path}:{line_number}: expected 4 columns "
            f"(source, destination, time, quantity), got {len(row)}"
        )
    try:
        return Interaction(
            source=vertex_type(row[0].strip()),
            destination=vertex_type(row[1].strip()),
            time=float(row[2]),
            quantity=float(row[3]),
        )
    except (TypeError, ValueError) as exc:
        raise DatasetError(
            f"{path}:{line_number}: cannot parse row {row!r}: {exc}"
        ) from exc


def write_interactions_csv(
    interactions: Iterable[Interaction],
    path: Union[str, Path],
    *,
    include_header: bool = True,
) -> int:
    """Write interactions to ``path``; returns the number of rows written."""
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if include_header:
            writer.writerow(_HEADER)
        for interaction in interactions:
            writer.writerow(
                [
                    interaction.source,
                    interaction.destination,
                    repr(interaction.time),
                    repr(interaction.quantity),
                ]
            )
            count += 1
    return count


def _csv_rows(path: Path) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, row)`` for every data row: blank lines and a header
    on the first line are skipped."""
    with path.open("r", newline="") as handle:
        for line_number, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if line_number == 1 and is_header_row(row):
                continue
            yield line_number, row


def read_interactions_csv(
    path: Union[str, Path],
    *,
    vertex_type: type = str,
    limit: Optional[int] = None,
) -> Iterator[Interaction]:
    """Lazily yield interactions from a CSV file.

    The file must have columns ``source, destination, time, quantity``
    (header optional).  ``vertex_type`` converts the vertex columns (use
    ``int`` when vertex identifiers are integers).  Rows are parsed on
    demand — the file is never materialised, so arbitrarily large files can
    be streamed; ``limit`` stops after that many interactions without
    reading the rest.

    Raises
    ------
    DatasetError
        If a row cannot be parsed (raised when the offending row is
        reached, not at call time).
    """
    path = _existing(path)
    if limit is not None and limit <= 0:
        return
    yielded = 0
    for line_number, row in _csv_rows(path):
        yield parse_interaction_row(
            row, vertex_type=vertex_type, path=path, line_number=line_number
        )
        yielded += 1
        if limit is not None and yielded >= limit:
            return


def read_interaction_block(
    path: Union[str, Path], *, vertex_type: type = str
) -> InteractionBlock:
    """Parse a CSV file into one time-ordered columnar :class:`InteractionBlock`.

    The columns are interned ``int32`` vertex ids and ``float64`` times and
    quantities (24 bytes per row, reported as ``block.nbytes``); no
    :class:`Interaction` object is built.  Rows are stably sorted by time
    (only when the file is out of order) and vertices are interned in
    first-appearance order over the whole file, source before destination,
    row by row, so the block equals, bit for bit, the ``to_block()`` of a
    network built from the file's interaction objects.

    Regular files take the vectorised parser; any other file takes the
    ``csv.reader`` row loop (see the module docstring), which validates
    each row with :func:`parse_interaction_row` and raises its
    :class:`~repro.exceptions.DatasetError` on the first bad row.
    """
    path = _existing(path)
    interner = VertexInterner()
    columns = _parse_regular(path, vertex_type, interner)
    if columns is None:
        columns = _parse_rows(path, vertex_type, interner)
    src_ids, dst_ids, times, quantities = columns
    if times.size > 1 and (times[1:] < times[:-1]).any():
        order = np.argsort(times, kind="stable")
        src_ids, dst_ids = src_ids[order], dst_ids[order]
        times, quantities = times[order], quantities[order]
    return InteractionBlock(src_ids, dst_ids, times, quantities, interner)


def _existing(path: Union[str, Path]) -> Path:
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"interaction file {path} does not exist")
    return path


def _parse_rows(path: Path, vertex_type: type, interner: VertexInterner) -> _Columns:
    """The row-loop ingest: any file ``csv.reader`` reads, in file order."""
    intern = interner.intern
    src_ids: list = []
    dst_ids: list = []
    times: list = []
    quantities: list = []
    for line_number, row in _csv_rows(path):
        interaction = parse_interaction_row(
            row, vertex_type=vertex_type, path=path, line_number=line_number
        )
        src_ids.append(intern(interaction.source))
        dst_ids.append(intern(interaction.destination))
        times.append(interaction.time)
        quantities.append(interaction.quantity)
    return (
        np.asarray(src_ids, dtype=np.int32),
        np.asarray(dst_ids, dtype=np.int32),
        np.asarray(times, dtype=np.float64),
        np.asarray(quantities, dtype=np.float64),
    )


def _parse_regular(
    path: Path, vertex_type: type, interner: VertexInterner
) -> Optional[_Columns]:
    """The vectorised ingest, in file order; ``None`` when the file is not
    provably regular (the interner is then left untouched)."""
    data = np.fromfile(path, dtype=np.uint8)
    # One pass marks the separators, carriage returns, quotes and every byte
    # outside printable ASCII.  The file is regular when the marks repeat
    # comma, comma, comma, line end once per line, every line ending like
    # the first (\n or \r\n).
    marks = np.flatnonzero(
        ((data - np.uint8(0x21)) > 0x5D) | (data == _COMMA) | (data == _QUOTE)
    )
    kinds = data[marks]
    line = _CRLF_LINE if kinds.size > 3 and kinds[3] == _CR else _LF_LINE
    if data.size and data[-1] != _NL:
        tail = line[4:] if data[-1] == _CR else line[3:]
        marks = np.concatenate([marks, data.size + np.arange(tail.size)])
        kinds = np.concatenate([kinds, tail])
    if kinds.size % line.size or not (kinds.reshape(-1, line.size) == line).all():
        return None
    marks = marks.reshape(-1, line.size)
    if line is _CRLF_LINE and (marks[:, 4] - marks[:, 3] != 1).any():
        return None

    line_starts = np.zeros(len(marks), dtype=np.intp)
    line_starts[1:] = marks[:-1, -1] + 1
    starts = [line_starts, marks[:, 0] + 1, marks[:, 1] + 1, marks[:, 2] + 1]
    ends = [marks[:, 0], marks[:, 1], marks[:, 2], marks[:, 3]]
    if len(marks) and is_header_row(
        [data[start[0]:end[0]].tobytes().decode("ascii") for start, end in zip(starts, ends)]
    ):
        starts, ends = [start[1:] for start in starts], [end[1:] for end in ends]
    lengths = [end - start for start, end in zip(starts, ends)]
    widths = [int(length.max(initial=1)) for length in lengths]
    if max(widths) > _MAX_FIELD_BYTES:
        return None
    padded = np.concatenate([data, np.zeros(max(widths), dtype=np.uint8)])
    rows = len(lengths[0])

    # Vertex labels interleaved source, destination, row by row, all cut as
    # wide as the widest one for one np.unique over the whole file.  A file
    # where a few long labels among many short ones would make that array
    # larger than both twice the file and one pass's cut fields takes the
    # row loop instead.
    label_width = max(widths[:2])
    if 2 * rows * label_width > max(2 * data.size, _CHUNK_ROWS * _MAX_FIELD_BYTES):
        return None
    label_starts = np.stack(starts[:2], axis=1).ravel()
    label_lengths = np.stack(lengths[:2], axis=1).ravel()
    labels = np.empty(2 * rows, dtype=f"S{label_width}")
    times = np.empty(rows, dtype=np.float64)
    quantities = np.empty(rows, dtype=np.float64)
    for low in range(0, rows, _CHUNK_ROWS):
        chunk = slice(low, min(low + _CHUNK_ROWS, rows))
        pairs = slice(2 * chunk.start, 2 * chunk.stop)
        labels[pairs] = _fixed_width(
            padded, label_starts[pairs], label_lengths[pairs], label_width
        )
        for column, out in ((2, times), (3, quantities)):
            cells = _fixed_width(
                padded, starts[column][chunk], lengths[column][chunk], widths[column]
            )
            try:
                # The cast parses each field by the rules of float(), so
                # values are bit-identical to the row loop's.
                out[chunk] = cells.astype(np.float64)
            except ValueError:
                return None
    for values in (times, quantities):
        if not (np.isfinite(values).all() and (values >= 0).all()):
            return None
    ids = _intern_labels(labels, vertex_type, interner)
    if ids is None:
        return None
    return ids[0::2].copy(), ids[1::2].copy(), times, quantities


def _fixed_width(
    padded: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray:
    """The fields at ``starts`` as ``S{width}`` strings (NUL-padded)."""
    windows = np.ndarray(
        buffer=padded, dtype=f"S{width}", shape=(padded.size - width + 1,), strides=(1,)
    )
    cells = windows[starts]
    cells.view(np.uint8).reshape(-1, width)[np.arange(width) >= lengths[:, None]] = 0
    return cells


def _intern_labels(
    labels: np.ndarray, vertex_type: type, interner: VertexInterner
) -> Optional[np.ndarray]:
    """Interner ids of vertex labels (``S`` strings), interned in
    first-appearance order; ``None`` (interner untouched) when
    ``vertex_type`` rejects a label."""
    distinct, first_seen, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    by_first = np.argsort(first_seen)
    try:
        # vertex_type runs once per distinct label; labels it maps to one
        # vertex ("07" and "7" under int) merge into the first one's id.
        vertices = [
            vertex_type(label.decode("ascii")) for label in distinct[by_first].tolist()
        ]
    except (TypeError, ValueError):
        return None
    ids = np.empty(len(distinct), dtype=np.int32)
    ids[by_first] = [interner.intern(vertex) for vertex in vertices]
    return ids[inverse]


def is_header_row(row: Sequence[str]) -> bool:
    """True when a CSV row looks like the canonical header."""
    normalised = tuple(cell.strip().lower() for cell in row[:4])
    return normalised == _HEADER


def read_network_csv(
    path: Union[str, Path],
    *,
    name: Optional[str] = None,
    vertex_type: type = str,
) -> TemporalInteractionNetwork:
    """Read a CSV file into a :class:`TemporalInteractionNetwork`.

    The network is backed by the :func:`read_interaction_block` block: its
    vertices come from the interner and ``to_block()`` returns the block
    itself, while interaction objects, edge histories and neighbour sets
    are built only when first read.
    """
    path = Path(path)
    return TemporalInteractionNetwork.from_block(
        read_interaction_block(path, vertex_type=vertex_type),
        name=name or path.stem,
    )
