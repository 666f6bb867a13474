"""The columnar CSV ingest: vectorised parser, row fallback and run paths.

``read_interaction_block`` parses regular files with numpy and sends every
other file to the ``csv.reader`` row loop.  Both must produce the block the
object path builds (``TemporalInteractionNetwork.from_interactions`` over
the row reader, then ``to_block``) bit for bit — columns and interner order
— and every run path over a CSV must agree, whatever the file's row order.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import InteractionBlock, VertexInterner
from repro.core.network import TemporalInteractionNetwork
from repro.datasets import io
from repro.datasets.io import (
    _parse_regular,
    _parse_rows,
    read_interaction_block,
    read_interactions_csv,
)
from repro.exceptions import DatasetError
from repro.runtime import RunConfig, Runner


def reference_block(path, vertex_type=str):
    """The object path's block: row reader -> network -> to_block."""
    return TemporalInteractionNetwork.from_interactions(
        read_interactions_csv(path, vertex_type=vertex_type)
    ).to_block()


def assert_bit_identical(block, expected):
    assert block.interner.vertices == expected.interner.vertices
    for name in ("src_ids", "dst_ids"):
        got, want = getattr(block, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.int32
        np.testing.assert_array_equal(got, want)
    for name in ("times", "quantities"):
        got, want = getattr(block, name), getattr(expected, name)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# ----------------------------------------------------------------------
# vectorised parser == row loop, bit for bit
# ----------------------------------------------------------------------
EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53 + 2, 1e22, 1e23, 123456789.0,
]
VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
FORMATS = [
    repr,
    "{:e}".format,
    "{:E}".format,
    "{:.17e}".format,
    "{:.17g}".format,
    "{:.3f}".format,
    lambda value: "+" + repr(value) if repr(value)[0] != "-" else repr(value),
    lambda value: str(int(value)) if value < 1e18 else repr(value),
]
NUMBERS = st.tuples(VALUES, st.sampled_from(FORMATS)).map(lambda pair: pair[1](pair[0]))
#: Times repeat often so ties (and stable ordering) are exercised.
TIMES = st.one_of(st.sampled_from(["1.5", "1.50", "2", "0.0", "-0.0", "2e0"]), NUMBERS)
STR_IDS = st.from_regex(r"[A-Za-z0-9_.:;#'/-]{1,12}", fullmatch=True)
#: Integer ids with signs and leading zeros: "07" and "7" are one int vertex.
INT_IDS = st.from_regex(r"[+-]?0{0,2}[0-9]{1,3}", fullmatch=True)


@st.composite
def csv_files(draw):
    vertex_type = draw(st.sampled_from([str, int]))
    ids = INT_IDS if vertex_type is int else st.one_of(STR_IDS, INT_IDS)
    rows = draw(st.lists(st.tuples(ids, ids, TIMES, NUMBERS), max_size=40))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(
            ["source,destination,time,quantity", "Source,Destination,Time,Quantity"]
        )))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text, vertex_type


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_files(), st.sampled_from([1, 3, io._CHUNK_ROWS]))
def test_vectorised_parser_matches_row_loop(case, chunk_rows):
    text, vertex_type = case
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        io, "_CHUNK_ROWS", chunk_rows
    ):
        path = Path(directory) / "rows.csv"
        path.write_bytes(text.encode("ascii"))
        fast_interner = VertexInterner()
        fast = _parse_regular(path, vertex_type, fast_interner)
        assert fast is not None, "a regular file must take the vectorised parser"
        slow_interner = VertexInterner()
        slow = _parse_rows(path, vertex_type, slow_interner)
        assert_bit_identical(
            InteractionBlock(*fast, fast_interner), InteractionBlock(*slow, slow_interner)
        )
        assert_bit_identical(
            read_interaction_block(path, vertex_type=vertex_type),
            reference_block(path, vertex_type),
        )


def test_few_long_labels_among_short_ones_take_the_row_loop(tmp_path, monkeypatch):
    # Labels are cut at the widest one's width; with small passes the bound
    # on that array is twice the file, which one long label here exceeds.
    monkeypatch.setattr(io, "_CHUNK_ROWS", 4)
    short = [f"s{row},d{row},{row},1" for row in range(200)]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(short + ["L" * 100 + ",d0,200,1"]) + "\n")
    assert _parse_regular(path, str, VertexInterner()) is None
    assert_bit_identical(read_interaction_block(path), reference_block(path))
    # Labels of similar widths stay on the vectorised parser.
    path.write_text("\n".join(short + ["L" * 12 + ",d0,200,1"]) + "\n")
    assert _parse_regular(path, str, VertexInterner()) is not None
    assert_bit_identical(read_interaction_block(path), reference_block(path))


def test_int_ids_that_collide_merge_in_first_appearance_order(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text("07,8,1,1\n7,+8,2,1\n9,007,3,1\n")
    block = read_interaction_block(path, vertex_type=int)
    assert block.interner.vertices == [7, 8, 9]
    assert block.src_ids.tolist() == [0, 0, 2]
    assert block.dst_ids.tolist() == [1, 1, 0]
    assert read_interaction_block(path).interner.vertices == ["07", "8", "7", "+8", "9", "007"]


# ----------------------------------------------------------------------
# irregular files take the row loop
# ----------------------------------------------------------------------
READABLE_IRREGULAR = {
    "quoted fields": '"a",b,1,2\n"b,c",a,2,3\n',
    "extra columns": "a,b,1,2,x\nb,c,2,3,y,z\n",
    "blank lines": "source,destination,time,quantity\na,b,1,2\n\n\nb,c,2,3\n",
    "padded ids": " a ,b ,1,2\nb,\tc,2,3\n",
    "padded numbers": "a,b, 1 ,2\n",
    "lone carriage returns": "a,b,1,2\rb,c,2,3\r",
    "non-ascii ids": "é,b,1,2\nb,ü,2,3\n",
    "overlong label": "a,b,1,2\n" + "x" * 600 + ",a,2,3\n",
}

FAILING_IRREGULAR = {
    "too few columns": "a,b,1\n",
    "infinite time": "a,b,inf,2\n",
    "nan quantity": "a,b,1,nan\n",
    "negative quantity": "a,b,1,-2\n",
    "negative time": "a,b,-1,2\n",
    "overflowing number": "a,b,1e400,2\n",
    "unparseable number": "a,b,noon,5\n",
    "empty number": "a,b,,5\n",
    "malformed exponent": "a,b,1e,5\n",
    "bad row after good rows": "a,b,1,2\nb,c,2,3\nc,a,3.0.1,4\n",
}


@pytest.mark.parametrize("name", sorted(READABLE_IRREGULAR))
def test_irregular_file_falls_back_to_row_loop(tmp_path, name):
    path = tmp_path / "irregular.csv"
    path.write_text(READABLE_IRREGULAR[name], encoding="utf-8", newline="")
    assert _parse_regular(path, str, VertexInterner()) is None
    assert_bit_identical(read_interaction_block(path), reference_block(path))


@pytest.mark.parametrize("name", sorted(FAILING_IRREGULAR))
def test_bad_file_raises_row_loop_error(tmp_path, name):
    path = tmp_path / "bad.csv"
    path.write_text(FAILING_IRREGULAR[name])
    interner = VertexInterner()
    assert _parse_regular(path, str, interner) is None
    assert len(interner) == 0
    with pytest.raises(DatasetError) as expected:
        list(read_interactions_csv(path))
    with pytest.raises(DatasetError) as raised:
        read_interaction_block(path)
    assert str(raised.value) == str(expected.value)
    assert f"{path}:" in str(raised.value)


def test_bad_vertex_under_int_raises_row_loop_error(tmp_path):
    path = tmp_path / "bad_ids.csv"
    path.write_text("1,2,1,1\n3,x4,2,1\n")
    assert _parse_regular(path, int, VertexInterner()) is None
    with pytest.raises(DatasetError) as expected:
        list(read_interactions_csv(path, vertex_type=int))
    with pytest.raises(DatasetError) as raised:
        read_interaction_block(path, vertex_type=int)
    assert str(raised.value) == str(expected.value)
    assert f"{path}:2:" in str(raised.value)


def test_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="does not exist"):
        read_interaction_block(tmp_path / "nope.csv")


def test_empty_and_header_only_files(tmp_path):
    for text in ("", "source,destination,time,quantity\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        block = read_interaction_block(path)
        assert len(block) == 0 and len(block.interner) == 0


# ----------------------------------------------------------------------
# every run path agrees on an out-of-order file
# ----------------------------------------------------------------------
#: Out of time order, with ties (t=3 twice, t=5 twice), and a second
#: weakly-connected component {x, y} so component sharding splits it.
OUT_OF_ORDER = "\n".join([
    "a,b,5,3",
    "b,c,1,2",
    "c,a,3,1",
    "x,y,4,2",
    "a,c,2,4",
    "c,b,3,2",
    "y,x,0.5,1",
    "b,a,5,1",
]) + "\n"


def answers(result):
    totals = dict(result.buffer_totals())
    return totals, {vertex: result.origins(vertex).as_dict() for vertex in totals}


@pytest.mark.parametrize("policy", ["proportional-dense", "fifo", "noprov"])
def test_run_paths_agree_on_out_of_order_csv(tmp_path, policy):
    path = tmp_path / "unsorted.csv"
    path.write_text(OUT_OF_ORDER)

    def run(**options):
        return answers(Runner(RunConfig(dataset=str(path), policy=policy, **options)).run())

    expected = run()
    assert expected[0]["b"] == 4.0  # the time-ordered recurrence
    assert run(batch_size=1) == expected
    assert run(micro_batch=3) == expected
    assert run(shards=2, shard_by="components") == expected
    # A limit keeps the earliest rows of the time order on every path.
    limited = run(limit=4)
    assert run(limit=4, batch_size=1) == limited
    assert run(limit=4, micro_batch=3) == limited
    assert limited != expected
