"""Unit tests for CSV import/export of interactions."""

from __future__ import annotations

import pytest

from repro.core.interaction import Interaction
from repro.datasets.io import (
    read_interactions_csv,
    read_network_csv,
    write_interactions_csv,
)
from repro.exceptions import DatasetError


@pytest.fixture
def sample_interactions():
    return [
        Interaction("a", "b", 1.0, 2.5),
        Interaction("b", "c", 2.0, 3.0),
        Interaction("c", "a", 3.5, 0.25),
    ]


class TestRoundTrip:
    def test_write_and_read(self, tmp_path, sample_interactions):
        path = tmp_path / "interactions.csv"
        written = write_interactions_csv(sample_interactions, path)
        assert written == 3
        loaded = list(read_interactions_csv(path))
        assert loaded == sample_interactions

    def test_read_without_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b,1.0,2.0\nb,c,2.0,3.0\n")
        loaded = list(read_interactions_csv(path))
        assert len(loaded) == 2
        assert loaded[0].source == "a"

    def test_write_without_header(self, tmp_path, sample_interactions):
        path = tmp_path / "no_header.csv"
        write_interactions_csv(sample_interactions, path, include_header=False)
        assert len(list(read_interactions_csv(path))) == 3

    def test_integer_vertex_type(self, tmp_path):
        path = tmp_path / "ints.csv"
        write_interactions_csv([Interaction(1, 2, 1.0, 5.0)], path)
        loaded = list(read_interactions_csv(path, vertex_type=int))
        assert loaded[0].source == 1
        assert isinstance(loaded[0].source, int)

    def test_float_precision_preserved(self, tmp_path):
        quantity = 0.1234567890123456
        path = tmp_path / "precise.csv"
        write_interactions_csv([Interaction("a", "b", 1.0, quantity)], path)
        loaded = list(read_interactions_csv(path))
        assert loaded[0].quantity == quantity

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("source,destination,time,quantity\na,b,1.0,2.0\n\n\nb,c,2.0,3.0\n")
        assert len(list(read_interactions_csv(path))) == 2


class TestStreaming:
    def test_reader_is_lazy(self, tmp_path):
        # A malformed row at the end must not break consumption of the
        # prefix: rows are parsed on demand, not at call time.
        path = tmp_path / "tail_error.csv"
        path.write_text("a,b,1.0,2.0\nb,c,2.0,3.0\nbroken,row,not-a-time,1\n")
        reader = read_interactions_csv(path)
        assert next(reader).source == "a"
        assert next(reader).source == "b"
        with pytest.raises(DatasetError):
            next(reader)

    def test_limit_stops_before_bad_rows(self, tmp_path):
        path = tmp_path / "tail_error.csv"
        path.write_text("a,b,1.0,2.0\nb,c,2.0,3.0\nbroken,row,not-a-time,1\n")
        loaded = list(read_interactions_csv(path, limit=2))
        assert [i.source for i in loaded] == ["a", "b"]

    def test_limit_larger_than_file(self, tmp_path, sample_interactions):
        path = tmp_path / "small.csv"
        write_interactions_csv(sample_interactions, path)
        assert len(list(read_interactions_csv(path, limit=100))) == 3

    def test_network_reader_builds_objects_on_demand(
        self, tmp_path, sample_interactions, monkeypatch
    ):
        # read_network_csv parses straight to columns: no Interaction is
        # built until the object form (interactions, edges, neighbours) is
        # read, so a columnar run over the network never pays for one.
        path = tmp_path / "net.csv"
        write_interactions_csv(sample_interactions, path)
        built = []
        original = Interaction.__post_init__

        def counting_post_init(interaction):
            built.append(interaction)
            original(interaction)

        monkeypatch.setattr(Interaction, "__post_init__", counting_post_init)
        for read_objects in (
            lambda network: network.interactions,
            lambda network: network.edge("a", "b"),
            lambda network: network.out_neighbors("a"),
            lambda network: network.in_neighbors("a"),
        ):
            built.clear()
            network = read_network_csv(path)
            assert network.num_interactions == 3
            assert network.vertices == ("a", "b", "c")
            assert len(network.to_block()) == 3
            assert built == []
            read_objects(network)
            assert built == sample_interactions
            assert network.interactions == sample_interactions


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            list(read_interactions_csv(tmp_path / "nope.csv"))

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,1.0\n")
        with pytest.raises(DatasetError):
            list(read_interactions_csv(path))

    def test_unparseable_number(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("a,b,noon,5\n")
        with pytest.raises(DatasetError):
            list(read_interactions_csv(path))


class TestReadNetwork:
    def test_read_network(self, tmp_path, sample_interactions):
        path = tmp_path / "network.csv"
        write_interactions_csv(sample_interactions, path)
        network = read_network_csv(path)
        assert network.num_interactions == 3
        assert network.num_vertices == 3
        assert network.name == "network"

    def test_read_network_custom_name(self, tmp_path, sample_interactions):
        path = tmp_path / "network.csv"
        write_interactions_csv(sample_interactions, path)
        assert read_network_csv(path, name="custom").name == "custom"

    def test_preset_round_trip(self, tmp_path):
        from repro.datasets.catalog import load_preset

        network = load_preset("taxis", scale=0.02)
        path = tmp_path / "taxis.csv"
        write_interactions_csv(network.interactions, path)
        loaded = read_network_csv(path, vertex_type=int)
        assert loaded.num_interactions == network.num_interactions
        assert loaded.total_quantity() == pytest.approx(network.total_quantity())
