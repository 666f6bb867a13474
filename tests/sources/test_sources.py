"""Unit tests for the interaction-source backends."""

from __future__ import annotations

import pytest

from repro.core.interaction import Interaction
from repro.datasets.io import write_interactions_csv
from repro.exceptions import DatasetError, InvalidInteractionError, RunConfigurationError
from repro.sources import (
    CsvTailSource,
    GeneratorSource,
    MergeSource,
    SequenceSource,
)


def make(times, source="a", destination="b"):
    return [Interaction(source, destination, float(t), 1.0) for t in times]


class TestSequenceSource:
    def test_polls_in_chunks_until_exhausted(self):
        src = SequenceSource(make(range(7)))
        assert [r.time for r in src.poll(3)] == [0, 1, 2]
        assert not src.exhausted
        assert [r.time for r in src.poll(3)] == [3, 4, 5]
        assert [r.time for r in src.poll(3)] == [6]
        assert src.exhausted
        assert src.poll(3) == []

    def test_watermark_and_count_advance(self):
        src = SequenceSource(make([1, 2, 5]))
        assert src.watermark is None
        src.poll(2)
        assert src.watermark == 2
        src.poll(10)
        assert src.watermark == 5
        assert src.interactions_emitted == 3

    def test_limit_truncates(self):
        src = SequenceSource(make(range(100)), limit=4)
        assert len(list(src)) == 4

    def test_iter_drains_everything(self):
        assert [r.time for r in SequenceSource(make([1, 2, 3]))] == [1, 2, 3]

    def test_validate_rejects_out_of_order(self):
        src = SequenceSource(make([1, 3, 2]), validate=True)
        with pytest.raises(InvalidInteractionError):
            src.poll(10)

    def test_validate_accepts_equal_timestamps(self):
        src = SequenceSource(make([1, 1, 2]), validate=True)
        assert len(src.poll(10)) == 3

    def test_wraps_lazy_generators(self):
        def generator():
            yield from make([1, 2])

        src = SequenceSource(generator())
        assert [r.time for r in src] == [1, 2]

    def test_context_manager_closes(self):
        with SequenceSource(make([1])) as src:
            pass
        assert src.exhausted


class TestGeneratorSource:
    def test_unthrottled_behaves_like_sequence(self):
        src = GeneratorSource(make(range(5)))
        assert len(list(src)) == 5

    def test_rate_limit_paces_release(self):
        clock = FakeClock()
        src = GeneratorSource(make(range(100)), rate=10, burst=2, clock=clock)
        assert len(src.poll(50)) == 2  # full bucket releases the burst
        assert src.poll(50) == []      # bucket empty, no time passed
        assert not src.exhausted
        clock.advance(0.5)             # 10/s * 0.5s = 5 tokens
        assert len(src.poll(50)) == 2  # capped by burst capacity
        clock.advance(0.25)            # comfortably over one token
        assert len(src.poll(1)) == 1   # caller cap below allowance

    def test_rejects_bad_parameters(self):
        with pytest.raises(RunConfigurationError):
            GeneratorSource([], rate=0)
        with pytest.raises(RunConfigurationError):
            GeneratorSource([], rate=5, burst=0)

    def test_exhausts_at_end_of_replay(self):
        clock = FakeClock()
        src = GeneratorSource(make([1, 2]), rate=1000, clock=clock)
        clock.advance(1.0)
        src.poll(10)
        assert src.exhausted


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCsvTailSource:
    def test_reads_existing_file_and_exhausts(self, tmp_path):
        path = tmp_path / "feed.csv"
        write_interactions_csv(make([1, 2, 3]), path)
        with CsvTailSource(path) as src:
            assert [r.time for r in src.poll(10)] == [1, 2, 3]
            assert src.poll(10) == []
            assert src.exhausted

    def test_missing_file_rejected_unless_opted_out(self, tmp_path):
        with pytest.raises(DatasetError):
            CsvTailSource(tmp_path / "nope.csv")
        with CsvTailSource(
            tmp_path / "later.csv", must_exist=False, follow=True, idle_timeout=0.01
        ) as src:
            assert src.poll(5) == []  # nothing yet, not an error

    def test_must_exist_false_requires_follow(self, tmp_path):
        # A non-following source would exhaust on the first poll before the
        # producer ever creates the file.
        with pytest.raises(RunConfigurationError):
            CsvTailSource(tmp_path / "later.csv", must_exist=False)

    def test_waits_for_the_file_to_appear(self, tmp_path):
        path = tmp_path / "later.csv"
        with CsvTailSource(path, must_exist=False, follow=True, idle_timeout=60) as src:
            assert src.poll(5) == [] and not src.exhausted
            path.write_text("a,b,1.0,2.0\n")
            assert [r.time for r in src.poll(5)] == [1.0]

    def test_follow_picks_up_appended_rows(self, tmp_path):
        path = tmp_path / "feed.csv"
        write_interactions_csv(make([1]), path)
        with CsvTailSource(path, follow=True, idle_timeout=60) as src:
            assert [r.time for r in src.poll(10)] == [1]
            assert src.poll(10) == []
            assert not src.exhausted
            with path.open("a") as handle:
                handle.write("a,b,2.0,1.0\n")
            assert [r.time for r in src.poll(10)] == [2.0]

    def test_partial_line_buffered_until_newline_lands(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("a,b,1.0,1.0\n")
        with CsvTailSource(path, follow=True, idle_timeout=60) as src:
            assert len(src.poll(10)) == 1
            with path.open("a") as handle:
                handle.write("a,b,2.0,")  # torn row: no newline yet
            assert src.poll(10) == []
            with path.open("a") as handle:
                handle.write("5.0\n")
            [interaction] = src.poll(10)
            assert interaction.time == 2.0 and interaction.quantity == 5.0

    def test_idle_timeout_exhausts_follow_run(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "feed.csv"
        write_interactions_csv(make([1]), path)
        with CsvTailSource(path, follow=True, idle_timeout=2.0, clock=clock) as src:
            src.poll(10)
            clock.advance(1.0)
            assert src.poll(10) == [] and not src.exhausted
            clock.advance(1.5)
            assert src.poll(10) == []
            assert src.exhausted

    def test_header_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("source,destination,time,quantity\n\na,b,1.0,2.0\n")
        with CsvTailSource(path) as src:
            [interaction] = src.poll(10)
        assert interaction.time == 1.0

    def test_vertex_type_conversion(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("1,2,1.0,2.0\n")
        with CsvTailSource(path, vertex_type=int) as src:
            [interaction] = src.poll(10)
        assert interaction.source == 1 and interaction.destination == 2

    def test_out_of_order_rows_rejected(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("a,b,2.0,1.0\na,b,1.0,1.0\n")
        with CsvTailSource(path) as src:
            with pytest.raises(InvalidInteractionError):
                src.poll(10)

    def test_malformed_row_raises_dataset_error(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("a,b,notatime,1.0\n")
        with CsvTailSource(path) as src:
            with pytest.raises(DatasetError):
                src.poll(10)

    def test_final_row_without_trailing_newline_is_not_dropped(self, tmp_path):
        # Files written by other tools often lack the final newline; the
        # tail source must yield the same rows as the eager reader.
        from repro.datasets.io import read_interactions_csv

        path = tmp_path / "feed.csv"
        path.write_text("a,b,1.0,1.0\na,b,2.0,3.0")  # no trailing \n
        eager = list(read_interactions_csv(path))
        with CsvTailSource(path) as src:
            tailed = list(src)
        assert len(eager) == 2
        assert tailed == eager

    def test_partial_bytes_keep_the_idle_clock_alive(self, tmp_path):
        # A slow producer that is mid-row is still a live producer: torn
        # bytes must reset the idle clock so the stream is not declared
        # over while data is being written.
        clock = FakeClock()
        path = tmp_path / "feed.csv"
        path.write_text("a,b,1.0,1.0\n")
        with CsvTailSource(path, follow=True, idle_timeout=1.0, clock=clock) as src:
            src.poll(10)
            clock.advance(0.9)
            with path.open("a") as handle:
                handle.write("a,b,2.0,")      # torn write: progress, no full row
            assert src.poll(10) == []
            clock.advance(0.9)                # 1.8 since the last COMPLETE row
            assert src.poll(10) == []
            assert not src.exhausted          # partial bytes kept it alive
            with path.open("a") as handle:
                handle.write("5.0\n")
            assert [r.quantity for r in src.poll(10)] == [5.0]

    def test_unterminated_final_row_flushed_at_idle_timeout(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "feed.csv"
        path.write_text("a,b,1.0,1.0\na,b,2.0,3.0")  # producer died mid-write
        with CsvTailSource(path, follow=True, idle_timeout=1.0, clock=clock) as src:
            assert [r.time for r in src.poll(10)] == [1.0]
            clock.advance(2.0)
            [final] = src.poll(10)
            assert final.time == 2.0 and final.quantity == 3.0
            assert src.exhausted


class TestMergeSource:
    def test_merges_in_time_order(self):
        merged = MergeSource(
            SequenceSource(make([1, 4, 6])), SequenceSource(make([2, 3, 5]))
        )
        assert [r.time for r in merged] == [1, 2, 3, 4, 5, 6]

    def test_equal_timestamps_stable_by_input_position(self):
        merged = MergeSource(
            SequenceSource(make([1, 2], source="first")),
            SequenceSource(make([1, 2], source="second")),
        )
        assert [(r.time, r.source) for r in merged] == [
            (1, "first"), (1, "second"), (2, "first"), (2, "second"),
        ]

    def test_empty_inputs(self):
        merged = MergeSource(SequenceSource([]), SequenceSource(make([1])))
        assert [r.time for r in merged] == [1]
        assert merged.exhausted

    def test_needs_at_least_one_input(self):
        with pytest.raises(RunConfigurationError):
            MergeSource()

    def test_rejects_out_of_order_input(self):
        merged = MergeSource(SequenceSource(make([2, 1])))
        with pytest.raises(InvalidInteractionError):
            merged.poll(10)

    def test_stalls_while_live_input_is_quiet(self, tmp_path):
        # One eager input, one live (following) input with nothing buffered:
        # the merge must emit nothing rather than risk breaking time order.
        path = tmp_path / "live.csv"
        path.write_text("")
        live = CsvTailSource(path, follow=True, idle_timeout=60)
        merged = MergeSource(SequenceSource(make([5, 6])), live)
        assert merged.poll(10) == []
        assert not merged.exhausted
        with path.open("a") as handle:
            handle.write("x,y,1.0,1.0\nx,y,7.0,1.0\n")
        assert [r.time for r in merged.poll(10)] == [1.0, 5.0, 6.0, 7.0]
        live.close()
        assert merged.poll(10) == []
        assert merged.exhausted

    def test_close_closes_all_inputs(self):
        inputs = [SequenceSource(make([1])), SequenceSource(make([2]))]
        MergeSource(*inputs).close()
        assert all(source.exhausted for source in inputs)
