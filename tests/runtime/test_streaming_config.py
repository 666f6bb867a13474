"""RunConfig validation and Runner wiring of the streaming knobs."""

from __future__ import annotations

import pytest

from repro.core.interaction import Interaction
from repro.datasets.catalog import load_preset
from repro.exceptions import RunConfigurationError
from repro.runtime import RunConfig, Runner
from repro.sources import SequenceSource


def make_source():
    return SequenceSource([Interaction("a", "b", 1.0, 1.0)])


class TestValidation:
    def test_rejects_bad_micro_batch(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(micro_batch=0)

    def test_rejects_bad_max_in_flight(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(max_in_flight=0)

    def test_rejects_bad_flush_interval(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(flush_interval=0)

    def test_rejects_bad_idle_timeout(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="feed.csv", follow=True, idle_timeout=-1)

    def test_idle_timeout_requires_follow(self):
        # It would otherwise be silently ignored (only the Runner-built
        # tailing source consumes it).
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="feed.csv", stream=True, idle_timeout=5)
        with pytest.raises(RunConfigurationError):
            RunConfig(source=make_source(), idle_timeout=5)

    def test_follow_needs_a_path_dataset(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset=load_preset("taxis", scale=0.02), follow=True)

    def test_follow_conflicts_with_stream(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="feed.csv", follow=True, stream=True)

    def test_follow_conflicts_with_explicit_source(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="feed.csv", source=make_source(), follow=True)

    def test_source_conflicts_with_stream(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(source=make_source(), stream=True)
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset=make_source(), stream=True)

    def test_sharding_rejects_scheduler_knobs(self):
        # They would otherwise be silently dropped (shards batch per shard
        # via batch_size).
        for knob in ({"micro_batch": 7}, {"max_in_flight": 64},
                     {"flush_interval": 0.5}):
            with pytest.raises(RunConfigurationError):
                RunConfig(dataset="taxis", shards=2, **knob)

    def test_sharding_rejects_streaming_sources(self):
        with pytest.raises(RunConfigurationError):
            RunConfig(source=make_source(), shards=2)
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="feed.csv", follow=True, shards=2)
        with pytest.raises(RunConfigurationError):
            RunConfig(dataset="taxis", resume_from="x.ckpt", shards=2)

    def test_follow_on_preset_rejected_at_resolution(self):
        runner = Runner(RunConfig(dataset="taxis", follow=True))
        with pytest.raises(RunConfigurationError):
            runner.resolve_dataset()


class TestSchedulerWiring:
    def test_scheduler_knobs_engage_the_explicit_scheduler(self):
        assert RunConfig(micro_batch=32).uses_scheduler
        assert RunConfig(max_in_flight=64).uses_scheduler
        assert RunConfig(flush_interval=0.5).uses_scheduler
        assert RunConfig(source=make_source()).uses_scheduler
        assert RunConfig(dataset="x.csv", follow=True).uses_scheduler
        assert not RunConfig().uses_scheduler

    def test_effective_micro_batch_defaults_to_batch_size(self):
        assert RunConfig(batch_size=128).effective_micro_batch == 128
        assert RunConfig(micro_batch=32, batch_size=128).effective_micro_batch == 32
        # per-interaction batch sizes still get a sensible scheduler default
        assert RunConfig(batch_size=1).effective_micro_batch > 1

    def test_checkpoint_every_keeps_batching(self):
        eager = RunConfig(dataset="taxis", checkpoint_every=10, checkpoint_path="x")
        assert eager.effective_batch_size == eager.batch_size
        observed = RunConfig(
            dataset="taxis", checkpoint_every=10, checkpoint_path="x",
            observers=[lambda engine, interaction, position: None],
        )
        assert observed.effective_batch_size == 1
        scheduled = RunConfig(
            dataset="taxis", micro_batch=64, checkpoint_every=10, checkpoint_path="x"
        )
        assert scheduled.effective_batch_size == scheduled.batch_size

    def test_source_dataset_yields_source_arm(self):
        source = make_source()
        network, stream = Runner(RunConfig(source=source)).resolve_dataset()
        assert network is None and stream is source

    def test_source_as_dataset_positional(self):
        source = make_source()
        network, stream = Runner(RunConfig(dataset=source)).resolve_dataset()
        assert network is None and stream is source

    def test_raw_iterable_still_streams(self):
        interactions = [Interaction("a", "b", 1.0, 1.0)]
        result = Runner(RunConfig(dataset=interactions, policy="fifo")).run()
        assert result.statistics.interactions == 1

    def test_scheduler_stats_absent_on_per_interaction_runs(self):
        network = load_preset("taxis", scale=0.02)
        result = Runner(RunConfig(dataset=network, policy="fifo", batch_size=1)).run()
        assert result.scheduler_stats is None
        document = result.to_dict()
        assert document["streaming"]["scheduled"] is False

    def test_runner_closes_the_tail_source_it_built(self, tmp_path):
        # A follow run that ends via limit (before source exhaustion) must
        # release the tailed file handle promptly, not wait for GC.
        from repro.datasets.io import write_interactions_csv

        path = tmp_path / "feed.csv"
        write_interactions_csv(
            [Interaction("a", "b", float(t), 1.0) for t in range(10)], path
        )
        result = Runner(RunConfig(
            dataset=path, follow=True, idle_timeout=5.0, policy="fifo",
            micro_batch=4, limit=3,
        )).run()
        assert result.statistics.interactions == 3
        # resolve the source the Runner used: exhausted == handle released
        # (close() routes through _finish)
        # A fresh runner re-resolves, so inspect indirectly: the file can be
        # unlinked on every platform once no handle is open.
        path.unlink()

    def test_runner_leaves_caller_sources_open(self):
        source = SequenceSource(
            [Interaction("a", "b", float(t), 1.0) for t in range(10)]
        )
        closed = []
        original_close = source.close
        source.close = lambda: (closed.append(True), original_close())
        Runner(RunConfig(source=source, policy="fifo", limit=3)).run()
        assert not closed  # the caller owns the source's lifecycle

    def test_limit_does_not_overconsume_caller_sources(self):
        # Scheduler read-ahead must stop at the limit: the rest of a
        # caller's source stays available for continuation.
        source = SequenceSource(
            [Interaction("a", "b", float(t), 1.0) for t in range(500)]
        )
        result = Runner(RunConfig(
            source=source, policy="fifo", limit=100, micro_batch=64
        )).run()
        assert result.statistics.interactions == 100
        assert len(source.poll(1000)) == 400  # nothing consumed past the limit

    def test_resume_skip_does_not_overconsume_the_source(self, tmp_path):
        # _drain_source must poll exactly the checkpointed offset, not a
        # whole iteration chunk: everything after the offset is processed.
        from repro.core.checkpoint import save_engine
        from repro.core.engine import ProvenanceEngine
        from repro.policies.registry import make_policy

        interactions = [Interaction("a", "b", float(t), 1.0) for t in range(50)]
        checkpoint = tmp_path / "offset5.ckpt"
        engine = ProvenanceEngine(make_policy("fifo"))
        engine.run(interactions[:5], batch_size=4)
        save_engine(engine, checkpoint)

        resumed = Runner(RunConfig(
            source=SequenceSource(interactions),
            policy="fifo",
            resume_from=checkpoint,
            micro_batch=8,
        )).run()
        assert resumed.statistics.interactions == 45
        assert resumed.engine.interactions_processed == 50

    def test_runner_leaves_caller_generators_open(self):
        # A raw generator dataset may be continued after a limited run; the
        # Runner must not close it behind the caller's back.
        def feed():
            for t in range(10):
                yield Interaction("a", "b", float(t), 1.0)

        generator = feed()
        Runner(RunConfig(
            dataset=generator, policy="fifo", micro_batch=4, limit=3
        )).run()
        assert next(generator).time >= 3.0  # still alive, not closed

    def test_scheduler_stats_exported_in_to_dict(self):
        network = load_preset("taxis", scale=0.02)
        result = Runner(RunConfig(dataset=network, policy="fifo", micro_batch=32)).run()
        document = result.to_dict()
        assert document["streaming"]["scheduled"] is True
        assert document["streaming"]["scheduler"]["micro_batch"] == 32
