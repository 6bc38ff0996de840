"""Generated interrupt points for a batch that resumes from its cache.

A batch engine interrupted at any spec and resumed by a fresh engine on
the same result cache, at another shard and job count, must return the
uninterrupted run's results, execute exactly the specs the interrupted
run had not yielded, leave nothing in its stream directory, and keep one
account that adds up: every requested spec is executed, a cache hit or a
duplicate.
"""

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import shard as shard_module
from repro.sim.runner import BatchEngine, Sweep, spec_key


def _engine_specs():
    """Six unique specs, with two requested twice."""
    specs = Sweep(
        systems=("local", "remote", "static"),
        apps=("Doom3-L", "GRID"),
        n_frames=25,
        warmup_frames=5,
    ).specs()
    return specs + specs[:2]


@pytest.fixture(scope="module")
def uninterrupted() -> dict[str, bytes]:
    """Results of an uninterrupted batch, keyed by spec key."""
    results = BatchEngine().run_specs(_engine_specs())
    return {spec_key(s): pickle.dumps(r) for s, r in results.items()}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shards=st.integers(min_value=1, max_value=6), data=st.data())
def test_interrupted_engine_resumes_bit_identical_and_counts_every_spec(
    uninterrupted, shards, data
):
    specs = _engine_specs()
    unique = len(set(specs))
    # Interrupt as the run of the (done + 1)-th spec starts.
    done = data.draw(st.integers(min_value=0, max_value=unique - 1), label="done")
    rerun_shards = data.draw(
        st.integers(min_value=1, max_value=6).filter(lambda n: n != shards),
        label="rerun_shards",
    )
    real_run = shard_module.run
    calls = []

    def interrupted(spec, engine):
        if len(calls) == done:
            raise KeyboardInterrupt
        calls.append(spec)
        return real_run(spec, engine)

    with tempfile.TemporaryDirectory() as directory:
        cache, stream = Path(directory, "cache"), Path(directory, "stream")
        yielded = []
        shard_module.run = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                first = BatchEngine(shards=shards, cache_dir=cache, stream_dir=stream)
                for spec, _ in first.stream_specs(specs):
                    yielded.append(spec)
        finally:
            shard_module.run = real_run
        assert len(yielded) == done

        # The rerun runs on a two-worker pool whenever it has two shards.
        engine = BatchEngine(
            jobs=2, shards=rerun_shards, cache_dir=cache, stream_dir=stream
        )
        got, executed = {}, []
        for spec, result in engine.stream_specs(specs):
            if engine.stats.executed > len(executed):
                executed.append(spec)
            got[spec_key(spec)] = pickle.dumps(result)
        assert got == uninterrupted
        assert sorted(map(spec_key, executed)) == sorted(
            spec_key(spec) for spec in set(specs) - set(yielded)
        )
        assert list(stream.rglob("*")) == []
    stats = engine.stats
    assert (stats.executed, stats.cache_hits) == (unique - done, done)
    assert stats.requested == stats.executed + stats.cache_hits + stats.deduplicated
