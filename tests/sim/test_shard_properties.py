"""Generated kill points for the spill-to-disk result stream.

A crash can leave a shard's ``.part`` file cut at any byte, or followed
by bytes no frame wrote.  Whatever the damage, resuming must salvage
exactly the intact frame prefix, execute the rest, and publish a
``.results`` file byte-identical to an uninterrupted run's — in this
process (one worker) and on the process pool (two workers).  One
reference run serves both worker counts: each frame pickles a fresh
copy of its spec, so the spill bytes do not depend on which process
wrote them.

A batch engine interrupted at any spec and resumed by a fresh engine on
the same stream directory must return the uninterrupted run's results
and shard files, and its one account must add up: every requested spec
is executed, resumed from the stream, a cache hit or a duplicate.
"""

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import shard as shard_module
from repro.sim.runner import BatchEngine, Sweep, spec_key
from repro.sim.shard import ResultStream, ShardedExecutor, _plan_digest

SHARDS = 2


def _specs():
    return Sweep(
        systems=("local", "static"),
        apps=("Doom3-L", "GRID"),
        n_frames=25,
        warmup_frames=5,
    ).specs()


@pytest.fixture(scope="module")
def reference() -> list[bytes]:
    """Each shard's ``.results`` bytes from an uninterrupted serial run."""
    with tempfile.TemporaryDirectory() as directory:
        executor = ShardedExecutor(shards=SHARDS, stream_dir=directory)
        list(executor.execute(_specs()))
        stream = executor.stream
        return [stream.results_path(i).read_bytes() for i in range(SHARDS)]


_DAMAGE = st.tuples(
    # Where to cut, as a fraction of the file; 1.0 keeps every frame.
    st.just(1.0) | st.floats(min_value=0.0, max_value=1.0),
    st.binary(max_size=48),  # garbage appended after the cut
)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    damage=st.lists(_DAMAGE, min_size=SHARDS, max_size=SHARDS),
    workers=st.sampled_from([1, 2]),
)
def test_resume_from_any_kill_point_is_byte_identical(reference, damage, workers):
    specs = _specs()
    with tempfile.TemporaryDirectory() as directory:
        stream = ResultStream(Path(directory) / _plan_digest(specs, SHARDS))
        for index, (cut, garbage) in enumerate(damage):
            intact = reference[index]
            torn = intact[: round(cut * len(intact))] + garbage
            stream.part_path(index).write_bytes(torn)
        executor = ShardedExecutor(
            shards=SHARDS, workers=workers, stream_dir=directory
        )
        results = list(executor.execute(specs))
        assert sorted(spec.app + spec.system for spec, _ in results) == sorted(
            spec.app + spec.system for spec in specs
        )
        for index in range(SHARDS):
            assert Path(stream.results_path(index)).read_bytes() == reference[index]
            assert not stream.part_path(index).exists()
        stats = executor.stats
        assert stats.salvaged + stats.executed == len(specs)


def _engine_specs():
    """Six unique specs, with two requested twice."""
    specs = Sweep(
        systems=("local", "remote", "static"),
        apps=("Doom3-L", "GRID"),
        n_frames=25,
        warmup_frames=5,
    ).specs()
    return specs + specs[:2]


def _shard_bytes(directory) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in Path(directory).glob("*/shard-*")
    }


@pytest.fixture(scope="module")
def uninterrupted() -> dict[int, tuple[dict[str, bytes], dict[str, bytes]]]:
    """Per shard count, results and shard-file bytes of an uninterrupted batch."""
    runs = {}
    for shards in range(1, 7):
        with tempfile.TemporaryDirectory() as directory:
            engine = BatchEngine(shards=shards, stream_dir=directory)
            results = engine.run_specs(_engine_specs())
            runs[shards] = (
                {spec_key(s): pickle.dumps(r) for s, r in results.items()},
                _shard_bytes(directory),
            )
    return runs


@settings(derandomize=True, max_examples=25, deadline=None)
@given(shards=st.integers(min_value=1, max_value=6), data=st.data())
def test_interrupted_engine_resumes_bit_identical_and_counts_every_spec(
    uninterrupted, shards, data
):
    specs = _engine_specs()
    unique = len(set(specs))
    # Interrupt as the run of the (done + 1)-th spec starts.
    done = data.draw(st.integers(min_value=0, max_value=unique - 1), label="done")
    results, shard_bytes = uninterrupted[shards]
    real_run = shard_module.run
    calls = []

    def interrupted(spec, engine):
        if len(calls) == done:
            raise KeyboardInterrupt
        calls.append(spec)
        return real_run(spec, engine)

    with tempfile.TemporaryDirectory() as directory:
        shard_module.run = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                BatchEngine(shards=shards, stream_dir=directory).run_specs(specs)
        finally:
            shard_module.run = real_run
        engine = BatchEngine(shards=shards, stream_dir=directory)
        got = engine.run_specs(specs)
        assert {spec_key(s): pickle.dumps(r) for s, r in got.items()} == results
        assert _shard_bytes(directory) == shard_bytes
    stats = engine.stats
    assert (stats.resumed, stats.executed) == (done, unique - done)
    assert stats.requested == (
        stats.executed + stats.resumed + stats.cache_hits + stats.deduplicated
    )
