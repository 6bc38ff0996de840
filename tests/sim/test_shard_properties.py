"""Generated kill points for the spill-to-disk result stream.

A crash can leave a shard's ``.part`` file cut at any byte, or followed
by bytes no frame wrote.  Whatever the damage, resuming must salvage
exactly the intact frame prefix, execute the rest, and publish a
``.results`` file byte-identical to an uninterrupted run's — in this
process (one worker) and on the process pool (two workers).  One
reference run serves both worker counts: each frame pickles a fresh
copy of its spec, so the spill bytes do not depend on which process
wrote them.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.runner import Sweep
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
