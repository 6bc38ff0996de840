"""Golden snapshot of :func:`repro.sim.runner.spec_key`.

``spec_key`` is the content hash behind the result cache and the batch
run packs: every published artefact is addressed by it.  This module
pins the exact sha256 hex digests for a canonical matrix of specs so
that *any* drift — a new hashed field, a changed default, a
canonicalisation tweak, a version bump — fails loudly here instead of
silently orphaning cached results.

The key deliberately mixes in ``_SPEC_SCHEMA_VERSION`` and the package
``__version__``, so these digests are expected to change on a release or
schema bump.  When that happens (and ONLY then — an unexplained diff is
a determinism bug), regenerate the table with::

    PYTHONPATH=src python tests/sim/test_spec_key_golden.py

which prints the current matrix in copy-pasteable form.  HASH001 in
``repro-lint.toml`` guards the companion invariant: every RunSpec /
PlatformConfig / NetworkConditions field is hashed, so none may be added
without extending its baseline ledger.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.network.conditions import LTE_4G
from repro.sim.runner import RunSpec, spec_key
from repro.sim.systems import PlatformConfig


def _matrix() -> dict[str, RunSpec]:
    """The canonical spec matrix, in a stable label -> spec mapping."""
    base = RunSpec(system="qvr", app="GRID")
    return {
        "qvr-grid-default": base,
        "local-doom3h": RunSpec(system="local", app="Doom3-H"),
        "remote-lte": RunSpec(
            system="remote",
            app="Doom3-L",
            platform=PlatformConfig(network=LTE_4G),
        ),
        "qvr-seed7-frames120": replace(base, seed=7, n_frames=120),
        # A private-link client of four at fair share, 1 / (4 * 0.8).
        "qvr-shared4": replace(
            base,
            shared_clients=4,
            shared_downlink=False,
            server_allocation=((0.0, 0.3125),),
        ),
        "qvr-chunks4": replace(base, platform=PlatformConfig(stream_chunks=4)),
        "swqvr-warmup0": RunSpec(system="sw-qvr", app="UT3", warmup_frames=0),
    }


#: Pinned digests.  Do not edit by hand — see the module docstring.
GOLDEN: dict[str, str] = {
    "local-doom3h": "8c4a40a86c0e36a0b3217173ab4f2a154ef791892f03cfc1c94c24aa437951a1",
    "qvr-chunks4": "b7858abeba95916e2465256825ebcbcf9f7823bdf39c00e36d60dbb83c0a4663",
    "qvr-grid-default": "a8a48f5ef6164ab18955353e687c28c83a465138f6af356c893f2fe63fae26a2",
    "qvr-seed7-frames120": "c9196e5b0378a82072371b586cc679e0182f0f5ae15b1475e04899d7f09e9878",
    "qvr-shared4": "5f5d9713a7e9766971b93c6f5cbe03618cdc77ee8d7ca00a5d6e6cc0cb8eb4d4",
    "remote-lte": "15f79e7cb79cfee91458a27be4a176d2a352e42a1fda7e1d731ca454bef60193",
    "swqvr-warmup0": "aa4b797a9fd6aa7a51dbf2e816c087acc179eb1c6572744b75517cea852c4143",
}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_spec_key_matches_golden(label: str) -> None:
    spec = _matrix()[label]
    assert spec_key(spec) == GOLDEN[label], (
        f"spec_key drifted for {label!r}.  If this PR bumped __version__ or "
        "_SPEC_SCHEMA_VERSION this is expected — regenerate with "
        "`PYTHONPATH=src python tests/sim/test_spec_key_golden.py`.  "
        "Otherwise the cache-key contract broke: find the change before "
        "touching this table."
    )


def test_matrix_and_golden_cover_same_labels() -> None:
    assert set(_matrix()) == set(GOLDEN)


def test_neutral_valued_fields_do_not_move_the_key() -> None:
    """Spelling out the default of a field keeps the key, while a
    non-default policy or start offset moves it, because every field is
    hashed.
    """
    base = _matrix()["qvr-grid-default"]
    explicit_neutral = replace(
        base,
        policy="fair-share",
        server_allocation=None,
        downlink_allocation=None,
        start_ms=0.0,
    )
    assert spec_key(explicit_neutral) == GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, policy="deadline")) != GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, start_ms=500.0)) != GOLDEN["qvr-grid-default"]


def test_hashed_fields_do_move_the_key() -> None:
    base = _matrix()["qvr-grid-default"]
    assert spec_key(replace(base, seed=1)) != GOLDEN["qvr-grid-default"]
    assert spec_key(replace(base, n_frames=301)) != GOLDEN["qvr-grid-default"]


if __name__ == "__main__":
    for name, spec in sorted(_matrix().items()):
        print(f'    "{name}": "{spec_key(spec)}",')
