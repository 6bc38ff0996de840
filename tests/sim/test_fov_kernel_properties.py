"""Generated parity and footprint checks of the foveation geometry kernel.

Every ``_FoveationKernel.plan(f, e1)`` must equal, field by field and bit
for bit, the scalar ``FoveationModel.plan(e1, None, gaze_x, gaze_y)`` at
frame ``f``'s gaze.  The kernel memoises sweeps, areas and plans per
seed for lattice and beyond-corner eccentricities, searches off-lattice
ones directly without storing them, and shares one scratch set per
resolution, so the generated cases mix what could make sharing leak:
several seeds on one lattice with their calls interleaved, and lattice,
off-lattice and beyond-corner eccentricities recurring over runs of
frames.  A cold SW-QVR run checks that its off-lattice plans leave no
memo entry behind and still match the oracle.  The footprint test pins
what sharing buys: an extra 120-frame GRID kernel retains its results
(about 380 KB), not a scratch set, and a lattice counts one scratch
allocation however many kernels use it.  The suffix-sweep properties pin
what makes partial sweeps exact: any slice of radii integrates to the
same bits as those rows of a full call, and sweeps asked at offsets in
any order hold the full master sweep's bits.
"""

import dataclasses
import tracemalloc
from collections import OrderedDict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.core.foveation import DisplayGeometry, FoveationModel
from repro.motion.traces import generate_trace
from repro.obs import metrics as obs_metrics
from repro.sim import kernels as kernels_mod
from repro.sim.kernels import _FoveationKernel, _Lattice
from repro.workloads.apps import APPS, get_app

RESOLUTIONS = ((1920, 2160), (1280, 1600))


def make_kernel(lattice, seed, n_frames):
    """A gaze kernel on ``lattice`` over one seed's motion trace."""
    trace = generate_trace(
        n_frames,
        constants.FRAME_BUDGET_MS,
        lattice.width_px,
        lattice.height_px,
        seed=seed,
    )
    return _FoveationKernel(lattice, trace)


def assert_plan_identical(got, want):
    """Field-for-field equality of two plans, including float bits."""
    for field in dataclasses.fields(want):
        value_g = getattr(got, field.name)
        value_w = getattr(want, field.name)
        assert type(value_g) is type(value_w), field.name
        assert value_g.hex() == value_w.hex(), (field.name, value_g, value_w)


def assert_calls_match(width, height, kernels, calls):
    """Run ``(kernel index, frame, e1)`` calls in order against the oracle."""
    model = FoveationModel(DisplayGeometry(width, height))
    for index, frame, e1 in calls:
        kern = kernels[index]
        f = frame % len(kern.gx)
        want = model.plan(e1, None, kern.gx[f], kern.gy[f])
        assert_plan_identical(kern.plan(f, e1), want)


@st.composite
def eccentricity(draw, lattice):
    """An ``e1`` on the master lattice, off it, or at/above the corner."""
    kind = draw(st.sampled_from(("lattice", "off", "corner")))
    if kind == "lattice":
        return float(draw(st.sampled_from(list(lattice.master))))
    if kind == "off":
        return draw(
            st.floats(
                min_value=constants.MIN_ECCENTRICITY_DEG,
                max_value=lattice.corner,
                exclude_max=True,
            )
        )
    return lattice.corner + draw(st.floats(min_value=0.0, max_value=20.0))


@st.composite
def shared_lattice_case(draw):
    """2–3 seeds on one lattice and an interleaved call sequence."""
    width, height = draw(st.sampled_from(RESOLUTIONS))
    lattice = _Lattice(width, height)
    seeds = draw(st.lists(st.integers(0, 50), min_size=2, max_size=3, unique=True))
    lengths = draw(
        st.lists(st.integers(1, 48), min_size=len(seeds), max_size=len(seeds))
    )
    # Calls come in runs of consecutive frames at one (kernel, e1) drawn
    # from a small pool, so eccentricities recur and memoised plans and
    # areas are read back; successive runs interleave the kernels.
    pool = draw(st.lists(eccentricity(lattice), min_size=1, max_size=3))
    runs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(seeds) - 1),
                st.sampled_from(pool),
                st.integers(0, 47),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    calls = [
        (index, start + step, e1)
        for index, e1, start, count in runs
        for step in range(count)
    ]
    return width, height, lattice, list(zip(seeds, lengths)), calls


class TestPlanParity:
    @settings(max_examples=60, deadline=None)
    @given(shared_lattice_case())
    def test_interleaved_seeds_match_the_oracle(self, case):
        width, height, lattice, kernel_args, calls = case
        kernels = [make_kernel(lattice, seed, n) for seed, n in kernel_args]
        assert_calls_match(width, height, kernels, calls)

    def test_direct_search_leaves_nothing_behind(self, monkeypatch):
        """SW-QVR's off-lattice plans are rebuilt on demand, never stored."""
        for name in ("_GEOMETRY_CACHE", "_WORKLOAD_CACHE", "_LATTICE_CACHE"):
            monkeypatch.setattr(kernels_mod, name, OrderedDict())
        app = APPS["GRID"]
        result = kernels_mod.run_vectorized("sw-qvr", app, seed=3, n_frames=24)
        workloads = kernels_mod._workloads(app, 3, 24)
        kern = kernels_mod._foveation_kernel(app, 3, workloads)

        def direct(e):
            return e < kern.corner and e not in kern.lattice_offsets

        assert not [key for key in kern._plans if direct(key[1])]
        assert not [key for key in kern._areas if direct(key[1])]
        off_lattice = [
            (r.index, r.e1_deg) for r in result.records if direct(r.e1_deg)
        ]
        assert off_lattice
        model = FoveationModel(DisplayGeometry(app.width_px, app.height_px))
        for f, e1 in off_lattice:
            want = model.plan(e1, None, kern.gx[f], kern.gy[f])
            assert_plan_identical(kern.plan(f, e1), want)


@st.composite
def gaze_case(draw):
    """A lattice and one gaze centre anywhere on (or just off) its panel."""
    width, height = draw(st.sampled_from(RESOLUTIONS))
    lattice = _Lattice(width, height)
    cx = draw(st.floats(min_value=-50.0, max_value=width + 50.0))
    cy = draw(st.floats(min_value=-50.0, max_value=height + 50.0))
    return lattice, cx, cy


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSuffixSweeps:
    """Sweeps integrate only the rows asked for, with the full sweep's bits."""

    @settings(max_examples=80, deadline=None)
    @given(gaze_case(), st.data())
    def test_any_radius_slice_matches_the_full_call(self, case, data):
        lattice, cx, cy = case
        n = len(lattice.radii)
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        full = lattice.disc_areas(cx, cy, lattice.radii)
        part = lattice.disc_areas(cx, cy, lattice.radii[start:stop])
        assert_bits_equal(part, full[start:stop])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(RESOLUTIONS),
        st.integers(0, 50),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=8),
    )
    def test_offsets_in_any_order_match_the_master_sweep(
        self, resolution, seed, picks
    ):
        lattice = _Lattice(*resolution)
        kern = make_kernel(lattice, seed, 3)
        offsets = [pick % len(lattice.master) for pick in picks]
        areas_full = lattice.disc_areas(kern.gx[1], kern.gy[1], lattice.radii)
        outer_full = np.maximum(lattice.total - areas_full, 0.0) / lattice.s_out_sq
        for k in offsets:
            areas, outer = kern._sweep(1, k)
            assert_bits_equal(areas, areas_full[k:])
            assert_bits_equal(outer, outer_full[k:])
        k0, held, _ = kern._sweeps[1]
        assert k0 == min(offsets)
        assert kern.sweep_rows() == len(held) == len(lattice.master) - k0


def test_extra_kernels_retain_results_not_scratch():
    """Eight GRID kernels: each extra one retains well under 1 MB."""
    app = get_app("GRID")
    lattice = _Lattice(app.width_px, app.height_px)
    n_frames = 120
    off_lattice = 7.3

    def build(seed):
        kern = make_kernel(lattice, seed, n_frames)
        for f in range(n_frames):
            kern.plan(f, 10.0)
        kern.plan(0, off_lattice)
        return kern

    kernels = [build(0)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernels += [build(seed) for seed in range(1, 8)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_kernel = retained / 7
    assert per_kernel < 1_000_000, f"{per_kernel / 1e6:.2f} MB per extra kernel"
    # One scratch set, by identity: the lattice's.
    assert all(kern.lattice is lattice for kern in kernels)
    for kern in kernels:
        assert not [name for name in vars(kern) if name.startswith("_ws_")]


def test_scratch_counter_counts_lattice_allocations(monkeypatch):
    """One count for the lattice's scratch set, however many kernels use it."""
    registry = obs_metrics.MetricsRegistry()
    monkeypatch.setattr(obs_metrics, "_active", registry)
    lattice = _Lattice(1280, 1600)
    for seed, n_frames in ((0, 10), (1, 10), (2, 25), (3, 5)):
        kern = make_kernel(lattice, seed, n_frames)
        for f in range(n_frames):
            kern.plan(f, 8.0)
    counters = registry.snapshot()["counters"]
    assert counters["kernels.lattice.scratch"] == 1
