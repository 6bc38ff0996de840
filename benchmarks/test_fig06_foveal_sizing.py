"""Fig. 6: foveal-layer render latency and frame size vs eccentricity.

Regenerates the runtime-aware adaptive foveal sizing study on the three
synthetic Foveated3D-style scene configurations.  The paper's headline
finding is asserted: at eccentricities up to 15 degrees, *every* scene
complexity fits the 11 ms / 90 Hz budget on the Table 2 mobile GPU, so the
SoC can render far more than the classic 5-degree fovea.
"""

from repro import constants
from repro.analysis.experiments import EXPERIMENTS


def test_fig6(paper_benchmark, paper_results):
    rows = paper_benchmark(paper_results, "fig6")

    print()
    print(EXPERIMENTS["fig6"].table(rows))

    # All scene complexities fit the budget at e1 <= 15 degrees.
    for row in rows:
        if row.e1_deg <= 15.0:
            assert row.local_latency_ms <= constants.FRAME_BUDGET_MS, row
    # The heaviest configuration exceeds the budget at large eccentricity
    # (the knob matters) ...
    heavy = [r for r in rows if "8k" in r.scene]
    assert max(r.local_latency_ms for r in heavy) > constants.FRAME_BUDGET_MS
    # ... and latency grows monotonically with e1 within each scene.
    by_scene: dict[str, list] = {}
    for row in rows:
        by_scene.setdefault(row.scene, []).append(row)
    for scene_rows in by_scene.values():
        latencies = [r.local_latency_ms for r in sorted(scene_rows, key=lambda r: r.e1_deg)]
        assert latencies == sorted(latencies)
        sizes = [r.relative_frame_size for r in sorted(scene_rows, key=lambda r: r.e1_deg)]
        assert all(0.0 < s <= 1.0 for s in sizes)
