"""Tests for the experiment harness (short runs) and report rendering."""

import numpy as np
import pytest

from repro.analysis.calibration import ANCHORS, format_scorecard
from repro.analysis.experiments import (
    EXPERIMENTS,
    default_churn_session,
    default_failover_session,
    default_netdrop_profile,
    failover_recovery,
    fig15_energy,
    fig3_motivation,
    fig5_interaction_latency,
    fig6_foveal_sizing,
    fig14_balancing,
    netdrop_adaptation,
    overhead_analysis,
    session_churn,
    table1_static_characterization,
    table4_eccentricity,
)
from repro.analysis.report import format_table
from repro.errors import ConfigurationError
from repro.network.conditions import WIFI
from repro.sim.runner import BatchEngine
from repro.workloads.tethered import TABLE1_ORDER


class TestCalibrationAnchors:
    def test_anchor_bands_contain_paper_values(self):
        for anchor in ANCHORS.values():
            assert anchor.low <= anchor.paper_value <= anchor.high, anchor.name

    def test_within_band(self):
        assert ANCHORS["qvr_avg_speedup"].check(3.4)
        assert not ANCHORS["qvr_avg_speedup"].check(0.5)

    def test_scorecard_rows_and_band_count(self):
        card = format_scorecard({"uca_tile_cycles": 532.0, "qvr_avg_speedup": 1.7})
        lines = card.splitlines()
        # ANCHORS order, not argument order; unmeasured anchors are omitted.
        assert [line.split()[0] for line in lines[3:5]] == [
            "qvr_avg_speedup", "uca_tile_cycles",
        ]
        assert "-50.0%" in lines[3] and lines[3].rstrip().endswith("NO")
        assert "+0.0%" in lines[4] and lines[4].rstrip().endswith("yes")
        assert lines[-1] == "anchors: 1 of 2 in band"


class TestFig3:
    def test_rows_cover_table1_apps(self):
        local_rows, remote_rows = fig3_motivation()
        assert [r.app for r in local_rows] == list(TABLE1_ORDER)
        assert [r.app for r in remote_rows] == list(TABLE1_ORDER)

    def test_local_has_no_network_terms(self):
        local_rows, _ = fig3_motivation()
        assert all(r.transmit_ms == 0 and r.sending_ms == 0 for r in local_rows)

    def test_remote_transmit_share_band(self):
        _, remote_rows = fig3_motivation()
        share = np.mean([r.transmit_share for r in remote_rows])
        assert ANCHORS["remote_transmit_share"].check(float(share))


class TestTable1:
    def test_back_sizes_match_paper_band(self):
        rows = table1_static_characterization(n_frames=150)
        for row in rows:
            assert 400 < row.back_size_kb < 700, row.app

    def test_remote_times_match_paper_band(self):
        rows = table1_static_characterization(n_frames=150)
        for row in rows:
            assert 25 < row.remote_ms < 45, row.app

    def test_local_stats_ordered(self):
        for row in table1_static_characterization(n_frames=150):
            assert row.min_local_ms <= row.avg_local_ms <= row.max_local_ms


class TestFig5:
    def test_nature_span(self):
        points = fig5_interaction_latency("Nature", (0.0, 1.0))
        assert points[0][1] < 13
        assert points[1][1] > 24

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            fig5_interaction_latency("DOOM Eternal")


class TestFig6:
    def test_budget_holds_at_fifteen_degrees(self):
        rows = fig6_foveal_sizing(e1_values_deg=(5, 10, 15))
        assert all(r.local_latency_ms <= 11.2 for r in rows)

    def test_three_scenes_present(self):
        rows = fig6_foveal_sizing(e1_values_deg=(10,))
        assert len({r.scene for r in rows}) == 3


class TestFig14:
    def test_short_run_converges(self):
        series = fig14_balancing(n_frames=120)
        for s in series:
            late = float(np.nanmean(s.latency_ratios[-30:]))
            assert 0.5 < late < 2.0, s.app


class TestTable4:
    def test_single_cell_sweep(self):
        cells = table4_eccentricity(
            n_frames=60, frequencies=(500.0,), networks=(WIFI,), apps=("Doom3-L",)
        )
        assert len(cells) == 1
        cell = cells[0]
        assert cell.app == "Doom3-L"
        assert 5.0 <= cell.mean_e1_deg <= 90.0


class TestOverheads:
    def test_reports_present(self):
        reports = overhead_analysis()
        assert set(reports) == {"LIWC", "UCA"}


class TestBatchEngineRouting:
    def test_sim_experiments_registry_is_complete(self):
        assert set(EXPERIMENTS) == {
            "fig3", "table1", "fig5", "fig6", "fig12", "fig13", "fig14",
            "table4", "fig15", "overheads", "netdrop", "admission", "churn",
            "failover",
        }
        assert {name: e.frames for name, e in EXPERIMENTS.items()} == {
            "fig3": None, "table1": 600, "fig5": None, "fig6": None,
            "fig12": 240, "fig13": 240, "fig14": 240, "table4": 200,
            "fig15": 200, "overheads": None, "netdrop": 240, "admission": 240,
            "churn": 240, "failover": 240,
        }

    def test_table4_and_fig15_share_their_qvr_grid(self):
        """Fig. 15's Q-VR cells are spec-identical to Table 4's runs."""
        engine = BatchEngine()
        kwargs = dict(
            n_frames=40, frequencies=(500.0,), networks=(WIFI,), apps=("Doom3-L",)
        )
        table4_eccentricity(engine=engine, **kwargs)
        executed_after_table4 = engine.stats.executed
        fig15_energy(engine=engine, **kwargs)
        # Only the local baseline is new; the qvr cell comes from the memo.
        assert engine.stats.executed == executed_after_table4 + 1
        assert engine.stats.cache_hits == 1

    def test_entry_call_overrides_frames_and_skips_unused_options(self):
        engine = BatchEngine()
        cells = EXPERIMENTS["table4"](40, seed=0, engine=engine, apps=("Doom3-L",))
        assert len(cells) == 9 and engine.stats.executed == 9
        # Closed-form entries take no frame count, seed or engine.
        assert EXPERIMENTS["overheads"](40, seed=3, engine=engine) == overhead_analysis()
        assert not EXPERIMENTS["overheads"].accepts("engine")

    def test_explicit_engine_matches_default_path(self):
        engine = BatchEngine()
        via_engine = fig14_balancing(n_frames=60, engine=engine)
        default = fig14_balancing(n_frames=60)
        assert via_engine == default


class TestNetDrop:
    def test_rows_cover_apps_and_windows(self):
        rows = netdrop_adaptation(n_frames=160, apps=("GRID",))
        assert [row.window for row in rows] == ["before", "drop", "after"]
        assert all(row.app == "GRID" for row in rows)
        assert sum(row.frames for row in rows) == 160

    def test_paper_predicted_adaptation(self):
        """Eccentricity grows and the remote share shrinks in the window."""
        rows = {row.window: row for row in netdrop_adaptation(n_frames=160, apps=("GRID",))}
        assert rows["drop"].mean_e1_deg > rows["before"].mean_e1_deg
        assert rows["drop"].mean_kb_per_frame < rows["before"].mean_kb_per_frame
        assert rows["drop"].measured_fps < rows["before"].measured_fps
        assert rows["after"].mean_e1_deg < rows["drop"].mean_e1_deg

    def test_default_profile_scales_with_frames(self):
        short = default_netdrop_profile(100)
        long = default_netdrop_profile(300)
        assert short.boundaries_ms[0] < long.boundaries_ms[0]
        assert short.segments[0][1] == WIFI

    def test_custom_profile_windows(self):
        from repro.network.profile import PiecewiseProfile

        profile = PiecewiseProfile.bandwidth_drop(WIFI, 300.0, 400.0, 0.2)
        rows = netdrop_adaptation(n_frames=120, apps=("Doom3-L",), profile=profile)
        assert len(rows) == 3

    def test_deterministic_and_cacheable(self):
        engine = BatchEngine()
        first = netdrop_adaptation(n_frames=120, apps=("GRID",), engine=engine)
        second = netdrop_adaptation(n_frames=120, apps=("GRID",), engine=engine)
        assert first == second
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 1


class TestChurn:
    """The churn experiment's acceptance prediction (re-admission)."""

    def test_queued_joiner_starts_late_and_renders(self):
        rows = session_churn(n_frames=120)
        joiners = [r for r in rows if r.role == "joiner"]
        assert len(joiners) == 2  # one per policy
        for row in joiners:
            assert row.start_ms > row.joined_ms > 0
            assert row.frames > 0
            assert np.isfinite(row.mean_fps)

    def test_deadline_re_admission_protects_the_incumbent_tail(self):
        """Deadline keeps the surviving incumbent's drop-window p99 FPS
        above fair-share while the promoted client contends mid-drop."""
        rows = session_churn(n_frames=120)
        p99 = {
            r.policy: r.window_p99_fps
            for r in rows
            if r.role == "incumbent"
        }
        assert p99["deadline"] > p99["fair-share"]

    def test_leaver_stops_early(self):
        rows = session_churn(n_frames=120, policies=("fair-share",))
        leaver = next(r for r in rows if r.role == "leaver")
        incumbent = next(r for r in rows if r.role == "incumbent")
        assert leaver.frames < incumbent.frames

    def test_sessions_share_one_batch(self):
        engine = BatchEngine()
        first = session_churn(n_frames=120, engine=engine)
        second = session_churn(n_frames=120, engine=engine)
        # repr-compare: the leaver's window p99 is NaN (it departs before
        # the churn window opens), and NaN != NaN under field equality.
        assert repr(first) == repr(second)
        assert engine.stats.cache_hits == engine.stats.executed == 6

    def test_canonical_session_queues_the_joiner(self):
        session = default_churn_session(120)
        timeline = session.timeline(n_frames=120)
        assert timeline.epochs[1].queued == (2,)
        assert timeline.client(2).start_ms > timeline.client(2).joined_ms

    def test_rejects_non_step_traces(self):
        from repro.network.profile import TraceProfile

        bad = TraceProfile(
            base=WIFI,
            times_ms=(0.0, 100.0),
            throughput_mbps=(100.0, 50.0),
        )
        with pytest.raises(ValueError):
            session_churn(n_frames=60, trace=bad)


class TestFailover:
    """The failover experiment's acceptance prediction (migration)."""

    def test_migration_beats_naive_requeue_on_the_displaced_tail(self):
        rows = failover_recovery(n_frames=120)
        displaced = {
            r.mode: r for r in rows if r.role == "displaced"
        }
        assert set(displaced) == {"least-loaded", "requeue"}
        assert displaced["least-loaded"].migrations == 1
        assert displaced["requeue"].migrations == 0
        assert displaced["requeue"].servers.endswith("~")
        assert (
            displaced["least-loaded"].window_p99_fps
            > displaced["requeue"].window_p99_fps
        )

    def test_incumbent_pays_a_bounded_contention_tax(self):
        """Hosting the refugee costs the incumbent some throughput, but it
        keeps rendering (migration does not starve the survivor)."""
        rows = failover_recovery(n_frames=120)
        incumbents = {r.mode: r for r in rows if r.role == "incumbent"}
        assert incumbents["least-loaded"].mean_fps > 0
        assert (
            incumbents["least-loaded"].window_p99_fps
            <= incumbents["requeue"].window_p99_fps
        )

    def test_rows_cover_every_mode_and_client(self):
        rows = failover_recovery(n_frames=120)
        assert len(rows) == 4
        assert {(r.mode, r.client) for r in rows} == {
            ("least-loaded", 0), ("least-loaded", 1),
            ("requeue", 0), ("requeue", 1),
        }

    def test_sessions_share_one_batch(self):
        engine = BatchEngine()
        first = failover_recovery(n_frames=120, engine=engine)
        second = failover_recovery(n_frames=120, engine=engine)
        assert first == second
        assert engine.stats.cache_hits == engine.stats.executed == 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            default_failover_session(60, mode="coinflip")

    def test_canonical_session_fails_the_heavy_server(self):
        timeline = default_failover_session(120).timeline(n_frames=120)
        assert timeline.epochs[0].server_of(1) == "b"
        assert timeline.epochs[1].server_of(1) == "a"


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["x", "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_format_table_bad_row(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [[1, 2]])

    def test_format_table_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text
