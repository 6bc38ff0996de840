"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parse_client, _parse_events, build_parser, main
from repro.errors import ConfigurationError


class TestParser:
    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.app == "Doom3-H"
        assert args.systems == ["local", "static", "qvr"]

    def test_compare_custom(self):
        args = build_parser().parse_args(
            ["compare", "--app", "GRID", "--systems", "local", "qvr",
             "--network", "4G LTE", "--freq", "300"]
        )
        assert args.app == "GRID"
        assert args.freq == 300.0

    def test_invalid_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--systems", "warpdrive"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command", ["fig12", "table4", "fig15", "table1", "overheads"]
    )
    def test_figures_run_only_through_batch(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        args = build_parser().parse_args(["batch", "--experiments", command])
        assert args.experiments == [command]


class TestExecution:
    def test_overheads_command(self, capsys):
        assert main(["batch", "--experiments", "overheads"]) == 0
        out = capsys.readouterr().out
        assert "LIWC" in out and "UCA" in out
        assert "uca_tile_cycles" in out
        assert out.rstrip().endswith("anchors: 5 of 5 in band")

    def test_compare_command(self, capsys):
        code = main(
            ["compare", "--app", "Doom3-L", "--systems", "local", "qvr",
             "--frames", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qvr" in out and "latency" in out

    def test_table1_command(self, capsys):
        assert main(["batch", "--experiments", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table 1\n")
        assert "Foveated3D" in out
        assert "table1      600" in out  # Table 1's own frame count
        assert "Paper anchors" not in out  # Table 1 measures no anchor


class TestBatchCommand:
    def test_batch_defaults_to_all_sim_experiments(self):
        args = build_parser().parse_args(["batch"])
        assert args.experiments == [
            "admission", "churn", "failover", "fig12", "fig13", "fig14",
            "fig15", "fig3", "fig5", "fig6", "netdrop", "overheads",
            "table1", "table4",
        ]
        assert args.frames is None  # each experiment runs at its own default
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--experiments", "fig99"])

    def test_batch_command_runs_and_reports_stats(self, capsys):
        code = main(["batch", "--experiments", "fig13", "--frames", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Fig. 13 — transmitted data")
        assert "fig13       40" in out
        assert "cache hits" in out
        # The scorecard lists exactly the anchors Fig. 13 measures.
        card = out[out.index("Paper anchors"):]
        for anchor in (
            "qvr_data_reduction", "doom3l_data_reduction", "qvr_resolution_reduction",
        ):
            assert anchor in card
        assert card.rstrip().splitlines()[-1].endswith(" of 3 in band")

    def test_batch_command_with_cache_dir(self, capsys, tmp_path):
        argv = [
            "batch", "--experiments", "fig13", "--frames", "40",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "28 executed, 0 cache hits" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 28 cache hits" in second

    def test_stream_without_shards_spills_and_resumes(self, capsys, tmp_path):
        stream = tmp_path / "stream"
        argv = [
            "batch", "--experiments", "fig13", "--frames", "40",
            "--stream", str(stream),
        ]
        assert main(argv) == 0
        assert "28 executed" in capsys.readouterr().out
        [plan_dir] = stream.iterdir()
        assert sorted(path.name for path in plan_dir.iterdir()) == [
            f"shard-{index:04d}.results" for index in range(4)
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards: 4 planned (28 specs), 4 resumed complete" in out

    def test_stream_resumes_a_run_of_several_batches(self, capsys, tmp_path):
        stream = tmp_path / "stream"
        argv = [
            "batch", "--experiments", "fig12", "fig13", "--frames", "30",
            "--stream", str(stream),
        ]
        assert main(argv) == 0
        # The two lines sum over both batches: 4 shards over fig12's 42
        # misses and 4 over fig13's 7 (fig13's other 21 specs are fig12's).
        first = capsys.readouterr().out
        assert "70 requested, 70 unique, 49 executed, 21 cache hits, 0 resumed," in first
        assert "shards: 8 planned (49 specs), 0 resumed complete" in first
        # Each batch streams to its own plan's subdirectory.
        assert len(list(stream.iterdir())) == 2
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "70 requested, 70 unique, 0 executed, 21 cache hits, 49 resumed," in out
        assert "shards: 8 planned (49 specs), 8 resumed complete" in out

    def test_serial_batch_prints_no_shard_line(self, capsys):
        assert main(["batch", "--experiments", "fig13", "--frames", "40"]) == 0
        assert "shards:" not in capsys.readouterr().out

    def test_clear_cache_evicts_before_running(self, capsys, tmp_path):
        argv = [
            "batch", "--experiments", "fig13", "--frames", "40",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--clear-cache"]) == 0
        out = capsys.readouterr().out
        assert "cleared 28 cached result(s)" in out
        assert "28 executed, 0 cache hits" in out

    def test_clear_cache_requires_cache_dir(self):
        with pytest.raises(ConfigurationError):
            main(["batch", "--experiments", "fig13", "--clear-cache"])

    def test_profile_reaches_platform_experiments(self, capsys):
        code = main(
            ["batch", "--experiments", "fig14", "netdrop", "table4",
             "--frames", "40", "--profile", "wifi-drop"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile=wifi-drop" in out
        assert "skipped (no --profile support)" in out  # table4 keeps its grid
        assert "netdrop" in out
        assert "Fig. 14 — balancing summary" in out
        assert "Table 4" not in out
        assert "Paper anchors" not in out  # off the paper's platform

    def test_unknown_profile_rejected(self):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            main(["batch", "--experiments", "fig14", "--profile", "warp-link"])


class TestScenariosCommand:
    def test_parse_client_forms(self):
        plain = _parse_client("GRID")
        assert plain.app == "GRID" and plain.profile is None and plain.platform is None
        with_profile = _parse_client("Doom3-H:wifi-drop")
        assert with_profile.profile is not None
        full = _parse_client("HL2-L:4g:300")
        assert full.platform.gpu.frequency_mhz == 300.0

    def test_parse_client_rejects_bad_tokens(self):
        with pytest.raises(ConfigurationError):
            _parse_client("NotAnApp")
        with pytest.raises(ConfigurationError):
            _parse_client("GRID:wifi:abc")
        with pytest.raises(ConfigurationError):
            _parse_client("GRID:wifi:300:extra")

    def test_scenarios_requires_clients(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios"])

    def test_scenarios_command_runs(self, capsys):
        code = main(
            ["scenarios", "--clients", "Doom3-L:wifi", "GRID:4g:400",
             "--frames", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "session of 2 clients, 1 epoch" in out
        assert "Doom3-L" in out and "GRID" in out
        assert "aggregate:" in out


class TestSessionEventsCommand:
    def _events(self, tmp_path, payload):
        import json

        path = tmp_path / "events.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_events_session_runs_and_reports_epochs(self, capsys, tmp_path):
        events = self._events(
            tmp_path,
            {
                "events": [
                    {"t_ms": 150.0, "join": "Doom3-L"},
                    {"t_ms": 300.0, "leave": 1},
                ]
            },
        )
        code = main(
            ["scenarios", "--clients", "GRID", "Doom3-L",
             "--events", events, "--capacity", "2", "--overflow", "queue",
             "--frames", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epochs" in out
        assert "late-start" in out
        assert "aggregate:" in out

    def test_events_accept_a_bare_list_and_switch(self, capsys, tmp_path):
        events = self._events(
            tmp_path, [{"t_ms": 200.0, "switch": 0, "profile": "4g"}]
        )
        assert main(
            ["scenarios", "--clients", "GRID", "--events", events,
             "--frames", "40"]
        ) == 0
        assert "epochs" in capsys.readouterr().out

    def test_malformed_events_rejected(self, tmp_path):
        for payload in (
            {"events": [{"t_ms": 100.0}]},                      # no kind
            {"events": [{"t_ms": 100.0, "join": "GRID", "leave": 0}]},
            {"events": [{"join": "GRID"}]},                     # no t_ms
            {"events": [{"t_ms": 100.0, "switch": 0}]},         # no profile
            {"events": [{"t_ms": "soon", "join": "GRID"}]},     # bad t_ms
            {"events": [{"t_ms": 100.0, "leave": "one"}]},      # bad index
            {"events": [{"t_ms": 100.0, "switch": None,
                         "profile": "4g"}]},                    # bad index
            "not-a-list",
        ):
            events = self._events(tmp_path, payload)
            with pytest.raises(ConfigurationError):
                main(
                    ["scenarios", "--clients", "GRID", "Doom3-L",
                     "--events", events, "--frames", "40"]
                )

    def test_event_trace_csv_reads_against_the_events_file(
        self, tmp_path, monkeypatch
    ):
        """A relative trace CSV in a join or switch entry is read beside
        the events file, whatever the working directory."""
        from repro.network.profile import TraceProfile

        (tmp_path / "link.csv").write_text("0,80\n100,20\n")
        events = self._events(
            tmp_path,
            [
                {"t_ms": 100.0, "join": "GRID:link.csv"},
                {"t_ms": 200.0, "switch": 0, "profile": "link.csv"},
            ],
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        join, switch = _parse_events(events)
        want = TraceProfile.from_csv(str(tmp_path / "link.csv"), label="link.csv")
        assert join.spec.profile == want
        assert switch.profile == want

    def test_missing_event_trace_csv_names_the_path(self, tmp_path):
        for entry in (
            {"t_ms": 100.0, "join": "GRID:gone.csv"},
            {"t_ms": 100.0, "switch": 0, "profile": "gone.csv"},
        ):
            events = self._events(tmp_path, [entry])
            with pytest.raises(ConfigurationError, match="gone.csv"):
                _parse_events(events)

    def test_unreadable_or_invalid_json_rejected(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"events": [,]}')
        for path in (str(broken), str(tmp_path / "missing.json")):
            with pytest.raises(ConfigurationError):
                main(
                    ["scenarios", "--clients", "GRID",
                     "--events", path, "--frames", "40"]
                )

    def test_capacity_and_overflow_reach_the_static_scenario(self, capsys):
        """Without --events the server options still apply (queue mode)."""
        code = main(
            ["scenarios", "--clients", "GRID", "Doom3-L", "Doom3-L",
             "--capacity", "2", "--overflow", "queue", "--frames", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "queue" in out


class TestFleetCommand:
    def _write(self, tmp_path, name, payload):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _fleet(self, tmp_path, **overrides):
        payload = {
            "servers": {"a": 2.0, "b": {"capacity": 1.0}},
            "placement": "least-loaded",
        }
        payload.update(overrides)
        return self._write(tmp_path, "fleet.json", payload)

    def test_fleet_failover_session_runs(self, capsys, tmp_path):
        fleet = self._fleet(tmp_path)
        events = self._write(
            tmp_path, "events.json",
            {"events": [{"t_ms": 300.0, "fail": "b"}]},
        )
        code = main(
            ["scenarios", "--clients", "Doom3-L", "GRID",
             "--fleet", fleet, "--events", events, "--frames", "90"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-server occupancy" in out
        assert "fleet summary" in out
        assert "b->a" in out
        assert "least-loaded placement" in out

    def test_fleet_without_events_runs(self, capsys, tmp_path):
        fleet = self._fleet(tmp_path)
        assert main(
            ["scenarios", "--clients", "GRID", "Doom3-L",
             "--fleet", fleet, "--frames", "40"]
        ) == 0
        assert "fleet summary" in capsys.readouterr().out

    def test_capacity_events_in_files_parse_up_down_drain(self, capsys, tmp_path):
        fleet = self._fleet(tmp_path, initial=["a"])
        events = self._write(
            tmp_path, "events.json",
            {"events": [
                {"t_ms": 200.0, "up": "b"},
                {"t_ms": 400.0, "down": "b", "drain": False},
            ]},
        )
        assert main(
            ["scenarios", "--clients", "GRID", "Doom3-L",
             "--fleet", fleet, "--events", events, "--frames", "90"]
        ) == 0
        assert "per-server occupancy" in capsys.readouterr().out

    def test_fleet_conflicts_with_capacity_and_overflow(self, tmp_path):
        fleet = self._fleet(tmp_path)
        with pytest.raises(ConfigurationError):
            main(
                ["scenarios", "--clients", "GRID", "--fleet", fleet,
                 "--capacity", "2", "--frames", "40"]
            )

    def test_capacity_events_without_fleet_rejected(self, tmp_path):
        events = self._write(
            tmp_path, "events.json",
            {"events": [{"t_ms": 200.0, "fail": "b"}]},
        )
        with pytest.raises(ConfigurationError):
            main(
                ["scenarios", "--clients", "GRID",
                 "--events", events, "--frames", "40"]
            )

    def test_malformed_fleet_rejected(self, tmp_path):
        for payload in (
            {"servers": {}},                               # empty
            {"servers": {"a": "big"}},                     # bad capacity
            {"servers": {"a": 1.0}, "warp": True},         # unknown key
            {"placement": "least-loaded"},                 # no servers
            "not-an-object",
        ):
            fleet = self._write(tmp_path, "fleet.json", payload)
            with pytest.raises(ConfigurationError):
                main(
                    ["scenarios", "--clients", "GRID",
                     "--fleet", fleet, "--frames", "40"]
                )
        with pytest.raises(ConfigurationError):
            main(
                ["scenarios", "--clients", "GRID",
                 "--fleet", str(tmp_path / "missing.json"), "--frames", "40"]
            )

    def test_motion_events_flag_runs(self, capsys):
        code = main(
            ["scenarios", "--clients", "GRID", "Doom3-L",
             "--motion-events", "4g", "--frames", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epochs" in out
        assert "aggregate:" in out

    def test_motion_events_compose_with_a_fleet(self, capsys, tmp_path):
        fleet = self._fleet(tmp_path)
        assert main(
            ["scenarios", "--clients", "GRID", "Doom3-L",
             "--motion-events", "4g", "--frames", "200", "--fleet", fleet]
        ) == 0
        assert "fleet summary" in capsys.readouterr().out


REPO = Path(__file__).resolve().parents[1]


def _client_rows(out: str) -> list[dict[str, str]]:
    """The client table of a session report, one dict per row.

    Columns are cut at the dash rule's spans, so cells holding spaces
    (``4G LTE``, ``on-time, left``) stay whole.
    """
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("client  "))
    spans = [m.start() for m in re.finditer(r"-+", lines[start + 1])]
    bounds = list(zip(spans, spans[1:] + [None]))
    headers = [lines[start][a:b].strip() for a, b in bounds]
    rows = []
    for line in lines[start + 2:]:
        if not line[:1].isdigit():
            break
        rows.append(dict(zip(headers, (line[a:b].strip() for a, b in bounds))))
    return rows


class TestSessionReport:
    """``repro scenarios`` prints every session through one report."""

    DEGRADE = ["scenarios", "--clients", "GRID", "Doom3-L", "--capacity", "0.5",
               "--overflow", "degrade", "--frames", "40"]

    def _run(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_degraded_clients_read_degrade_with_or_without_events(self, capsys):
        plain = _client_rows(self._run(capsys, self.DEGRADE))
        motion = _client_rows(
            self._run(capsys, self.DEGRADE + ["--motion-events", "4g"])
        )
        assert len(motion) == 2
        for row in motion:
            assert row["admission"] == "degrade"
            assert "admit" not in row["fate"]
        cells = ("admission", "e1 (deg)", "FPS", "latency (ms)")
        assert [[r[c] for c in cells] for r in plain] == [
            [r[c] for c in cells] for r in motion
        ]

    def test_fates_name_the_unserviced(self, capsys):
        rows = _client_rows(self._run(
            capsys,
            ["scenarios", "--clients", "GRID", "Doom3-L", "Doom3-L",
             "--capacity", "2", "--overflow", "reject", "--frames", "40"],
        ))
        assert [(r["admission"], r["fate"]) for r in rows] == [
            ("admit", "on-time"), ("admit", "on-time"), ("reject", "rejected")
        ]
        assert rows[2]["FPS"] == "-"

    def test_report_does_not_depend_on_the_engine(self, capsys):
        argv = ["scenarios", "--clients", "GRID", "Doom3-L",
                "--events", str(REPO / "examples" / "session_events.json"),
                "--capacity", "2", "--overflow", "queue", "--frames", "120"]
        vector = self._run(capsys, argv + ["--engine", "vector"])
        scalar = self._run(capsys, argv + ["--engine", "scalar"])
        assert vector.splitlines()[0].startswith("qvr, vector engine")
        assert scalar.splitlines()[0].startswith("qvr, scalar engine")
        assert vector.splitlines()[1:] == scalar.splitlines()[1:]
        fates = [r["fate"] for r in _client_rows(vector)]
        assert fates == ["on-time", "on-time, left", "late-start"]


class TestExitStatus:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "--clients", "NotAnApp"],
            ["scenarios", "--clients", "GRID", "Doom3-L", "--events",
             str(REPO / "examples" / "session_events.json"), "--frames", "60"],
            ["obs", "report", "no-such-trace-dir"],
        ],
        ids=["unknown-app", "event-past-session", "missing-trace-dir"],
    )
    def test_configuration_error_exits_2_without_traceback(self, argv):
        self._assert_exits_2_with_one_line(argv)

    @pytest.mark.parametrize(
        "profile, csv_text, message",
        [
            ("bad.csv", "5,80\n10,80\n", "trace must start at 0 ms"),
            ("bad.csv", "time_ms,throughput_mbps\n",
             "trace profile needs at least one sample"),
            ("nosuchprofile", None, "unknown network profile"),
        ],
        ids=["trace-late-start", "trace-no-sample", "unknown-profile"],
    )
    def test_network_profile_error_exits_2_without_traceback(
        self, tmp_path, profile, csv_text, message
    ):
        if csv_text is not None:
            (tmp_path / profile).write_text(csv_text)
        lines = self._assert_exits_2_with_one_line(
            ["scenarios", "--clients", f"GRID:{profile}", "--frames", "20"],
            cwd=tmp_path,
        )
        assert message in lines[0]

    @staticmethod
    def _assert_exits_2_with_one_line(argv, cwd=REPO):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")
        assert "Traceback" not in proc.stderr
        return lines


class TestPopulationCommand:
    def _scenario(self, tmp_path, **overrides):
        import json

        payload = {
            "name": "cli-town",
            "horizon_ms": 120_000,
            "arrivals": {"process": "poisson", "rate_per_min": 3.0},
            "party_sizes": {"1": 0.5, "2": 0.5},
            "duration_frames": {"min": 8, "max": 10},
            "clients": [{"app": "GRID"}],
            "profiles": {"default": 3.0, "lte": 1.0},
            "churn": {"late_join": 0.2, "leave": 0.2, "switch": 0.1},
            "fleet": {"servers": {"east": 2, "west": 2}},
            "policies": ["fair-share", "deadline"],
            "slo": {"p99_fps_floor": 45.0},
        }
        payload.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["population", "city.json"])
        assert args.scenario == "city.json"
        assert args.seed == 0
        assert args.policy is None
        assert args.max_sessions is None
        assert args.stream_dir is None

    def test_bare_stream_flag_parses_to_empty(self):
        args = build_parser().parse_args(["population", "city.json", "--stream"])
        assert args.stream_dir == ""
        args = build_parser().parse_args(
            ["population", "city.json", "--stream", "spill-dir"]
        )
        assert args.stream_dir == "spill-dir"

    def test_population_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["population"])

    def test_population_command_runs(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path)
        assert main(["population", scenario, "--seed", "7"]) == 0
        captured = capsys.readouterr()
        assert "repro population — cli-town" in captured.out
        assert "attainment" in captured.out
        assert "fair-share" in captured.out and "deadline" in captured.out
        assert "client-sessions" in captured.err  # progress goes to stderr

    def test_population_stdout_is_deterministic(self, capsys, tmp_path):
        scenario = self._scenario(tmp_path)
        argv = ["population", scenario, "--seed", "7", "--max-sessions", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_population_report_json(self, capsys, tmp_path):
        import json

        scenario = self._scenario(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(
            ["population", scenario, "--seed", "7", "--max-sessions", "3",
             "--report", str(report_path), "--policy", "deadline"]
        ) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["scenario"] == "cli-town"
        assert list(report["policies"]) == ["deadline"]
        assert report["sessions"] == 3

    def test_population_shard_line_covers_every_policy(self, capsys, tmp_path):
        import json
        import re

        scenario = self._scenario(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(
            ["population", scenario, "--seed", "7", "--max-sessions", "6",
             "--shards", "4", "--stream", str(tmp_path / "stream"),
             "--report", str(report_path)]
        ) == 0
        err = capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert list(report["policies"]) == ["fair-share", "deadline"]
        match = re.search(r"^shards: \d+ planned \((\d+) specs\)", err, re.MULTILINE)
        assert match is not None, err
        assert int(match.group(1)) == report["client_sessions"]

    def test_population_rejects_bad_scenario(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigurationError):
            main(["population", str(path)])

    def test_examples_population_json_loads(self, monkeypatch):
        from pathlib import Path

        from repro.sim.demand import DemandScenario

        # the shipped scenario references data/ traces by repo-relative path
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        scenario = DemandScenario.from_json("examples/population.json")
        assert scenario.name == "city-day"
        assert scenario.policies == ("fair-share", "deadline")
