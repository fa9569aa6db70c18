"""Command-line interface: config parsing, run/sweep CSV output, and
bound tables, all exercised through ``main(argv)``."""
import csv
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridswarm import bounds as B
from gridswarm import cli, line_region, run, square_region
from gridswarm.agents import S1_NAMES, ParamError, SimParams
from gridswarm.cli import (
    CSV_COLUMNS,
    EVENT_HEADER,
    ConfigError,
    main,
    parse_config,
)
from gridswarm.engine import Event


def old_format(ev) -> str:
    """The event-log line as the plain f-string gives it."""
    src = "-" if ev.src < 0 else str(ev.src)
    dst = "-" if ev.dst < 0 else str(ev.dst)
    return (
        f"{ev.t},{ev.agent},{ev.action},{src},{dst},"
        f"{S1_NAMES[ev.s1]},{ev.s2},{ev.energy:g}"
    )


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CORRIDOR_CFG = """\
# adversarial corridor benchmark
region = line:10
algorithm = sllg-ea
approach = 1
scheduler = adversarial
dt = 2
e0 = 50
seed = 0
"""


class TestParseConfig:
    def test_types_and_comments(self):
        cfg = parse_config("dt = 4  # period\n\ne0 = 12.5\nseed=3\n")
        assert cfg == {"dt": 4, "e0": 12.5, "seed": 3}

    @pytest.mark.parametrize(
        "text,match",
        [
            ("dt 4\n", "line 1: expected 'key = value'"),
            ("bogus = 1\n", "unknown configuration key 'bogus'"),
            ("dt = 2\ndt = 4\n", "line 2: duplicate"),
            ("dt = fast\n", "bad value for 'dt'"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)


CONFIG_VALUES = {
    str: st.text(alphabet="abcxyz0123456789:./_- ", max_size=12).map(str.strip),
    int: st.integers(-(2**64), 2**64),
    float: st.floats(allow_nan=False),
}


@st.composite
def config_files(draw):
    """A ``key = value`` file of distinct known keys and the values it
    holds, with comments, blank lines and varied spacing."""
    keys = draw(st.lists(st.sampled_from(sorted(cli._CONFIG_KEYS)), unique=True))
    values, lines = {}, []
    for key in keys:
        value = values[key] = draw(CONFIG_VALUES[cli._CONFIG_KEYS[key]])
        sp = draw(st.sampled_from(["", " ", "  ", "\t"]))
        comment = draw(st.sampled_from(["", "  # note", "#"]))
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{sp}{key}{sp}={sp}{text}{comment}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a = comment", "   "])))
    return "\n".join(lines), values


class TestParseConfigProperties:
    @settings(max_examples=100, deadline=None)
    @given(case=config_files())
    def test_round_trip(self, case):
        text, values = case
        assert parse_config(text) == values

    @settings(max_examples=100, deadline=None)
    @given(case=config_files(), data=st.data())
    def test_a_malformed_line_raises_config_error_naming_it(self, case, data):
        text, values = case
        lines = text.split("\n") if text else []
        if values and data.draw(st.booleans()):  # a duplicate key, last
            at = len(lines)
            bad = f"{data.draw(st.sampled_from(sorted(values)))} = 1"
        else:
            at = data.draw(st.integers(0, len(lines)))
            bad = data.draw(st.one_of(
                st.text(alphabet="abc xyz", min_size=1).filter(str.strip),  # no '='
                st.sampled_from(["bogus = 1", "E0 = 3", "d t = 2"]),  # unknown keys
                st.sampled_from(["dt = 2.5", "seed = x", "e0 = fast", "m = 1e3"]),  # bad values
            ))
        lines.insert(at, bad)
        with pytest.raises(ConfigError, match=f"^line {at + 1}: "):
            parse_config("\n".join(lines))

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=60))
    def test_any_text_parses_or_raises_config_error(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        assert set(cfg) <= set(cli._CONFIG_KEYS)


class TestRunCommand:
    def test_frozen_corridor_row(self, tmp_path):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(out.read_text().splitlines()))
        assert list(row) == CSV_COLUMNS
        assert row["region"] == "line:10"
        assert row["n"] == "10"
        assert row["terminated"] == "closed"
        assert row["T_C"] == "37"
        assert row["N"] == "19"
        assert row["E_total"] == "146"
        assert row["max_Ei"] == "18"
        assert row["A_C"] == "10"

    def test_event_log_written(self, tmp_path):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        log = tmp_path / "events.csv"
        main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
              "--log-events", str(log)])
        lines = log.read_text().splitlines()
        assert lines[0] == "t,agent,action,from,to,s1,s2,E"
        assert lines[1].split(",")[2] == "enter"
        assert len(lines) > 20

    def test_streamed_event_log_matches_in_memory_log(self, tmp_path):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        log = tmp_path / "events.csv"
        main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
              "--log-events", str(log)])
        params = SimParams(algorithm="sllg-ea", approach=1, scheduler="adversarial",
                           dt=2, e0=50.0, seed=0)
        res = run(line_region(10), params, log_events=True)
        lines = [EVENT_HEADER] + [e.format() for e in res.events]
        assert log.read_bytes() == "".join(line + "\n" for line in lines).encode()

    def test_batched_log_with_alpha_matches_in_memory_log(self, tmp_path):
        # Many write batches (one per step with events), and many
        # energies that are not integers, so not printed as one.
        text = (
            "region = square:21\nalgorithm = sltt-ea\napproach = 2\n"
            "e0 = 25\nalpha = 0.017\ndt = 2\nseed = 1\n"
        )
        cfg = write_config(tmp_path, text)
        log = tmp_path / "events.csv"
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                     "--log-events", str(log)]) == 0
        params = SimParams(algorithm="sltt-ea", approach=2, e0=25.0, alpha=0.017,
                           dt=2, seed=1)
        res = run(square_region(21), params, log_events=True)
        assert len({e.t for e in res.events}) > 900
        assert len({e.energy for e in res.events if e.energy % 1}) > 256
        lines = [EVENT_HEADER] + [old_format(e) for e in res.events]
        assert log.read_bytes() == "".join(line + "\n" for line in lines).encode()

    @pytest.mark.parametrize("src,dst", [(-1, 4), (3, -1), (-1, -1), (0, 12)])
    @pytest.mark.parametrize(
        "energy", [7, 7.0, 2.5, 0.1 + 0.2, 1 / 3, 1e-7, 123456789.0, 0, 0.0, -0.0, -0.07, -3]
    )
    def test_event_format_matches_f_string(self, src, dst, energy):
        for s1 in range(len(S1_NAMES)):
            ev = Event(12, 3, "move", src, dst, s1, 5, energy)
            # Twice: the second call may be served from the cache.
            assert ev.format() == old_format(ev)
            assert ev.format() == old_format(ev)

    def test_event_format_tells_zero_signs_apart(self):
        pos, neg = Event(0, 1, "fail", 2, 2, 3, 1, 0.0), Event(0, 1, "fail", 2, 2, 3, 1, -0.0)
        assert [pos.format(), neg.format(), pos.format()] == [
            old_format(pos), old_format(neg), old_format(pos)
        ]
        assert neg.format().endswith(",-0")

    def test_mismatched_out_header_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        out = tmp_path / "out.csv"
        out.write_text("name,value\nx,1\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "refusing to append" in capsys.readouterr().err
        assert out.read_text() == "name,value\nx,1\n"

    def test_matching_out_header_appends(self, tmp_path):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_strict_flags_step_cap(self, tmp_path):
        cfg = write_config(
            tmp_path, CORRIDOR_CFG + "max_steps = 3\n", name="capped.cfg"
        )
        out = str(tmp_path / "o.csv")
        assert main(["run", "--config", cfg, "--out", out, "--strict"]) == 1
        assert main(["run", "--config", cfg, "--out", out]) == 0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "region = line:10\nwat = 1\n")
        assert main(["run", "--config", cfg]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_missing_region_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dt = 2\ne0 = 10\n")
        assert main(["run", "--config", cfg]) == 2
        assert "missing the 'region' key" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: calls.append(a) or run(*a, **kw))
        cfg = write_config(tmp_path, CORRIDOR_CFG.replace("seed = 0", "seed = -1"))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "seed must be an int >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_without_out_writes_header_and_row_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CORRIDOR_CFG)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0] == ",".join(CSV_COLUMNS)
        assert lines == out.read_text().splitlines()

    def test_region_file_path_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "map.txt").write_text("E..\n...\n")
        cfg = write_config(tmp_path, "region = map.txt\ne0 = 30\ndt = 2\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(out.read_text().splitlines()))
        assert row["n"] == "6"
        assert row["terminated"] == "closed"

    # One energy parameter is drawn from every float (nan, infinities,
    # negatives, huge and subnormal values); each of the others is left
    # out (None) or drawn from a range where runs are valid.
    TAME = {
        "e0": st.floats(10, 60),
        "alpha": st.floats(0, 1),
        "ecrit_mobile": st.floats(1, 5),
        "ecrit_settled": st.floats(0, 5),
    }

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        tame=st.fixed_dictionaries({k: st.none() | v for k, v in TAME.items()}),
        wild_key=st.sampled_from(sorted(TAME)),
        wild=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 2.0**53, 1e-300, 5e-324]),
            st.floats(),
        ),
    )
    def test_energy_parameters_exit_0_or_2_as_validate_says(
        self, tmp_path, tame, wild_key, wild
    ):
        energies = {k: v for k, v in {**tame, wild_key: wild}.items() if v is not None}
        text = "region = square:5\nmax_steps = 200\n" + "".join(
            f"{k} = {v!r}\n" for k, v in energies.items()
        )
        cfg = write_config(tmp_path, text)
        try:
            SimParams(max_steps=200, **energies).validate()
            want = 0
        except ParamError:
            want = 2
        out = tmp_path / "o.csv"
        out.unlink(missing_ok=True)
        assert main(["run", "--config", cfg, "--out", str(out)]) == want
        if want == 0:
            (row,) = csv.DictReader(out.read_text().splitlines())
            assert math.isfinite(float(row["E_total"]))
            assert math.isfinite(float(row["max_Ei"]))


class TestSweepCommand:
    def test_cartesian_grid_and_aggregate(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "region = line:8\nalgorithm = sllg-ea\ne0 = 40\ndt = 2\nseed = 0\n",
        )
        out = tmp_path / "sweep.csv"
        agg = tmp_path / "agg.csv"
        rc = main([
            "sweep", "--config", cfg, "--vary", "dt=2,4",
            "--vary", "approach=1,2", "--seeds", "3",
            "--out", str(out), "--agg", str(agg),
        ])
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2 * 2 * 3
        assert {r["run_id"] for r in rows} == {f"r{i:06d}" for i in range(12)}
        assert {(r["dt"], r["approach"]) for r in rows} == {
            ("2", "1"), ("2", "2"), ("4", "1"), ("4", "2"),
        }
        assert [r["seed"] for r in rows[:3]] == ["0", "1", "2"]

        agg_rows = list(csv.DictReader(agg.read_text().splitlines()))
        assert len(agg_rows) == 4
        for rec in agg_rows:
            assert rec["runs"] == "3"
            group = [
                r for r in rows
                if (r["dt"], r["approach"]) == (rec["dt"], rec["approach"])
            ]
            mean = sum(float(r["T_C"]) for r in group) / len(group)
            assert float(rec["mean_T_C"]) == pytest.approx(mean, rel=1e-5)
            assert float(rec["frac_closed"]) == pytest.approx(
                sum(r["terminated"] == "closed" for r in group) / len(group)
            )

    def test_invalid_point_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: calls.append(a) or run(*a, **kw))
        cfg = write_config(tmp_path, "region = square:21\ne0 = 40\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--vary", "dt=2,0", "--seeds", "20",
                     "--out", str(out)]) == 2
        assert "dt must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    def test_rows_are_written_as_runs_finish(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        on_disk = []

        def crash_on_third_run(region, params, **kw):
            on_disk.append(out.read_text().splitlines())
            if len(on_disk) == 3:
                raise RuntimeError("crash in the third run")
            return run(region, params, **kw)

        monkeypatch.setattr(cli, "run", crash_on_third_run)
        cfg = write_config(tmp_path, "region = line:8\ne0 = 40\n")
        with pytest.raises(RuntimeError, match="third run"):
            main(["sweep", "--config", cfg, "--seeds", "4", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert [line.split(",")[:1] for line in lines[1:]] == [["r000000"], ["r000001"]]
        # Each row was on disk before the next run started.
        assert on_disk[2] == lines

    def test_mismatched_out_header_is_refused_before_running(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "region = line:8\ne0 = 40\n")
        out = tmp_path / "sweep.csv"
        out.write_text("run_id,region\n")
        assert main(["sweep", "--config", cfg, "--seeds", "1",
                     "--out", str(out)]) == 2
        assert "refusing to append" in capsys.readouterr().err
        assert out.read_text() == "run_id,region\n"

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_nonpositive_seeds_exit_2(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path, "region = line:8\ne0 = 40\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--seeds", seeds,
                     "--out", str(out)]) == 2
        assert f"--seeds must be >= 1, got {seeds}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_vary_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "region = line:8\ne0 = 40\n")
        assert main(["sweep", "--config", cfg, "--vary", "width=3,4",
                     "--seeds", "1"]) == 2
        assert "cannot vary 'width'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vary,match",
        [
            (["dt"], "--vary expects key=v1,v2,..., got 'dt'"),
            (["dt=1", "dt=2"], "duplicate --vary key 'dt'"),
            (["dt="], "--vary dt lists no values"),
        ],
    )
    def test_malformed_vary_exits_2(self, tmp_path, capsys, vary, match):
        cfg = write_config(tmp_path, "region = line:8\ne0 = 40\n")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", cfg, "--seeds", "1", "--out", str(out)]
        for spec in vary:
            argv += ["--vary", spec]
        assert main(argv) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_missing_region_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dt = 2\ne0 = 10\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--seeds", "1", "--out", str(out)]) == 2
        assert "missing the 'region' key" in capsys.readouterr().err
        assert not out.exists()


class TestBoundsCommand:
    def test_approach1_table(self, capsys):
        assert main(["bounds", "--case", "approach1", "--e0", "15",
                     "--dt", "2"]) == 0
        out = capsys.readouterr().out
        assert "d_max       [ 7]  13" in out
        assert "N_frontier  [ 8]  265" in out
        assert "T_C_upper   [11]  558" in out
        assert "N_upper     [12]  279" in out

    def test_approach2_table_matches_api(self, capsys):
        assert main(["bounds", "--case", "approach2", "--e0", "15"]) == 0
        rows = []
        for line in capsys.readouterr().out.splitlines():
            name, rest = line.split(None, 1)
            rows.append((name, *rest.rsplit(None, 1)))
        b = B.approach2_bounds(15, 1.0)
        assert rows == [
            ("d_max", "[ 7]", str(b.d_max)),
            ("A_covered_upper", "[13]", str(b.a_covered_ub)),
        ]

    def test_linear_edge_alpha_rows_match_api(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--case", "linear_edge", "--n", "10", "--dt", "2",
                     "--alpha", "0.025", "--out", str(out)]) == 0
        rows = {r["name"]: r for r in csv.DictReader(out.read_text().splitlines())}
        b = B.linear_edge_bounds(10, 2, 0.025)
        exact, approx, e_bound = B.linear_edge_dt_opt(10, 0.025)
        want = {
            "dt_equalize": ("37", b.dt_equalize),
            "dt_opt": ("31", exact),
            "dt_opt_approx": ("32", approx),
            "E_total_at_opt": ("33", e_bound),
        }
        assert b.dt_equalize is not None
        for name, (formula, value) in want.items():
            assert rows[name]["formula"] == formula
            assert float(rows[name]["value"]) == value

    def test_linear_edge_csv_matches_api(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--case", "linear_edge", "--n", "10", "--dt", "2",
              "--out", str(out)])
        rows = {r["name"]: r for r in csv.DictReader(out.read_text().splitlines())}
        b = B.linear_edge_bounds(10, 2)
        assert float(rows["T_C"]["value"]) == b.t_c
        assert float(rows["N"]["value"]) == float(b.n_agents)
        assert float(rows["E_total_upper"]["value"]) == b.e_total_ub
        assert rows["E_total_upper"]["formula"] == "30"

    def test_linear_mid_variant_selection(self, capsys):
        main(["bounds", "--case", "linear_mid", "--n", "100", "--j", "20",
              "--dt", "2"])
        greedy = capsys.readouterr().out
        assert "[51]" in greedy and "16433" in greedy
        main(["bounds", "--case", "linear_mid", "--n", "100", "--j", "20",
              "--dt", "2", "--variant", "depth_first"])
        depth = capsys.readouterr().out
        assert "[62]" in depth

    def test_missing_required_option_exits_2(self, capsys):
        assert main(["bounds", "--case", "approach1", "--e0", "15"]) == 2
        assert "requires --dt" in capsys.readouterr().err

    # Each case with the valid arguments it needs, and the energy options
    # it reads.
    FINITE_CASES = {
        "approach1": (["--e0", "15", "--dt", "2", "--ecrit-settled", "1", "--alpha", "0.01"],
                      ["e0", "ecrit-mobile", "ecrit-settled", "alpha"]),
        "approach2": (["--e0", "15"], ["e0", "ecrit-mobile"]),
        "linear_edge": (["--n", "10", "--dt", "2"], ["alpha"]),
        "linear_mid": (["--n", "20", "--j", "4", "--dt", "2"], ["alpha"]),
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "case,option",
        [(case, opt) for case, (_, opts) in FINITE_CASES.items() for opt in opts],
    )
    def test_non_finite_energy_exits_2(self, capsys, case, option, value):
        args, _ = self.FINITE_CASES[case]
        argv = ["bounds", "--case", case, *args, f"--{option}={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
