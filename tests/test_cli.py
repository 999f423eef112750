"""Run execution, CSV output, figure pipelines, and the command line."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from entchain import (
    NumericsError,
    ResultTable,
    format_csv,
    from_dict,
    make_figure,
    run,
    run_sweep,
    verify_report,
    write_csv,
)
from entchain.cli import main
from entchain.config import canonical_echo
from entchain.run import figure_documents

STATIC_DOC = {
    "model": {
        "n": 2,
        "boundary": "open",
        "omega_i": 1.0,
        "k_i": 12.0,
        "omega_f": 1.0,
        "k_f": 12.0,
    },
    "time": {"t_max": 0.1, "dt": 0.05},
}

QUENCH_DOC = {
    "model": {
        "n": 4,
        "omega_i": 3.0,
        "k_i": 2.0,
        "omega_f": 0.3,
        "k_f": 2.5,
    },
    "time": {"t_max": 0.2, "dt": 0.1},
    "entropy": {"alphas": [1, 2]},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_returns_result_table(self):
        config = from_dict(QUENCH_DOC)
        table = run(config)
        assert isinstance(table, ResultTable)
        assert table.times.shape == (3,)
        assert table.xi.shape == (3, 2)
        assert set(table.entropies) == {1, 2}
        assert table.alphas == (1, 2)
        assert table.echo_line == canonical_echo(config)
        assert table.precision == 12

    def test_static_run_is_flat_at_anchor(self):
        table = run(from_dict(STATIC_DOC))
        np.testing.assert_allclose(table.entropies[1], 0.48653, rtol=0, atol=1e-4)
        assert np.ptp(table.entropies[1]) < 1e-12

    def test_non_finite_table_rejected(self):
        times = np.array([0.0, 1.0])
        with pytest.raises(NumericsError, match="non-finite"):
            ResultTable(
                times=times,
                xi=np.array([[0.1], [np.nan]]),
                entropies={1: np.zeros(2)},
                alphas=(1,),
                echo_line="{}",
                precision=12,
            )


class TestFormatCsv:
    def test_layout(self):
        config = from_dict(QUENCH_DOC)
        text = format_csv(run(config))
        lines = text.split("\n")
        assert lines[0] == f"# config: {canonical_echo(config)}"
        assert lines[1] == "t,xi_1,xi_2,S_1,S_2"
        assert len(lines) == 2 + 3 + 1  # header pair, three rows, trailing newline
        assert lines[-1] == ""
        assert text.endswith("\n")
        assert "\r" not in text

    def test_precision_controls_cells(self):
        doc = dict(QUENCH_DOC)
        doc["output"] = {"precision": 3}
        table = run(from_dict(doc))
        row = format_csv(table).split("\n")[2].split(",")
        expected = [
            f"{table.times[0]:.3g}",
            f"{table.xi[0, 0]:.3g}",
            f"{table.xi[0, 1]:.3g}",
            f"{table.entropies[1][0]:.3g}",
            f"{table.entropies[2][0]:.3g}",
        ]
        assert row == expected

    @pytest.mark.parametrize("precision", [1, 12, 17])
    def test_cells_match_per_value_format(self, precision):
        values = np.array([0.0, -0.0, 5e-324, 1e16, 0.48653, -1.25e-7, 123456.789, np.pi])
        xi = np.column_stack([values[::-1], np.sqrt(np.abs(values))])
        table = ResultTable(
            times=values,
            xi=xi,
            entropies={1: 3.0 * values, 3: values**2},
            alphas=(1, 3),
            echo_line="{}",
            precision=precision,
        )
        columns = [values, xi[:, 0], xi[:, 1], 3.0 * values, values**2]
        want = [
            ",".join("{:.{p}g}".format(v, p=precision) for v in row) for row in zip(*columns)
        ]
        assert format_csv(table).split("\n")[2:-1] == want

    def test_echo_in_header_reparses_to_same_run(self):
        config = from_dict(STATIC_DOC)
        header = format_csv(run(config)).split("\n")[0]
        echo = json.loads(header[len("# config: "):])
        assert canonical_echo(from_dict(echo)) == canonical_echo(config)

    def test_repeat_runs_byte_identical(self):
        config = from_dict(QUENCH_DOC)
        assert format_csv(run(config)) == format_csv(run(config))


class TestWriteCsv:
    def test_creates_parent_directories(self, tmp_path):
        table = run(from_dict(STATIC_DOC))
        target = tmp_path / "nested" / "deeper" / "out.csv"
        write_csv(table, str(target))
        assert target.read_text() == format_csv(table)


class TestSweep:
    def test_files_match_individual_runs(self, tmp_path):
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1]
        paths = run_sweep(doc, str(tmp_path / "out"))
        names = [os.path.basename(p) for p in paths]
        assert names == ["omega_f=0.1.csv", "omega_f=0.3.csv"]
        for path, omega_f in zip(paths, [0.1, 0.3]):
            single = json.loads(json.dumps(QUENCH_DOC))
            single["model"]["omega_f"] = omega_f
            expected = format_csv(run(from_dict(single)))
            with open(path) as handle:
                assert handle.read() == expected

    def test_no_sweep_keys_writes_single_run(self, tmp_path):
        paths = run_sweep(dict(STATIC_DOC), str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["run.csv"]

    def test_threaded_sweep_matches_serial(self, tmp_path):
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1, 0.05]
        serial = run_sweep(doc, str(tmp_path / "serial"), threads=1)
        threaded = run_sweep(doc, str(tmp_path / "threaded"), threads=3)
        assert [os.path.basename(p) for p in serial] == [
            os.path.basename(p) for p in threaded
        ]
        for a, b in zip(serial, threaded):
            with open(a) as fa, open(b) as fb:
                assert fa.read() == fb.read()


class TestFigures:
    def test_figure_documents_curve_counts(self):
        assert len(figure_documents("fig1")) == 3
        assert len(figure_documents("fig2")) == 3
        assert len(figure_documents("fig3")) == 5
        assert len(figure_documents("fig4")) == 5
        with pytest.raises(ValueError, match="unknown figure"):
            figure_documents("fig9")

    def test_fig1_smoke(self, tmp_path):
        paths = make_figure("fig1", str(tmp_path))
        names = [os.path.basename(p) for p in paths]
        assert names == [
            "fig1_omega_bh_f=2.15.csv",
            "fig1_omega_bh_f=2.06.csv",
            "fig1_omega_bh_f=2.01.csv",
            "fig1_plot.py",
        ]
        for path in paths[:3]:
            with open(path) as handle:
                lines = handle.read().split("\n")
            assert lines[1] == "t,xi_1,S_1"
            first = float(lines[2].split(",")[-1])
            assert abs(first - 0.48653) < 1e-4
        script = (tmp_path / "fig1_plot.py").read_text()
        assert "matplotlib" in script
        for name in names[:3]:
            assert name in script

    def test_fig1_plot_script_renders(self, tmp_path):
        make_figure("fig1", str(tmp_path))
        env = dict(os.environ, MPLBACKEND="Agg")
        proc = subprocess.run(
            [sys.executable, "fig1_plot.py"],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fig1.png").stat().st_size > 0

    def test_fig1_plot_script_against_stub_matplotlib(self, tmp_path):
        """The emitted script, run against a stand-in ``matplotlib.pyplot``
        that records its calls, reads every CSV and saves the figure."""
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("")
        (stub / "pyplot.py").write_text(
            "import json\n"
            "plots = []\n"
            "def plot(x, y, label=None):\n"
            "    plots.append([label, len(x), float(x[-1]), float(y[0])])\n"
            "def savefig(name, **kwargs):\n"
            "    with open('calls.json', 'w') as handle:\n"
            "        json.dump({'plots': plots, 'savefig': name}, handle)\n"
            "def __getattr__(name):\n"
            "    return lambda *args, **kwargs: None\n"
        )
        out = tmp_path / "out"
        make_figure("fig1", str(out))
        env = dict(os.environ, PYTHONPATH=str(stub.parent))
        proc = subprocess.run(
            [sys.executable, "fig1_plot.py"], cwd=str(out), env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        calls = json.loads((out / "calls.json").read_text())
        assert calls["savefig"] == "fig1.png"
        want = []
        for label, _ in figure_documents("fig1"):
            rows = (out / f"fig1_{label}.csv").read_text().splitlines()[2:]
            first, last = rows[0].split(","), rows[-1].split(",")
            want.append([label, len(rows), float(last[0]), float(first[-1])])
        assert calls["plots"] == want


class TestMain:
    def test_simulate_writes_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path, STATIC_DOC)
        out_path = str(tmp_path / "result.csv")
        assert main(["simulate", "--config", config_path, "--output", out_path]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        with open(out_path) as handle:
            assert handle.read() == format_csv(run(from_dict(STATIC_DOC)))

    def test_simulate_stdout_fallback(self, tmp_path, capsys):
        config_path = write_config(tmp_path, STATIC_DOC)
        assert main(["simulate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        assert out == format_csv(run(from_dict(STATIC_DOC)))

    def test_simulate_uses_config_output_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(STATIC_DOC))
        doc["output"] = {"path": str(tmp_path / "from_config.csv")}
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", config_path]) == 0
        assert (tmp_path / "from_config.csv").exists()
        capsys.readouterr()

    def test_time_overrides_change_row_count(self, tmp_path, capsys):
        config_path = write_config(tmp_path, STATIC_DOC)
        assert main([
            "simulate", "--config", config_path, "--dt", "0.5", "--t-max", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.split("\n") if line]
        assert len(lines) == 2 + 3  # t = 0, 0.5, 1.0
        echo = json.loads(lines[0][len("# config: "):])
        assert echo["time"] == {"t_max": 1.0, "dt": 0.5}

    def test_sweep_command(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1]
        config_path = write_config(tmp_path, doc)
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--config", config_path, "--output", out_dir]) == 0
        out = capsys.readouterr().out
        assert sorted(os.listdir(out_dir)) == ["omega_f=0.1.csv", "omega_f=0.3.csv"]
        assert out.count("wrote ") == 2

    def test_sweep_without_output_directory(self, tmp_path, capsys):
        config_path = write_config(tmp_path, QUENCH_DOC)
        assert main(["sweep", "--config", config_path]) == 1
        assert "output directory" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["simulate", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_non_finite_table_exits_1_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"model": {"n": 4, "omega_i": 3.0, "k_i": 2.0}, "quench": {"kind": "general",'
            ' "table": [[0, 3.0, 2.0], [10, NaN, 2.2]]}, "time": {"t_max": 20, "dt": 0.5}}'
        )
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert "quench.table[1]: values must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(STATIC_DOC))
        doc["model"]["typo"] = 1
        config_path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", config_path]) == 1
        assert "model.typo: unknown key" in capsys.readouterr().err

    def test_bad_flag(self, capsys):
        assert main(["simulate", "--nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threads_flag_is_sweep_only(self, tmp_path, capsys):
        config_path = write_config(tmp_path, QUENCH_DOC)
        for argv in (
            ["simulate", "--config", config_path, "--threads", "2"],
            ["figure", "fig2", "--outdir", str(tmp_path / "fig"), "--threads", "2"],
            ["verify", "--threads", "2"],
        ):
            assert main(argv) == 1
            assert "--threads" in capsys.readouterr().err
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--config", config_path, "--output", out_dir, "--threads", "2"]) == 0
        capsys.readouterr()

    def test_negative_threads_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, QUENCH_DOC)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", config_path, "--output", str(out_dir), "--threads", "-1"]
        assert main(argv) == 1
        assert "threads" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_figure_name(self, capsys):
        assert main(["figure", "fig9"]) == 1
        capsys.readouterr()

    def test_numerics_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import entchain.cli as cli_module

        def boom(config):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(cli_module, "run", boom)
        config_path = write_config(tmp_path, STATIC_DOC)
        assert main(["simulate", "--config", config_path]) == 2
        assert "synthetic failure" in capsys.readouterr().err

    def test_non_finite_covariance_exits_2(self, tmp_path):
        # b(t)**2 overflows at t ~ 1e200; the error names the first such time
        doc = {
            "model": {"n": 4, "omega_i": 3, "k_i": 2, "omega_f": 0, "k_f": 2.5},
            "time": {"t_max": 1e200, "dt": 1e199},
        }
        config_path = write_config(tmp_path, doc)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "entchain.cli", "simulate", "--config", config_path],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        # the gapless mode's b**2 = 1 + 9 t**2 first overflows at t = 1e199
        assert "t = 1e+199" in proc.stderr

    def test_figure_command_dispatch(self, capsys, monkeypatch):
        import entchain.cli as cli_module

        calls = {}

        def fake_make_figure(name, outdir):
            calls["args"] = (name, outdir)
            return [os.path.join(outdir, "fake.csv")]

        monkeypatch.setattr(cli_module, "make_figure", fake_make_figure)
        assert main(["figure", "fig2", "--outdir", "somewhere"]) == 0
        assert calls["args"] == ("fig2", "somewhere")
        assert "wrote" in capsys.readouterr().out

    def test_verify_report_shows_each_gate(self):
        text, ok = verify_report()
        lines = text.splitlines()
        assert ok and lines[-1] == "all checks passed"
        checks = lines[:-1]
        assert len(checks) == 11 + 5
        for line in checks:
            value, gate = re.fullmatch(r"\[ok\] .* = (\S+) \(gate (\S+)\)", line).groups()
            assert float(value) < float(gate)

    def test_verify_exit_codes_follow_report(self, capsys, monkeypatch):
        import entchain.cli as cli_module

        monkeypatch.setattr(
            cli_module, "verify_report", lambda: ("all checks passed\n", True)
        )
        assert main(["verify"]) == 0
        assert "all checks passed" in capsys.readouterr().out

        monkeypatch.setattr(
            cli_module, "verify_report", lambda: ("verification FAILED\n", False)
        )
        assert main(["verify"]) == 2
        capsys.readouterr()

    def test_cli_import_leaves_scipy_special_unloaded(self, tmp_path):
        """A linear-ramp simulate, the one path that once needed Airy
        functions, runs without loading any part of scipy."""
        doc = {
            "model": {"n": 4, "omega_i": 3.0, "k_i": 2.0},
            "time": {"t_max": 5.0, "dt": 0.5},
            "quench": {"kind": "general", "table": [[0, 3, 2], [2, 1, 2.5]]},
        }
        config_path = write_config(tmp_path, doc)
        code = (
            "import sys, entchain.cli\n"
            f"entchain.cli.main(['simulate', '--config', {config_path!r},"
            f" '--output', {str(tmp_path / 'out.csv')!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "out.csv").read_text().count("\n") == 2 + 11

    def test_cli_import_leaves_thread_pool_unloaded(self):
        """``concurrent.futures`` (about 10 ms with the ``logging`` it
        pulls in) loads only when a sweep runs on several threads."""
        code = (
            "import sys, entchain.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_version_flag(self, capsys):
        import entchain

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert entchain.__version__ in capsys.readouterr().out
