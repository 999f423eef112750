"""Run execution, CSV output, figure pipelines, and the command line."""

import errno
import importlib
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from entchain import (
    ChainSpec,
    EntropySeries,
    NumericsError,
    Partition,
    format_csv,
    from_dict,
    make_figure,
    run,
    run_sweep,
    verify_report,
)
from entchain.cli import main
from entchain.config import canonical_echo
from entchain.run import _plot_script, figure_documents
from support import sudden_reference

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


def csv_config(alphas, precision):
    """A run config whose CSV has two xi columns and the given entropy
    orders and precision: the header and row format of a series with
    those columns."""
    doc = json.loads(json.dumps(QUENCH_DOC))
    doc["entropy"] = {"alphas": list(alphas)}
    doc["output"] = {"precision": precision}
    return from_dict(doc)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_cli(args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "entchain.cli", *args],
        capture_output=True, text=True, env=_cli_env(),
    )


class TestRun:
    def test_returns_entropy_series(self):
        config = from_dict(QUENCH_DOC)
        series = run(config)
        assert isinstance(series, EntropySeries)
        assert series.times.shape == (3,)
        assert series.xi.shape == (3, 2)
        assert set(series.entropies) == {1, 2}
        assert config.alphas == (1, 2)
        assert config.precision == 12

    def test_static_run_is_flat_at_anchor(self):
        series = run(from_dict(STATIC_DOC))
        np.testing.assert_allclose(series.entropies[1], 0.48653, rtol=0, atol=1e-4)
        assert np.ptp(series.entropies[1]) < 1e-12


class TestFormatCsv:
    def test_layout(self):
        config = from_dict(QUENCH_DOC)
        text = format_csv(config, run(config))
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
        config = from_dict(doc)
        series = run(config)
        row = format_csv(config, series).split("\n")[2].split(",")
        expected = [
            f"{series.times[0]:.3g}",
            f"{series.xi[0, 0]:.3g}",
            f"{series.xi[0, 1]:.3g}",
            f"{series.entropies[1][0]:.3g}",
            f"{series.entropies[2][0]:.3g}",
        ]
        assert row == expected

    @pytest.mark.parametrize("precision", [1, 12, 17])
    def test_cells_match_per_value_format(self, precision):
        values = np.array([0.0, -0.0, 5e-324, 1e16, 0.48653, -1.25e-7, 123456.789, np.pi])
        xi = np.column_stack([values[::-1], np.sqrt(np.abs(values))])
        series = EntropySeries(times=values, xi=xi, entropies={1: 3.0 * values, 3: values**2})
        columns = [values, xi[:, 0], xi[:, 1], 3.0 * values, values**2]
        want = [
            ",".join("{:.{p}g}".format(v, p=precision) for v in row) for row in zip(*columns)
        ]
        assert format_csv(csv_config((1, 3), precision), series).split("\n")[2:-1] == want

    @pytest.mark.parametrize("alphas", [(1,), (1, 2, 3)], ids=["S1", "S123"])
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("precision", [1, 12, 17])
    def test_chunks_match_per_row_format(self, precision, rows, alphas):
        """Each piece is formatted with one ``%`` on its values stacked row
        by row; the text is byte for byte that of one ``%`` per row, on
        either side of piece edges (the row counts straddle multiples of
        ``_CSV_ROWS``, a power of two up to 1024)."""
        rng = np.random.default_rng(rows)
        special = [0.0, -0.0, 5e-324, 1e16, -1.25e-7, 123456.789, np.pi]
        values = rng.standard_normal((rows, 3 + len(alphas))) * 10.0 ** rng.integers(
            -300, 300, (rows, 3 + len(alphas)))
        values[:len(special)] = np.array(special)[:rows, None]
        series = EntropySeries(
            times=values[:, 0],
            xi=values[:, 1:3],
            entropies={a: values[:, 3 + i] for i, a in enumerate(alphas)},
        )
        config = csv_config(alphas, precision)
        row = ",".join([f"%.{precision}g"] * values.shape[1]) + "\n"
        header = ",".join(["t", "xi_1", "xi_2"] + [f"S_{a}" for a in alphas])
        want = f"# config: {canonical_echo(config)}\n{header}\n" + "".join(
            row % tuple(r) for r in values.tolist())
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        pieces = list(run_module._csv(config, [series]))
        assert len(pieces) == 1 + -(-rows // run_module._CSV_ROWS)
        assert "".join(pieces) == want

    def test_echo_in_header_reparses_to_same_run(self):
        config = from_dict(STATIC_DOC)
        header = format_csv(config, run(config)).split("\n")[0]
        echo = json.loads(header[len("# config: "):])
        assert canonical_echo(from_dict(echo)) == canonical_echo(config)

    def test_repeat_runs_byte_identical(self):
        config = from_dict(QUENCH_DOC)
        assert format_csv(config, run(config)) == format_csv(config, run(config))


class TestWriteCsv:
    def test_creates_parent_directories(self, tmp_path):
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        config = from_dict(STATIC_DOC)
        target = tmp_path / "nested" / "deeper" / "out.csv"
        run_module._write_atomic(str(target), run_module._run_csv(config))
        assert target.read_text() == format_csv(config, run(config))

    def test_failure_mid_write_keeps_old_file(self, tmp_path):
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["time"] = {"t_max": 300.0, "dt": 0.1}  # 3001 rows, three row chunks

        def failing_pieces():
            pieces = run_module._run_csv(from_dict(doc))
            yield next(pieces)  # header lines
            yield next(pieces)  # first chunk of rows
            raise OSError("disk full")

        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        with pytest.raises(OSError, match="disk full"):
            run_module._write_atomic(str(target), failing_pieces())
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("failing", ["write", "close"])
    def test_file_error_part_way_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                   failing):
        """A full disk while the CSV is written or closed exits 1 with
        ``error: cannot write ...``; the temporary file is removed and the
        earlier file at the path is left as it was."""
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def write(self, text):
                if failing == "write" and self.handle.tell() > 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(text)

            def close(self):
                self.handle.close()
                if failing == "close":
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(run_module, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                            raising=False)
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["time"] = {"t_max": 300.0, "dt": 0.1}  # 3001 rows, three row chunks
        config_path = write_config(tmp_path, doc)
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        assert main(["simulate", "--config", config_path, "--output", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert "No space left on device" in err
        assert target.read_text() == "old contents\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out.csv"]

    def test_rows_come_in_chunks(self):
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["time"] = {"t_max": 300.0, "dt": 0.1}
        config = from_dict(doc)
        series = run(config)
        pieces = list(run_module._csv(config, [series]))
        rows, piece = 3001, run_module._CSV_ROWS
        assert [p.count("\n") for p in pieces] == [2] + [piece] * (rows // piece) + [rows % piece]
        assert "".join(pieces) == format_csv(config, series)

    def test_writing_holds_one_piece_at_a_time(self, tmp_path):
        """Writing a 200,001-row series allocates about one
        ``_CSV_ROWS``-row piece of values and text at a time (by
        ``tracemalloc``), far below the 6.4 MB of the series' values or
        the 10 MB of its text."""
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        times = 0.01 * np.arange(200_001)
        series = EntropySeries(
            times=times,
            xi=np.column_stack([np.sin(times) ** 2, np.cos(times) ** 2]) / 3.0,
            entropies={1: np.sqrt(times)},
        )
        config = csv_config((1,), 12)
        target = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            run_module._write_atomic(str(target), run_module._csv(config, [series]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 10_000_000
        assert peak < 1_000_000


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
            config = from_dict(single)
            expected = format_csv(config, run(config))
            with open(path) as handle:
                assert handle.read() == expected

    def test_no_sweep_keys_writes_single_run(self, tmp_path):
        paths = run_sweep(dict(STATIC_DOC), str(tmp_path))
        assert [os.path.basename(p) for p in paths] == ["run.csv"]

    def test_each_csv_is_written_before_the_next_run(self, tmp_path, monkeypatch, capsys):
        """Each combination's CSV is on disk before the next combination
        runs, and a numerical failure in the last one leaves the earlier
        CSVs complete, no temporary file, and exit 2."""
        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")
        real_run_csv = run_module._run_csv
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1, 0.05]
        out_dir = tmp_path / "sweep"
        on_disk = []

        def recording_run_csv(config):
            on_disk.append(sorted(os.listdir(out_dir)))
            if len(on_disk) == 3:
                raise NumericsError("synthetic failure")
            return real_run_csv(config)

        monkeypatch.setattr(run_module, "_run_csv", recording_run_csv)
        argv = ["sweep", "--config", write_config(tmp_path, doc), "--output", str(out_dir)]
        assert main(argv) == 2
        assert "synthetic failure" in capsys.readouterr().err
        done = ["omega_f=0.05.csv", "omega_f=0.1.csv"]
        assert on_disk == [[], done[:1], done]
        assert sorted(os.listdir(out_dir)) == done
        for name, omega_f in zip(done, [0.05, 0.1]):
            single = json.loads(json.dumps(QUENCH_DOC))
            single["model"]["omega_f"] = omega_f
            config = from_dict(single)
            assert (out_dir / name).read_text() == format_csv(config, run(config))


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

    @staticmethod
    def _run_against_stub_matplotlib(tmp_path, out, name):
        """Run ``<name>_plot.py`` in ``out`` against a stand-in
        ``matplotlib.pyplot`` that records each curve's label, length,
        last t and first y, and the name the figure is saved under."""
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
        env = dict(os.environ, PYTHONPATH=str(stub.parent))
        proc = subprocess.run(
            [sys.executable, f"{name}_plot.py"], cwd=str(out), env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads((out / "calls.json").read_text())

    def test_fig1_plot_script_against_stub_matplotlib(self, tmp_path):
        """The emitted script, run against a stand-in ``matplotlib.pyplot``
        that records its calls, reads every CSV and saves the figure."""
        out = tmp_path / "out"
        make_figure("fig1", str(out))
        calls = self._run_against_stub_matplotlib(tmp_path, out, "fig1")
        assert calls["savefig"] == "fig1.png"
        want = []
        for label, _ in figure_documents("fig1"):
            rows = (out / f"fig1_{label}.csv").read_text().splitlines()[2:]
            first, last = rows[0].split(","), rows[-1].split(",")
            want.append([label, len(rows), float(last[0]), float(first[-1])])
        assert calls["plots"] == want

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4"])
    def test_plot_scripts_against_stub_matplotlib(self, tmp_path, name):
        """The script each figure emits (``_plot_script``), on two tiny
        synthetic CSVs named for its first two curves, plots S_1 against t,
        over ln N for fig4 with N read from the curve label, and saves
        ``<name>.png``."""
        out = tmp_path / "out"
        out.mkdir()
        curves = figure_documents(name)[:2]
        files = [f"{name}_{label}.csv" for label, _ in curves]
        want = []
        for index, ((label, doc), fname) in enumerate(zip(curves, files)):
            s1 = 0.25 + index
            (out / fname).write_text(
                f"# config: {{}}\nt,xi_1,S_1\n0,0.01,{s1!r}\n0.5,0.02,0.75\n0.75,0.03,1.5\n"
            )
            if name == "fig4":
                s1 /= math.log(doc["model"]["n"])
            want.append([label, 3, 0.75, s1])
        (out / f"{name}_plot.py").write_text(_plot_script(name, files, [c[0] for c in curves]))
        calls = self._run_against_stub_matplotlib(tmp_path, out, name)
        assert calls["savefig"] == f"{name}.png"
        assert [plot[:3] for plot in calls["plots"]] == [w[:3] for w in want]
        assert [plot[3] for plot in calls["plots"]] == pytest.approx([w[3] for w in want],
                                                                     rel=1e-15)


class TestMain:
    def test_simulate_writes_file(self, tmp_path, capsys):
        config_path = write_config(tmp_path, STATIC_DOC)
        out_path = str(tmp_path / "result.csv")
        assert main(["simulate", "--config", config_path, "--output", out_path]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        with open(out_path) as handle:
            config = from_dict(STATIC_DOC)
            assert handle.read() == format_csv(config, run(config))

    def test_simulate_stdout_fallback(self, tmp_path, capsys):
        config_path = write_config(tmp_path, STATIC_DOC)
        assert main(["simulate", "--config", config_path]) == 0
        out = capsys.readouterr().out
        config = from_dict(STATIC_DOC)
        assert out == format_csv(config, run(config))

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

    def test_sweep_names_a_bad_output_block(self, tmp_path, capsys):
        """An ``output`` block that is not an object is reported as
        ``from_dict`` reports it, not as a missing output directory."""
        doc = dict(QUENCH_DOC, output=5)
        config_path = write_config(tmp_path, doc)
        assert main(["sweep", "--config", config_path]) == 1
        assert capsys.readouterr().err == "error: output: expected an object, got int\n"
        assert main(["sweep", "--config", config_path, "--output", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == "error: output: expected an object, got int\n"
        assert not (tmp_path / "s").exists()

    def test_time_override_names_a_bad_time_block(self, tmp_path, capsys):
        """With ``--dt`` a ``time`` block that is not an object is reported
        as ``from_dict`` reports it without the override."""
        config_path = write_config(tmp_path, dict(QUENCH_DOC, time=5))
        for extra in ([], ["--dt", "0.1"], ["--t-max", "1"]):
            assert main(["simulate", "--config", config_path, *extra]) == 1
            assert capsys.readouterr().err == "error: time: expected an object, got int\n"

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

    def test_threads_flag_is_unknown(self, tmp_path, capsys):
        """No subcommand takes ``--threads``: a sweep runs its combinations
        one after another, and the flag is a usage error that writes
        nothing."""
        config_path = write_config(tmp_path, QUENCH_DOC)
        for argv in (
            ["simulate", "--config", config_path, "--threads", "2"],
            ["sweep", "--config", config_path, "--output", str(tmp_path / "sweep"),
             "--threads", "2"],
            ["figure", "fig2", "--outdir", str(tmp_path / "fig"), "--threads", "2"],
            ["verify", "--threads", "2"],
        ):
            assert main(argv) == 1
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "figure"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, monkeypatch, command):
        """An output path under a regular file is a config error: exit 1
        with ``error: cannot write ...`` and no traceback, before any run."""
        import entchain.cli as cli_module

        # the package binds the function run under the module's name
        run_module = importlib.import_module("entchain.run")

        def no_run(config):
            raise AssertionError("ran before checking the output path")

        monkeypatch.setattr(cli_module, "_run_csv", no_run)
        monkeypatch.setattr(run_module, "_run_csv", no_run)
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1]
        config_path = write_config(tmp_path, doc if command == "sweep" else QUENCH_DOC)
        argv = {
            "simulate": ["simulate", "--config", config_path, "--output", str(blocker / "out.csv")],
            "sweep": ["sweep", "--config", config_path, "--output", str(blocker)],
            "figure": ["figure", "fig2", "--outdir", str(blocker / "fig")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}")
        assert blocker.read_text() == "not a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json"]

    def test_bad_figure_name(self, capsys):
        assert main(["figure", "fig9"]) == 1
        capsys.readouterr()

    def test_numerics_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        import entchain.cli as cli_module

        def boom(config):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(cli_module, "_run_csv", boom)
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
        proc = _run_cli(["simulate", "--config", config_path])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        # the gapless mode's b**2 = 1 + 9 t**2 first overflows at t = 1e199
        assert "t = 1e+199" in proc.stderr

    def test_singular_covariance_exits_2(self, tmp_path):
        """At t = 3e9 the gapless zero mode makes the kept covariance of an
        open chain's second half numerically singular (condition number
        past 1 / eps): exit 2 with both ends of its spectrum and the
        failing row named.  The ring's kept block {1, 2} splits into two
        one-site mirror sectors that each factor, and gives S_1 within 1e-6
        of a 60-digit value at t = 1e9."""
        model = {"n": 4, "omega_i": 3, "k_i": 2, "omega_f": 0, "k_f": 2.5}
        time = {"t_max": 3e9, "dt": 3e9}
        open_path = write_config(tmp_path, {"model": {**model, "boundary": "open"}, "time": time},
                                 name="open.json")
        proc = _run_cli(["simulate", "--config", open_path])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: covariance matrix is numerically singular")
        assert "eigenvalues from" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stderr.rstrip().endswith(", at t = 3e+09")
        time = {"t_max": 1e9, "dt": 1e9}
        ring_path = write_config(tmp_path, {"model": model, "time": time}, name="ring.json")
        proc = _run_cli(["simulate", "--config", ring_path])
        assert proc.returncode == 0
        s1 = float(proc.stdout.splitlines()[-1].split(",")[-1])
        assert abs(s1 - 21.3409311148951) < 1e-6

    def test_spectrum_below_the_floor_names_its_time(self, tmp_path):
        """An open dimer quenched to omega_f = 1e8 gives a symplectic
        eigenvalue below the physical floor 1/2 first at t = 0.02: exit 2
        naming that row."""
        doc = {"model": {"n": 2, "boundary": "open", "omega_i": 3, "k_i": 1,
                         "omega_f": 1e8, "k_f": 0},
               "time": {"t_max": 0.5, "dt": 0.01}}
        proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: symplectic eigenvalue ")
        assert "is below the physical floor 1/2" in proc.stderr
        assert proc.stderr.rstrip().endswith(", at t = 0.02")

    @pytest.mark.xfail(strict=True, reason=(
        "the open chain's kept covariance loses its small eigenvalues to roundoff as "
        "t grows (ROADMAP items 4, 6 and 12): the runs at t = 1e6, 1e7, 1e8, 1e9 and "
        "1e10 exit 0 with S_1 off by 2.5e-5 to 5.4"))
    def test_open_chain_far_times_are_right_or_refused(self, tmp_path):
        """The open chain of ``test_singular_covariance_exits_2`` one row at
        a time t: each run either exits 2 or gives S_1 within 1e-6 of the
        60-digit ``sudden_reference``.  Every run but t = 3e9 exits 0, and
        each of them is off."""
        model = {"n": 4, "omega_i": 3, "k_i": 2, "omega_f": 0, "k_f": 2.5, "boundary": "open"}
        far = (1e6, 1e7, 1e8, 1e9, 3e9, 1e10)
        spec = ChainSpec(4, 3.0, 2.0, 0.0, 2.5, "open")
        _, reference = sudden_reference(spec, Partition.second_half(4).kept, far, digits=60)
        wrong = []
        for t, s1_exact in zip(far, reference[1]):
            doc = {"model": model, "time": {"t_max": t, "dt": t}}
            proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
            if proc.returncode != 2:
                assert proc.returncode == 0
                s1 = float(proc.stdout.splitlines()[-1].split(",")[-1])
                if abs(s1 - s1_exact) > 1e-6:
                    wrong.append(f"t = {t:g}: S_1 = {s1!r}, not {s1_exact!r}")
        assert not wrong, "; ".join(wrong)

    def test_numerics_failure_creates_no_file(self, tmp_path):
        # the t_max = 1e200 run fails in the scale factors, before any output
        doc = {
            "model": {"n": 4, "omega_i": 3, "k_i": 2, "omega_f": 0, "k_f": 2.5},
            "time": {"t_max": 1e200, "dt": 1e199},
        }
        config_path = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        proc = _run_cli(["simulate", "--config", config_path,
                         "--output", str(out_dir / "result.csv")])
        assert proc.returncode == 2
        assert "t = 1e+199" in proc.stderr
        assert os.listdir(out_dir) == []

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_peak_memory_per_row_is_the_output_columns(self, tmp_path):
        """Only t, xi and S span the whole grid: an n = 4 ring (two kept
        sites, 32 bytes of output per row) peaks at most 64 bytes per row
        higher at 100,001 rows than at 20,001."""
        doc = {
            "model": {"n": 4, "omega_i": 3.0, "k_i": 2.0, "omega_f": 0.01, "k_f": 2.5},
            "time": {"dt": 0.01},
        }
        config_path = write_config(tmp_path, doc)
        env = _cli_env()
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        peaks = {}
        for t_max, rows in ((200, 20_001), (1000, 100_001)):
            out = tmp_path / f"rows{rows}.csv"
            proc = subprocess.Popen(
                [sys.executable, "-m", "entchain.cli", "simulate", "--config", config_path,
                 "--t-max", str(t_max), "--output", str(out)],
                env=env, stdout=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert out.read_text().count("\n") == 2 + rows
            peaks[rows] = usage.ru_maxrss * 1024  # kilobytes on Linux
        growth = (peaks[100_001] - peaks[20_001]) / 80_000
        assert growth <= 64, f"{growth:.0f} bytes per row"

    def test_memory_does_not_grow_with_the_grid(self, tmp_path, capsys):
        """``simulate`` computes and writes one chunk at a time: by
        ``tracemalloc``, a 200,001-row run peaks within 100 kB of a
        10,001-row one (about 0.40 MB each, 10 kB apart), where whole
        columns and 1024-row pieces peaked at 0.58 MB and 5.15 MB."""
        doc = {"model": {"n": 2, "omega_i": 3.0, "k_i": 2.0, "omega_f": 0.01, "k_f": 2.5},
               "time": {"dt": 0.01}}
        config_path = write_config(tmp_path, doc)
        out = str(tmp_path / "out.csv")
        main(["simulate", "--config", config_path, "--t-max", "1", "--output", out])  # warm
        peaks = {}
        for t_max, rows in (("100", 10_001), ("2000", 200_001)):
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", config_path, "--t-max", t_max,
                             "--output", out]) == 0
                _, peaks[rows] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            with open(out) as handle:
                assert sum(1 for _ in handle) == 2 + rows
        capsys.readouterr()
        assert peaks[200_001] - peaks[10_001] < 100_000, peaks

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        """A reader that closes the pipe early (``| head -c 100``) ends the
        run with exit 1 and nothing on stderr: no traceback and no
        "Exception ignored" from the interpreter's last flush.  Both a
        reader that goes while rows are still being written and one gone
        before the first byte, whose rows all wait in the buffer until the
        end, are covered."""
        long_doc = json.loads(json.dumps(QUENCH_DOC))
        long_doc["time"] = {"t_max": 1000.0, "dt": 0.1}  # 10,001 rows, about 0.8 MB
        for doc, read in ((long_doc, 100), (STATIC_DOC, 0)):
            proc = subprocess.Popen(
                [sys.executable, "-m", "entchain.cli", "simulate", "--config",
                 write_config(tmp_path, doc)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
            )
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
            assert err == b""

    def test_huge_json_integers_are_config_errors(self, tmp_path, capsys):
        huge = 10**400
        docs = [
            json.loads(json.dumps(QUENCH_DOC)),
            {
                "model": {"n": 4, "omega_i": 3.0, "k_i": 2.0},
                "quench": {"kind": "general", "table": [[0, 3, 2], [1, huge, 2]]},
            },
        ]
        docs[0]["model"]["omega_f"] = huge
        docs.append(json.loads(json.dumps(QUENCH_DOC)))
        docs[2]["entropy"] = {"alphas": [1, huge]}
        for doc, where in zip(docs, ("model.omega_f", "quench.table[1]", "entropy.alphas")):
            config_path = write_config(tmp_path, doc)
            assert main(["simulate", "--config", config_path]) == 1
            assert capsys.readouterr().err == (
                f"error: {where}: integer is too large for a float\n"
            )
        # past Python's 4300-digit limit the JSON parser itself refuses
        config_path = tmp_path / "digits.json"
        config_path.write_text('{"model": {"n": ' + "1" * 5000 + "}}")
        assert main(["simulate", "--config", str(config_path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, values, message",
        [
            ("model", {"n": 10**30}, "model.n: must be at most 4096"),
            ("time", {"t_max": 1e300, "dt": 1e-300}, "time.t_max: t_max / dt gives inf "),
            ("time", {"t_max": 1e12, "dt": 1e-3}, "time.t_max: t_max / dt gives 1000000000000001 "),
        ],
        ids=["n", "overflowing-grid", "unallocatable-grid"],
    )
    def test_oversized_configs_exit_1_quickly(self, tmp_path, capsys, block, values, message):
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc[block].update(values)
        config_path = write_config(tmp_path, doc)
        start = time.process_time()
        assert main(["simulate", "--config", config_path]) == 1
        assert time.process_time() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, time_value",
        [
            ({"model": {"n": 4, "omega_i": 1e100, "k_i": 1, "omega_f": 1, "k_f": 1},
              "time": {"t_max": 1, "dt": 0.5}}, "0.5"),
            ({"model": {"n": 2, "omega_i": 1, "k_i": 1, "omega_f": 0, "k_f": 1},
              "partition": {"traced": [2]}, "time": {"t_max": 1e17, "dt": 1e16}}, "3e+16"),
        ],
        ids=["stiff-start", "gapless-dimer"],
    )
    def test_xi_rounding_to_one_exits_2(self, tmp_path, doc, time_value):
        """A symplectic eigenvalue so large that xi rounds to 1 is a
        numerical failure naming the first such time, not a traceback."""
        proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: xi = (2 nu - 1) / (2 nu + 1) rounds to 1 at t = "
                                      f"{time_value}:")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_failure_in_a_later_chunk_follows_the_rows_before(self, tmp_path):
        """On stdout the rows of the chunks before a failing one are
        written before exit 2: the gapless dimer's xi first rounds to 1 at
        t = 1.228e16, row 1228 of the second 1024-row chunk, so the first
        1024 rows come out, the same as those of a run that stops before.
        With ``--output`` the same run writes no file."""
        doc = {"model": {"n": 2, "omega_i": 1, "k_i": 1, "omega_f": 0, "k_f": 1},
               "partition": {"traced": [2]}, "time": {"t_max": 1e17, "dt": 1e13}}
        proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == 2
        assert proc.stderr.startswith(
            "error: xi = (2 nu - 1) / (2 nu + 1) rounds to 1 at t = 1.228e+16:")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 + 1024
        doc["time"]["t_max"] = 1023e13
        before = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert before.returncode == 0
        assert lines[1:] == before.stdout.splitlines()[1:]
        out = tmp_path / "out"
        out.mkdir()
        doc["time"]["t_max"] = 1e17
        proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc),
                         "--output", str(out / "dimer.csv")])
        assert proc.returncode == 2 and "t = 1.228e+16" in proc.stderr
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "model, quench, message",
        [
            ({"omega_i": 1e200, "omega_f": 1, "k_f": 1}, None,
             "model: the largest pre-quench coupling eigenvalue"),
            ({"omega_i": 1, "omega_f": 1e200, "k_f": 1}, None,
             "model: the largest post-quench coupling eigenvalue"),
            ({"omega_i": 1, "k_i": 1e308, "omega_f": 1, "k_f": 1}, None,
             "model: the largest pre-quench coupling eigenvalue"),
            ({"omega_i": 1}, [[0, 1, 1], [1, 1e200, 1]],
             "quench.table: row 1: the largest coupling eigenvalue"),
            ({"omega_i": 1}, [[0, 1, 1], [1, 1, 1e308]],
             "quench.table: row 1: the largest coupling eigenvalue"),
        ],
        ids=["omega_i", "omega_f", "k_i", "table-omega", "table-k"],
    )
    def test_oversized_parameters_exit_1(self, tmp_path, model, quench, message):
        """A phase or table row whose largest coupling eigenvalue,
        omega**2 + 4 k, overflows is a config error."""
        doc = {"model": {"n": 4, "k_i": 1, **model}, "time": {"t_max": 1, "dt": 0.5}}
        if quench is not None:
            doc["quench"] = {"kind": "general", "table": quench}
        proc = _run_cli(["simulate", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {message}, omega**2 + 4 k, is not finite")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "table, t_max, dt",
        [
            ([[0, 1, 1], [1e6, 100, 1]], 1, 0.5),
            ([[0, 1, 1], [1, 2, 1], [1e300, 3, 1]], 2, 0.5),
        ],
        ids=["long-ramp", "far-row"],
    )
    def test_general_table_is_cut_at_the_last_time(self, tmp_path, capsys, table, t_max, dt):
        """A table reaching far past t_max is integrated only up to t_max,
        and its echo keeps the whole table."""
        doc = {"model": {"n": 4, "omega_i": 1, "k_i": 1},
               "quench": {"kind": "general", "table": table},
               "time": {"t_max": t_max, "dt": dt}}
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + round(t_max / dt) + 1
        assert json.loads(lines[0][len("# config: "):])["quench"]["table"] == table

    def test_too_many_table_pieces_fail_fast(self, tmp_path, capsys):
        """The same long ramp run to t = 1e6 would need 1.5e8 Taylor pieces
        over the ring's three distinct modes (mu = 0, 2, 4): the count is
        refused before any of them is allocated."""
        doc = {"model": {"n": 4, "omega_i": 1, "k_i": 1},
               "quench": {"kind": "general", "table": [[0, 1, 1], [1e6, 100, 1]]},
               "time": {"t_max": 1e6, "dt": 1e3}}
        config_path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", config_path]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        err = capsys.readouterr().err
        assert err.startswith("error: the lam table needs 1.50338e+08 Taylor pieces up to "
                              "t = 1e+06, more than ")
        assert err.count("\n") == 1

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
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(),
            check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert (tmp_path / "out.csv").read_text().count("\n") == 2 + 11

    def test_cli_import_leaves_thread_pool_unloaded(self, tmp_path):
        """Neither importing the CLI nor a two-combination sweep loads
        ``concurrent.futures`` (about 10 ms with the ``logging`` it pulls
        in): the package starts no threads."""
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["model"]["omega_f"] = [0.3, 0.1]
        config_path = write_config(tmp_path, doc)
        code = (
            "import sys, entchain.cli\n"
            f"entchain.cli.main(['sweep', '--config', {config_path!r},"
            f" '--output', {str(tmp_path / 'sweep')!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(),
            check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        assert sorted(os.listdir(tmp_path / "sweep")) == ["omega_f=0.1.csv", "omega_f=0.3.csv"]

    def test_cli_import_generates_no_record_code(self):
        """Importing the CLI loads no ``dataclasses``: the package's records
        are written out by hand, so no process compiles their methods."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, entchain.cli; print('dataclasses' in sys.modules)"],
            capture_output=True, text=True, env=_cli_env(), check=True,
        )
        assert proc.stdout.strip() == "False"

    def test_main_freezes_the_heap_and_writes_every_byte(self, tmp_path):
        """In a real process ``main`` freezes the import-time heap, and
        the CSV a 3001-row ``simulate`` writes to a pipe (more than a pipe
        buffer holds) and to ``--output`` is exactly ``format_csv``."""
        doc = json.loads(json.dumps(QUENCH_DOC))
        doc["time"] = {"t_max": 300.0, "dt": 0.1}
        config_path = write_config(tmp_path, doc)
        config = from_dict(doc)
        expected = format_csv(config, run(config))
        assert len(expected) > 65536
        out = tmp_path / "out.csv"
        code = (
            "import gc, entchain.cli\n"
            "before = gc.get_freeze_count()\n"
            f"entchain.cli.main(['simulate', '--config', {config_path!r},"
            f" '--output', {str(out)!r}])\n"
            "print(before, gc.get_freeze_count())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_cli_env(),
            check=True,
        )
        before, after = map(int, proc.stdout.splitlines()[-1].split())
        assert before == 0 < after
        assert out.read_text() == expected
        proc = _run_cli(["simulate", "--config", config_path])
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_version_flag(self, capsys):
        import entchain

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert entchain.__version__ in capsys.readouterr().out
