import math
import re

import numpy as np
import pytest

import oracles
from twoatom import analytic, geometry
from twoatom.cli import main
from twoatom.config import parse_config, serialize_config
from twoatom.errors import ConfigError, DomainError, ValidationError
from twoatom.figures import available_figures, figure_preset, run_figure
from twoatom.runner import parse_table_config, run_scenario


QUANTUM_BEATS_CFG = """\
# quantum-beat evolution, one atom excited
scenario = evolve
separation = 0.0833333333333333
delta = -2.0
initial = excited_one
grid_start = 0.0
grid_stop = 3.0
grid_points = 121
"""


class TestConfigParsing:
    def test_minimal_steady_gets_defaults(self):
        cfg = parse_config("scenario = steady\nseparation = 0.1\n")
        assert cfg["gamma1"] == 1.0
        assert cfg["generator"] == "vacuum_drive"
        assert cfg["grid_points"] == 101

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="separations"):
            parse_config("scenario = steady\nseparations = 1\n")

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="separation >= 0"):
            parse_config("scenario = steady\nseparation = -1\n")

    def test_grid_points_invariant(self):
        with pytest.raises(ConfigError, match="grid_points"):
            parse_config("scenario = evolve\ngrid_points = 1\n")

    @pytest.mark.parametrize("key", ["rtol", "atol", "grid_start",
                                     "grid_stop", "theta1", "theta2",
                                     "obs_phi", "alpha"])
    def test_sweep_key_read_by_no_generator_rejected(self, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(f"scenario = sweep\nsweep_key = {key}\n")

    def test_round_trip_identity(self):
        cfg = parse_config(QUANTUM_BEATS_CFG)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again.values == cfg.values
        assert serialize_config(again) == text

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# comment\nscenario = steady  # trailing\n")
        assert cfg["scenario"] == "steady"

    @pytest.mark.parametrize("key", ["rabi", "separation", "n_photons",
                                     "grid_stop", "rtol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_named(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' is not finite"):
            parse_config(f"scenario = steady\n{key} = {value}\n")


class TestRunScenario:
    def test_steady_matches_closed_form(self):
        cfg = parse_config("scenario = steady\nseparation = 0.08\n"
                           "rabi = 0.5\ndetuning = 2.0\n")
        table = run_scenario(cfg)
        pair = cfg.pair()
        ref = analytic.driven_steady_state(
            0.5, 2.0, 1.0, geometry.collective_damping(pair),
            geometry.dipole_dipole_shift(pair))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["rho_ss"] == pytest.approx(ref[1, 1].real, abs=1e-10)
        assert row["rho_ee"] == pytest.approx(ref[3, 3].real, abs=1e-10)
        assert row["visibility"] == pytest.approx(
            oracles.driven_visibility(0.5, 2.0, 1.0), abs=1e-10)

    def test_jump_scenario_deterministic(self):
        text = ("scenario = jump\nseparation = 0.2\nrabi = 2.0\n"
                "n_traj = 60\nseed = 42\ngrid_start = 0\ngrid_stop = 4\n"
                "grid_points = 9\nworkers = 1\n")
        t1 = run_scenario(parse_config(text))
        t2 = run_scenario(parse_config(text))
        assert t1.rows == t2.rows
        assert t1.sidecars["records.jsonl"] == t2.sidecars["records.jsonl"]

    def test_jump_scenario_unravels_squeezed_generator(self):
        # the ensemble follows the configured reservoir: squeezed-bath
        # jumps excite the pair out of |gg>, as its master equation does
        n = 0.5
        cfg = parse_config(
            "scenario = jump\ngenerator = squeezed\nseparation = 0.1\n"
            f"n_photons = {n}\nm_magnitude = {math.sqrt(n * (n + 1))!r}\n"
            "grid_stop = 3\ngrid_points = 7\nn_traj = 1500\nseed = 5\n"
            "workers = 1\n")
        table = run_scenario(cfg)
        labels = ("gg", "ge", "eg", "ee")
        mc, se, me = (np.stack([table.column(f"{kind}_{s}") for s in labels],
                               axis=1) for kind in ("mc", "stderr", "me"))
        assert mc[-1, 0] < 0.9 and me[-1, 0] < 0.9
        assert np.all(np.abs(mc - me) <= 5 * se + 1e-12)

    def test_sweep_peaks_at_shifted_resonance(self):
        # antisymmetric-state population peaks where the detuning matches
        # the level shift of the antisymmetric state (weak drive keeps the
        # line unshifted by power)
        s = oracles.separation_for_shift(10.0)
        cfg = parse_config(
            f"scenario = sweep\nseparation = {s}\ndelta = 1.0\n"
            "rabi = 1.0\nsweep_key = detuning\n"
            "grid_start = -20\ngrid_stop = 20\ngrid_points = 161\n")
        table = run_scenario(cfg)
        det = table.column("detuning")
        paa = table.column("rho_aa")
        assert det[np.argmax(paa)] == pytest.approx(-10.0, abs=0.5)
        assert paa.max() > 0.25

    def test_g2_scenario_dressed_generator(self):
        cfg = parse_config("scenario = g2\ngenerator = dicke_dressed\n"
                           "separation = 0.0\nrabi = 40.0\n"
                           "grid_start = 0\ngrid_stop = 2\ngrid_points = 81\n")
        table = run_scenario(cfg)
        assert table.metadata["degenerate"] == 1
        got = table.column("g2")
        ref = oracles.dressed_g2(table.column("tau"), 1.0, 40.0)
        assert np.abs(got - ref).max() < 1e-6

    def test_variance_scenario_transient_dip(self):
        cfg = parse_config("scenario = variance\nseparation = 0.0\n"
                           "rabi = 100.0\nalpha = 0.0\ngrid_start = 0\n"
                           "grid_stop = 0.05\ngrid_points = 501\n")
        table = run_scenario(cfg)
        assert table.column("variance").min() == pytest.approx(-1 / 16,
                                                               rel=0.03)

    def test_visibility_scenario_row(self):
        cfg = parse_config("scenario = visibility\nseparation = 0.1\n"
                           "rabi = 1.0\n")
        table = run_scenario(cfg)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["visibility"] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_squeezed_generator_scenario(self):
        cfg = parse_config("scenario = steady\ngenerator = squeezed\n"
                           "separation = 0.05\nn_photons = 0.5\n"
                           "m_magnitude = 0.86602540378\n")
        table = run_scenario(cfg)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["rho_aa"] > row["rho_ss"]  # dark-centered pattern
        assert row["visibility"] < 0

    def test_bad_cavity_generator_scenario(self):
        cfg = parse_config("scenario = steady\ngenerator = bad_cavity\n"
                           "separation = 2.0\ncavity_coupling = 1.0\n"
                           "cavity_rate = 100.0\ncavity_drive = 50.0\n")
        table = run_scenario(cfg)
        row = dict(zip(table.columns, table.rows[0]))
        assert 0 < row["rho_ee"] < 1

    def test_replay_reproduces_table(self):
        for text in (
                "scenario = steady\nseparation = 0.11\nrabi = 1.0\n",
                "scenario = evolve\nseparation = 0.3\nrabi = 0.7\n"
                "grid_stop = 2.0\ngrid_points = 11\n",
                "scenario = jump\nseparation = 0.25\nrabi = 1.5\n"
                "n_traj = 20\nseed = 5\ngrid_stop = 2\ngrid_points = 5\n"
                "workers = 1\n"):
            csv = run_scenario(parse_config(text)).to_csv()
            assert run_scenario(parse_table_config(csv)).to_csv() == csv

    @pytest.mark.parametrize("text, error, message", [
        ("generator = vacuum_drive\nsweep_key = separation\n"
         "grid_start = -0.5\ngrid_stop = 1.0\n", ValidationError,
         "separation must satisfy separation >= 0"),
        ("generator = vacuum_drive\nsweep_key = rabi\n"
         "grid_start = -1.0\ngrid_stop = 2.0\n", ValidationError,
         "rabi must satisfy rabi >= 0"),
        ("generator = squeezed\nsweep_key = m_magnitude\nn_photons = 0.5\n"
         "grid_start = 0.0\ngrid_stop = 2.0\n", ValidationError,
         "two-photon correlation bound violated: m^2 <= n(n+1)"),
        ("generator = bad_cavity\nsweep_key = cavity_rate\n"
         "grid_start = -10.0\ngrid_stop = 10.0\n", DomainError,
         "cavity decay rate must be positive"),
        ("generator = squeezed\nsweep_key = delta\ncarrier_offset = 0.5\n"
         "n_photons = 0.5\nm_magnitude = 0.5\ngrid_start = -1.0\n"
         "grid_stop = 1.0\n", ValidationError,
         "the secular nonidentical case requires the squeezing carrier "
         "midway between the transition frequencies (carrier_offset = 0)"),
    ], ids=["separation", "rabi", "m_magnitude", "cavity_rate", "delta"])
    def test_sweep_past_a_bound_raises_the_point_error(self, text, error,
                                                       message):
        # the same class and message as building the offending point alone
        cfg = parse_config("scenario = sweep\ngrid_points = 21\n" + text)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_scenario(cfg)

    def test_tolerance_keys_parse_and_are_unread(self):
        # rtol and atol of the former adaptive integrator stay parseable so
        # old tables replay; exact propagation reads neither
        text = ("scenario = evolve\nseparation = 0.3\nrabi = 0.7\n"
                "grid_stop = 2.0\ngrid_points = 11\n")
        plain = run_scenario(parse_config(text))
        loose = run_scenario(parse_config(text + "rtol = 1e-2\natol = 1e-3\n"))
        assert loose.rows == plain.rows


class TestFigures:
    def test_preset_roundtrip(self):
        cfg = figure_preset("fig4")
        assert cfg["scenario"] == "figure"
        assert cfg["figure"] == "fig4"
        table = run_scenario(cfg)
        assert table.columns[0] == "t"
        assert len(table.columns) == 4

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="fig22"):
            figure_preset("fig2")

    def test_fig4_beat_presence_and_absence(self):
        table = run_figure("fig4")
        t = table.column("t")
        flat = table.column("intensity_delta0")
        beat = table.column("intensity_delta-2")
        # a frequency splitting switches the oscillation on
        def oscillations(y):
            interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
            return int(np.sum(interior & (y[1:-1] > 1e-3)))
        assert oscillations(flat) == 0
        assert oscillations(beat) >= 3
        # superradiant overshoot above the initial intensity
        assert beat.max() > flat.max()

    def test_fig9_anticorrelation_dip_at_shift(self):
        table = run_figure("fig9")
        det = table.column("detuning")
        g2 = table.column("g2zero_r0.08")
        pair = geometry.AtomPairConfig(separation=0.08)
        omega12 = geometry.dipole_dipole_shift(pair)
        assert det[np.argmin(g2)] == pytest.approx(omega12, abs=0.5)
        assert g2.min() < 0.05

    def test_fig11_squeezing_near_shifted_line(self):
        table = run_figure("fig11")
        det = table.column("detuning")
        var = table.column("variance0_r0.08")
        pair = geometry.AtomPairConfig(separation=0.08)
        omega12 = geometry.dipole_dipole_shift(pair)
        assert var.min() < -0.01
        assert abs(det[np.argmin(var)] - omega12) < 1.5

    def test_fig17_dark_center_at_antisymmetric_line(self):
        table = run_figure("fig17")
        det = table.column("detuning")
        vis = table.column("visibility_axial")
        pair = geometry.AtomPairConfig(separation=0.1)
        omega12 = geometry.dipole_dipole_shift(pair)
        assert vis.min() < -0.9
        assert det[np.argmin(vis)] == pytest.approx(-omega12, abs=1.0)
        # perpendicular drive keeps a bright center everywhere
        assert table.column("visibility_perp").min() > 0

    def test_fig22_quantum_beats_classical_contrast(self):
        table = run_figure("fig22")
        sep = table.column("separation")
        close = sep < 0.3
        vq = table.column("visibility_quantum_n5")
        vc = table.column("visibility_classical_n5")
        assert vq[close].min() < -0.4
        assert np.abs(vc[close]).max() < np.abs(vq[close]).max()

    def test_all_presets_exist(self):
        assert available_figures()[0] == "fig1"
        assert "fig2" not in available_figures()
        assert len(available_figures()) == 21


class TestCliEntry:
    def test_run_and_validate(self, tmp_path, capsys):
        cfg = tmp_path / "steady.cfg"
        cfg.write_text("scenario = steady\nseparation = 0.1\nrabi = 1.0\n")
        out = tmp_path / "steady.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        assert "# cfg: scenario = steady" in text
        assert main(["validate", str(cfg)]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = steady\nseparation = -2\n")
        assert main(["run", str(cfg)]) == 1
        assert "separation" in capsys.readouterr().err

    def test_unknown_figure_exit_code(self, capsys):
        assert main(["figure", "fig2"]) == 1
        assert "fig2" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.cfg")]) == 1

    def test_engine_domain_error_is_config_error(self, tmp_path, capsys):
        # a variance scenario with a non-perpendicular detector is a
        # parameter problem, not a numerical one
        cfg = tmp_path / "var.cfg"
        cfg.write_text("scenario = variance\nseparation = 0.1\n"
                       "rabi = 1.0\ntheta1 = 0.3\ngrid_stop = 1\n"
                       "grid_points = 3\n")
        assert main(["run", str(cfg)]) == 1
        assert "perpendicular" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "scenario = steady\nseparation = 1e-120\n",
        "scenario = steady\nseparation = 1e-105\n",
        "scenario = evolve\nseparation = 1e-120\nrabi = 1.0\n",
        "scenario = evolve\nseparation = 1e-105\nrabi = 1.0\n",
        "scenario = sweep\nsweep_key = separation\ngrid_start = 1e-120\n"
        "grid_stop = 0.5\ngrid_points = 21\n",
        "scenario = steady\ngenerator = squeezed\nseparation = 1e-120\n",
        "scenario = sweep\ngenerator = squeezed\nsweep_key = delta\n"
        "separation = 1e-120\ngrid_start = -1.0\ngrid_stop = 1.0\n"
        "grid_points = 21\n",
    ], ids=["steady-1e-120", "steady-1e-105", "evolve-1e-120",
            "evolve-1e-105", "sweep-1e-120", "squeezed-1e-120",
            "squeezed-sweep-through-delta-0"])
    def test_overflowing_shift_is_config_error(self, tmp_path, capsys,
                                               text):
        # Omega12 ~ r^-3 overflows to a non-finite value at these
        # separations; the run stops with the separation named
        cfg = tmp_path / "contact.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "separation" in err

    def test_secular_squeezed_model_needs_no_shift(self, tmp_path):
        # a secular (delta != 0) squeezed Hamiltonian drops Omega12, so
        # its overflow near contact must not stop the run
        cfg = tmp_path / "secular.cfg"
        cfg.write_text("scenario = steady\ngenerator = squeezed\n"
                       "delta = 2\nseparation = 1e-120\n")
        assert main(["run", str(cfg)]) == 0

    @pytest.mark.parametrize("seed", [-1, 2 ** 63, 2 ** 64],
                             ids=["-1", "2**63", "2**64"])
    def test_seed_outside_philox_key_range_is_config_error(
            self, tmp_path, capsys, seed):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"scenario = jump\nn_traj = 2\nseed = {seed}\n")
        assert main(["run", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err

    def test_config_out_path_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "steady.cfg"
        cfg.write_text("scenario = steady\nseparation = 0.1\nrabi = 1.0\n"
                       f"out = {tmp_path / 'from_config.csv'}\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_figure_writes_csv(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["figure", "fig1", "--out", str(out)]) == 0
        header = [line for line in out.read_text().splitlines()
                  if not line.startswith("#")][0]
        assert header.split(",")[0] == "separation"

    def test_console_script_runs(self, tmp_path):
        import subprocess
        import sys
        result = subprocess.run(
            [sys.executable, "-m", "twoatom.cli", "figure", "fig3",
             "--out", str(tmp_path / "fig3.csv")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert (tmp_path / "fig3.csv").exists()

    def test_jump_sidecars_written(self, tmp_path):
        cfg = tmp_path / "jump.cfg"
        cfg.write_text("scenario = jump\nseparation = 0.2\nrabi = 1.0\n"
                       "n_traj = 10\nseed = 1\ngrid_stop = 2\n"
                       "grid_points = 5\nworkers = 1\n")
        out = tmp_path / "jump.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "jump.csv.records.jsonl").exists()
        assert (tmp_path / "jump.csv.records.txt").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys,
                                              command):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("scenario = steady\nseparation = 0.1\nrabi = nan\n")
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'rabi'" in err

    def test_engine_runs_without_scipy(self):
        # scipy is a test-only dependency: importing the package and
        # running every kind of scenario through it must not load it; nor
        # may the entangled-eigenstate preset load the closed forms, which
        # only the benchmark's checks read
        import os
        import subprocess
        import sys
        from pathlib import Path

        import twoatom
        script = (
            "import sys\n"
            "import twoatom, twoatom.cli, twoatom.figures, twoatom.runner\n"
            "from twoatom.config import parse_config\n"
            "for kind in ('steady', 'evolve', 'g2', 'sweep', 'jump'):\n"
            "    cfg = parse_config(f'scenario = {kind}\\nseparation = 0.2\\n'\n"
            "                       'rabi = 1.0\\ngrid_stop = 1\\n'\n"
            "                       'grid_points = 5\\nn_traj = 4\\n')\n"
            "    twoatom.runner.run_scenario(cfg).to_csv()\n"
            "twoatom.figures.run_figure('fig21').to_csv()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('twoatom.analytic' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(twoatom.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "False"]

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # an exhausted jump budget surfaces as a numerical error
        cfg = tmp_path / "budget.cfg"
        cfg.write_text("scenario = jump\nseparation = 0.2\nrabi = 8.0\n"
                       "n_traj = 2\nseed = 1\ngrid_stop = 2000\n"
                       "grid_points = 5\nworkers = 1\nmax_jumps = 5\n")
        assert main(["run", str(cfg)]) == 2
        assert "numerical error" in capsys.readouterr().err
