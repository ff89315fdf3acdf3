import json
import math
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsense.cli import main
from spinsense.serialize import load_state_file
from spinsense.states import balanced_state
from spinsense.su2 import HalfInt


ROOT = Path(__file__).resolve().parent.parent
# a config that passes the schema check; the exit-2 cases each break one part
VALID_CONFIG = {"probe": {"family": "king", "twice_j": 6},
                "true_params": {"theta": 0.8, "cap_theta": 1.1, "cap_phi": 2.3},
                "scheme": "optimal_pvm", "n_shots": 2000, "n_trials": 10, "seed": 42}


def run_cli(args):
    return main([str(a) for a in args])


class TestStateCommand:
    def test_noon_round_trip(self, tmp_path, capsys):
        out = tmp_path / "noon.json"
        assert run_cli(["state", "noon", "--j", "2", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["twice_j"] == 4
        assert len(data["amps"]) == 5
        st = load_state_file(out)
        assert abs(abs(st.amps[0]) - 1 / math.sqrt(2)) < 1e-15
        text = capsys.readouterr().out
        assert "norm" in text and "<J>" in text

    def test_king_j3_is_balanced(self, tmp_path):
        out = tmp_path / "king.json"
        assert run_cli(["state", "king", "--j", "3", "--out", out]) == 0
        st = load_state_file(out)
        expect = balanced_state(HalfInt(6), 2)
        assert np.max(np.abs(st.amps - expect.amps)) < 1e-12

    def test_half_odd_j_spelling(self, tmp_path):
        out = tmp_path / "b.json"
        assert run_cli(["state", "basis", "--j", "3/2", "--m", "0.5",
                        "--out", out]) == 0
        assert json.loads(out.read_text())["twice_j"] == 3

    def test_invalid_m_exit_2(self, tmp_path):
        code = run_cli(["state", "balanced", "--j", "2", "--m", "0.4",
                        "--out", tmp_path / "x.json"])
        assert code == 2

    @pytest.mark.parametrize("args", [["noon", "--j", "abc"], ["basis", "--j", "2"],
                                      ["balanced", "--j", "2"], ["noon", "--j", "nan"],
                                      ["noon", "--j", "inf"]],
                             ids=["j_not_a_number", "basis_without_m", "balanced_without_m",
                                  "j_nan", "j_inf"])
    def test_malformed_arguments_exit_2(self, tmp_path, args):
        assert run_cli(["state", *args, "--out", tmp_path / "x.json"]) == 2

    def test_two_mode_state(self, tmp_path, capsys):
        out = tmp_path / "tm.json"
        assert run_cli(["state", "two-mode-coherent", "--alpha-re", "2",
                        "--beta-re", "1", "--n-max", "40", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["two_mode"] is True


class TestConstellationCommand:
    def test_noon_equatorial(self, tmp_path):
        state_file = tmp_path / "noon.json"
        out = tmp_path / "stars.json"
        run_cli(["state", "noon", "--j", "4", "--out", state_file])
        assert run_cli(["constellation", state_file, "--out", out]) == 0
        stars = json.loads(out.read_text())
        assert sum(s["multiplicity"] for s in stars) == 8
        for s in stars:
            assert abs(s["polar"] - math.pi / 2) < 1e-9
        azimuths = sorted(s["azimuth"] for s in stars)
        expect = [2 * math.pi * k / 8 for k in range(8)]
        assert np.max(np.abs(np.array(azimuths) - expect)) < 1e-9

    def test_two_mode_figure4_export(self, tmp_path):
        lam = 0.8
        alpha = math.sqrt(4 * lam)
        xi = math.atanh(lam)
        state_file = tmp_path / "cs.json"
        out = tmp_path / "fig4.json"
        assert run_cli(["state", "coherent+squeezed", "--alpha-re", alpha,
                        "--xi-re", xi, "--out", state_file]) == 0
        assert run_cli(["constellation", state_file, "--subspaces", "4,9,14,19",
                        "--out", out]) == 0
        blocks = json.loads(out.read_text())
        assert [b["N"] for b in blocks] == [4, 9, 14, 19]
        for b in blocks:
            assert sum(s["multiplicity"] for s in b["stars"]) == b["N"]

    def test_overflowing_root_solve_exits_numerical(self, tmp_path, capsys):
        # a leading amplitude of 1e-320 overflows the root solve: a typed
        # RootFindingError, not a traceback
        from spinsense.cli import _NUMERICAL_EXIT
        from spinsense.serialize import dump_json, state_to_dict
        from spinsense.states import SpinState
        rng = np.random.default_rng(1)
        amps = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        amps[0] = 1e-320
        state_file = tmp_path / "tiny_lead.json"
        dump_json(state_to_dict(SpinState.from_amplitudes(HalfInt(10), amps)), state_file)
        assert run_cli(["constellation", state_file, "--out", tmp_path / "s.json"]) == _NUMERICAL_EXIT
        assert "overflowed" in capsys.readouterr().err

    def test_tour_state_without_subspaces(self, tmp_path):
        # the README tour's coherent+squeezed state: every subspace, down to
        # weights of 1e-15, gets a constellation
        state_file = tmp_path / "cs.json"
        out = tmp_path / "all.json"
        assert run_cli(["state", "coherent+squeezed", "--alpha-re", "1.789",
                        "--xi-re", "1.0986", "--out", state_file]) == 0
        assert run_cli(["constellation", state_file, "--out", out]) == 0
        blocks = json.loads(out.read_text())
        assert len(blocks) > 100
        for b in blocks:
            assert sum(s["multiplicity"] for s in b["stars"]) == b["N"]
            # amplitudes beyond mode a's cutoff of 42 photons (mode b's is 122)
            if b["N"] <= 122:
                assert b["n_cut"] == max(b["N"] - 42, 0)

    @pytest.mark.parametrize("text", [
        json.dumps({"twice_j": 4.9, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 4}),
        json.dumps({"twice_j": True, "amps": [[1.0, 0.0], [0.0, 0.0]]}),
        json.dumps([[1.0, 0.0]]),
        "{",
        None,
    ], ids=["twice_j_not_an_integer", "twice_j_a_boolean", "not_an_object",
            "not_json", "missing_file"])
    def test_malformed_state_file_exit_2(self, tmp_path, text):
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        assert run_cli(["constellation", path, "--out", tmp_path / "x.json"]) == 2

    def test_malformed_subspaces_exit_2(self, tmp_path):
        state_file = tmp_path / "tm.json"
        assert run_cli(["state", "two-mode-coherent", "--alpha-re", "2", "--beta-re", "1",
                        "--n-max", "40", "--out", state_file]) == 0
        assert run_cli(["constellation", state_file, "--subspaces", "4,x",
                        "--out", tmp_path / "x.json"]) == 2

class TestHusimiCommand:
    def test_grid_csv(self, tmp_path):
        state_file = tmp_path / "s.json"
        out = tmp_path / "h.csv"
        run_cli(["state", "coherent", "--j", "2", "--polar", "1.0",
                 "--azimuth", "0.5", "--out", state_file])
        assert run_cli(["husimi", state_file, "--n-polar", "10",
                        "--n-azimuth", "12", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "polar,azimuth,q,scaled_q"
        assert len(lines) == 1 + 10 * 12
        pol, az, q, sq = (float(tok) for tok in lines[1].split(","))
        assert abs(sq - (4 * q / math.pi) ** 0.75) < 1e-15


class TestQfiCommand:
    def test_full_rank_table(self, tmp_path, capsys):
        state_file = tmp_path / "king.json"
        out = tmp_path / "qfi.json"
        run_cli(["state", "king", "--j", "3", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["qfi", state_file, "--theta", "0.8", "--cap-theta", "1.0",
                        "--cap-phi", "0.5", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "rank 3" in text
        data = json.loads(out.read_text())
        assert data["rank"] == 3
        assert "trace_inverse" in data

    def test_coherent_probe_null_directions(self, tmp_path, capsys):
        state_file = tmp_path / "c.json"
        run_cli(["state", "coherent", "--j", "3", "--polar", "0.7",
                 "--azimuth", "0.4", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["qfi", state_file, "--theta", "1.0", "--cap-theta", "1.2",
                        "--cap-phi", "0.5"]) == 0
        text = capsys.readouterr().out
        assert "singular" in text
        assert "inestimable direction" in text
        assert "state_deficiency" in text

    def test_theta_zero_coordinate_hint_and_cartesian_repair(self, tmp_path, capsys):
        state_file = tmp_path / "king.json"
        run_cli(["state", "king", "--j", "3", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["qfi", state_file, "--theta", "1e-6", "--cap-theta", "0.9",
                        "--cap-phi", "2.0"]) == 0
        text = capsys.readouterr().out
        assert "coordinate_singularity" in text
        assert run_cli(["qfi", state_file, "--theta", "1e-6", "--cap-theta", "0.9",
                        "--cap-phi", "2.0", "--parametrization", "cartesian"]) == 0
        text = capsys.readouterr().out
        assert "rank 3" in text

    def test_euler_parametrization(self, tmp_path, capsys):
        state_file = tmp_path / "king.json"
        run_cli(["state", "king", "--j", "3", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["qfi", state_file, "--theta", "0.9", "--cap-theta", "1.1",
                        "--cap-phi", "0.8", "--parametrization", "euler-zyz"]) == 0
        assert "rank 3" in capsys.readouterr().out


# rotations (theta, cap_theta, cap_phi) at which a chart of the qfi command is
# singular or was once computed through another chart, then four generic ones
CHART_ROTATIONS = [(0.0, 0.9, 2.0), (0.8, 0.0, 0.0), (1e-6, 0.9, 2.0),
                   (math.pi, math.pi / 2, 0.0), (0.8, 1.0, 0.5), (2.5, 2.0, 4.0),
                   (0.9, 1.1, 0.8), (3.0, 0.3, 5.5)]


def _chart_probe(name):
    from spinsense.states import BlochPoint, SpinState, coherent_state, king_state
    if name == "king":
        return king_state(HalfInt(6))
    if name == "coherent":
        return coherent_state(HalfInt(6), BlochPoint(0.7, 0.4))
    amps = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, 7))
    return SpinState(HalfInt(6), amps / np.linalg.norm(amps))


def _oracle_qfi(psi0, chart, x):
    """Q_ij = 4 Re(<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>), from
    step-1e-5 central differences of states built by matrix exponentials in
    the chart's own coordinates x."""
    from scipy.linalg import expm
    from spinsense.su2 import make_operators
    jx, jy, jz = make_operators(HalfInt(6)).vector()

    def rotated(c):
        if chart == "spherical":
            t, ct, cp = c
            c = t * np.array([math.sin(ct) * math.cos(cp), math.sin(ct) * math.sin(cp),
                              math.cos(ct)])
        if chart == "euler-zyz":
            return expm(-1j * c[0] * jz) @ expm(-1j * c[1] * jy) @ expm(-1j * c[2] * jz) @ psi0
        return expm(-1j * (c[0] * jx + c[1] * jy + c[2] * jz)) @ psi0

    psi = rotated(x)
    step = 1e-5 * np.eye(3)
    d = [(rotated(x + h) - rotated(x - h)) / 2e-5 for h in step]
    return np.array([[4.0 * (np.vdot(a, b) - np.vdot(a, psi) * np.vdot(psi, b)).real
                      for b in d] for a in d])


@pytest.mark.parametrize("rot", CHART_ROTATIONS, ids=str)
@pytest.mark.parametrize("probe", ["king", "random"])
def test_qfi_charts_match_finite_difference_oracle(tmp_path, capsys, probe, rot):
    # every chart's QFI, from its own generator vectors, against differences
    # of the rotated state in that chart's coordinates, including at theta = 0,
    # on the z axis and at a half turn, where the Euler chart has beta = pi
    from spinsense.cli import _params_to_euler_zyz
    from spinsense.serialize import dump_json, state_to_dict
    from spinsense.su2 import RotationParams
    state = _chart_probe(probe)
    state_file, out = tmp_path / "probe.json", tmp_path / "qfi.json"
    dump_json(state_to_dict(state), state_file)
    p = RotationParams(*rot)
    coords = {"spherical": p.as_array(), "cartesian": p.omega,
              "euler-zyz": _params_to_euler_zyz(p)}
    for chart, x in coords.items():
        assert run_cli(["qfi", state_file, "--theta", repr(rot[0]), "--cap-theta", repr(rot[1]),
                        "--cap-phi", repr(rot[2]), "--parametrization", chart,
                        "--out", out]) == 0, chart
        q = np.array(json.loads(out.read_text())["matrix"])
        assert np.max(np.abs(q - _oracle_qfi(state.amps, chart, x))) < 1e-7, chart
    capsys.readouterr()


@pytest.mark.parametrize("rot", CHART_ROTATIONS, ids=str)
def test_euler_angles_reconstruct_the_rotation(rot):
    from spinsense.cli import _params_to_euler_zyz
    from spinsense.su2 import RotationParams, omega_so3, so3_matrix
    p = RotationParams(*rot)
    alpha, beta, gamma = _params_to_euler_zyz(p)
    rebuilt = omega_so3([0, 0, alpha]) @ omega_so3([0, beta, 0]) @ omega_so3([0, 0, gamma])
    assert np.max(np.abs(rebuilt - so3_matrix(p))) < 1e-12


# (spherical, cartesian, euler-zyz) classification of each probe's QFI at theta = 0,
# on the z axis, at a half turn about x (beta = pi), at a full turn and at a generic
# rotation: F full_rank, C coordinate_singularity, S state_deficiency and B
# state_and_coordinate.  The King and the random probe have full-rank covariance,
# the coherent probe rank 2.
DIAGNOSIS_ROTATIONS = [(0.0, 0.9, 2.0), (0.8, 0.0, 0.0), (math.pi, math.pi / 2, 0.0),
                       (2 * math.pi, 0.9, 2.0), (1.0, 1.2, 0.5)]
DIAGNOSES = {"king": ["CFC", "CFC", "FFC", "CCC", "FFF"],
             "coherent": ["BSS", "SSS", "SSS", "BBS", "SSS"],
             "random": ["CFC", "CFC", "FFC", "CCC", "FFF"]}
_CLASSIFICATION = {"F": "full_rank", "C": "coordinate_singularity", "S": "state_deficiency",
                   "B": "state_and_coordinate"}


@pytest.mark.parametrize("k", range(len(DIAGNOSIS_ROTATIONS)))
@pytest.mark.parametrize("probe", list(DIAGNOSES))
def test_qfi_classifies_every_chart_by_the_covariance_rank(tmp_path, capsys, probe, k):
    from spinsense.serialize import dump_json, state_to_dict
    state_file, out = tmp_path / "probe.json", tmp_path / "qfi.json"
    dump_json(state_to_dict(_chart_probe(probe)), state_file)
    rot = DIAGNOSIS_ROTATIONS[k]
    for chart, code in zip(("spherical", "cartesian", "euler-zyz"), DIAGNOSES[probe][k]):
        assert run_cli(["qfi", state_file, "--theta", repr(rot[0]), "--cap-theta", repr(rot[1]),
                        "--cap-phi", repr(rot[2]), "--parametrization", chart,
                        "--out", out]) == 0, chart
        expect = _CLASSIFICATION[code]
        assert json.loads(out.read_text()).get("diagnosis", "full_rank") == expect, chart
        text = capsys.readouterr().out
        # a deficit of the chart names the chart's singular set
        assert ("hint: " in text) == (code in "CB"), chart


class TestCrbCommand:
    def test_bound(self, tmp_path, capsys):
        state_file = tmp_path / "king.json"
        out = tmp_path / "crb.json"
        run_cli(["state", "king", "--j", "3", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["crb", state_file, "--theta", str(math.pi / 2),
                        "--cap-theta", str(math.pi / 3), "--cap-phi", "1.0",
                        "--n-shots", "1", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert abs(data["trace"] - 13.0 / 96.0) < 1e-12

    def test_singular_exit_3(self, tmp_path):
        state_file = tmp_path / "c.json"
        run_cli(["state", "coherent", "--j", "3", "--polar", "0.7",
                 "--azimuth", "0.4", "--out", state_file])
        code = run_cli(["crb", state_file, "--theta", "1.0", "--cap-theta", "1.2",
                        "--cap-phi", "0.5"])
        assert code == 3

    @pytest.mark.parametrize("family, rot, classification", [
        (["king"], (0.0, 0.9, 2.0), "coordinate_singularity"),
        (["coherent", "--polar", "0.7", "--azimuth", "0.4"], (1.0, 1.2, 0.5),
         "state_deficiency")])
    def test_singular_message_classifies(self, tmp_path, capsys, family, rot, classification):
        state_file = tmp_path / "probe.json"
        run_cli(["state", *family, "--j", "3", "--out", state_file])
        capsys.readouterr()
        assert run_cli(["crb", state_file, "--theta", rot[0], "--cap-theta", rot[1],
                        "--cap-phi", rot[2]]) == 3
        err = capsys.readouterr().err
        assert f"classification: {classification}" in err
        # only a deficit of the chart points to a chart that is regular there
        assert ("qfi --parametrization cartesian" in err) == (classification != "state_deficiency")


class TestSimulateCommand:
    def _small_config(self, tmp_path, **overrides):
        cfg = {
            "probe": {"family": "king", "twice_j": 6},
            "true_params": {"theta": 0.8, "cap_theta": 1.1, "cap_phi": 2.3},
            "scheme": "optimal_pvm",
            "n_shots": 2000,
            "n_trials": 10,
            "seed": 42,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_runs_and_reports(self, tmp_path, capsys):
        cfg = self._small_config(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["simulate", cfg, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["n_trials"] == 10
        assert report["trace_ratio"] > 0
        text = capsys.readouterr().out
        assert "saturation ratio" in text

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._small_config(tmp_path)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_cli(["simulate", cfg, "--out", out1]) == 0
        assert run_cli(["simulate", cfg, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("config", [
        {"probe": {"family": "king", "twice_j": 6}},
        dict(VALID_CONFIG, scheme="husimi", directions=[{"polar": 0.8, "azimuth": 0.4},
                                                        {"polar": 1.9}]),
        dict(VALID_CONFIG, probe={"family": "king"}),
        dict(VALID_CONFIG, offset_angle="abc"),
        dict(VALID_CONFIG, probe={"family": "basis", "twice_j": 6}),
        dict(VALID_CONFIG, probe={"family": "king", "twice_j": "abc"}),
        dict(VALID_CONFIG, probe={"family": "king", "twice_j": 6.7}),
        dict(VALID_CONFIG, probe={"family": "king", "j": "abc"}),
        dict(VALID_CONFIG, probe={"family": "basis", "twice_j": 6, "m": "abc"}),
        dict(VALID_CONFIG, probe={"family": "coherent", "twice_j": 6, "polar": "abc",
                                  "azimuth": 0.1}),
        dict(VALID_CONFIG, probe={"family": "cat", "twice_j": 6, "z": "ab"}),
        dict(VALID_CONFIG, probe={"family": "cat", "twice_j": 6, "z": 0.5}),
        dict(VALID_CONFIG, n_shots=1500.7),
        dict(VALID_CONFIG, n_trials=3.9),
        dict(VALID_CONFIG, seed=42.9),
        dict(VALID_CONFIG, probe={"family": "king", "twice_j": True}),
        dict(VALID_CONFIG, seed=-1),
        dict(VALID_CONFIG, n_shots=1e30),
        dict(VALID_CONFIG, true_params=[0.8, 1.1, 2.3]),
        dict(VALID_CONFIG, probe={"file": ["state.json"]}),
        dict(VALID_CONFIG, output=None),
    ], ids=["missing_keys", "direction_without_azimuth", "probe_without_j",
            "offset_angle_not_a_number", "basis_without_m", "twice_j_not_a_number",
            "twice_j_not_an_integer",
            "j_not_a_number", "m_not_a_number", "coherent_polar_not_a_number",
            "cat_z_not_a_pair_string", "cat_z_not_a_pair_number", "n_shots_not_an_integer",
            "n_trials_not_an_integer", "seed_not_an_integer", "twice_j_a_boolean",
            "seed_negative", "n_shots_beyond_int64", "true_params_as_a_list",
            "probe_file_not_a_name", "output_not_a_name"])
    def test_schema_violation_exit_2(self, tmp_path, monkeypatch, config):
        monkeypatch.chdir(tmp_path)     # nothing a bad config might write lands elsewhere
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", path]) == 2

    def test_theta_zero_exit_3(self, tmp_path):
        cfg = self._small_config(
            tmp_path, true_params={"theta": 0.0, "cap_theta": 0.9, "cap_phi": 1.0})
        assert run_cli(["simulate", cfg]) == 3

    def test_husimi_scheme_config(self, tmp_path):
        from pathlib import Path
        fig3 = Path(__file__).resolve().parent.parent / "configs" / "figure3_state.json"
        cfg = self._small_config(
            tmp_path,
            probe={"file": str(fig3)},
            scheme="husimi",
            true_params={"theta": 0.9, "cap_theta": 1.2, "cap_phi": 0.7},
            n_shots=4000, n_trials=4,
            directions=[{"polar": 0.8, "azimuth": 0.4},
                        {"polar": 1.9, "azimuth": 2.1},
                        {"polar": 1.2, "azimuth": 4.4},
                        {"polar": 2.6, "azimuth": 5.6}])
        out = tmp_path / "gps.json"
        assert run_cli(["simulate", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["n_trials"] == 4


def _readme_tour():
    """The spinsense commands of README's CLI quick tour, as argument lists."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI quick tour", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in lines if words[:1] == ["spinsense"]]


def test_readme_tour(tmp_path, monkeypatch, capsys):
    # every documented command, in order, from a directory holding configs/;
    # every singular matrix it shows is classified
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    tour = _readme_tour()
    assert tour
    for argv in tour:
        assert main(argv) == 0, argv
        assert "undetermined" not in capsys.readouterr().out, argv


def test_readme_lists_every_probe_family():
    # the README's probe-family table names the same families and keys as
    # serialize.PROBE_FAMILIES, in the same order
    from spinsense.serialize import PROBE_FAMILIES
    text = (ROOT / "README.md").read_text().split("Config schema:", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in text.splitlines() if line.startswith("| `")]
    documented = {name.strip().strip("`"): set(re.findall(r"`(\w+)`", keys))
                  for name, keys in rows}
    assert list(documented) == list(PROBE_FAMILIES)
    assert documented == {name: set(keys) for name, (_, keys) in PROBE_FAMILIES.items()}


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "spinsense.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_loads_no_scipy_module():
    # scipy is imported only inside the functions that use it
    code = ("import sys, spinsense, spinsense.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate', 'scipy.special') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_state_serialization_lossless(tmp_path):
    # repr-based floats survive a write/read cycle bit for bit
    from spinsense.serialize import dump_json, state_to_dict, state_from_dict
    from spinsense.states import cat_state
    st = cat_state(HalfInt(5), 0.7 + 0.31j)
    path = tmp_path / "cat.json"
    dump_json(state_to_dict(st), path)
    back = state_from_dict(json.loads(path.read_text()))
    assert np.array_equal(back.amps, st.amps)
