"""End-to-end tests of the command-line driver, run in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as c0

import cmadof.cli
import cmadof.ga
from cmadof.channel import effective_rank
from cmadof.cli import main
from cmadof.ga import PixelProblem, evaluate, link_report, phi_from_hex
from cmadof.mesh import PlateSpec, build_plate_mesh, mesh_from_json, mesh_from_text

FREQ = 27e9
PIX = 0.24 * c0 / FREQ
DATA = Path(__file__).parent / "data"

SMALL = """
tx_ports = 2
rx_ports = 2
tx_pixels_per_port = 2
rx_pixels_per_port = 2
separation = 0.01
n_keep = 8
"""


def write_config(tmp_path, extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(SMALL + extra)
    return str(path)


def run_cli(command, cfg_path, out_dir, *extra):
    return main([command, "--config", cfg_path, "--out", str(out_dir), *extra])


def small_problem(**kwargs):
    spec = PlateSpec(
        width=2 * PIX, height=2 * PIX, pixel_rows=2, pixel_cols=2, ports=2
    )
    args = dict(tx_spec=spec, rx_spec=spec, frequency=FREQ,
                separation=0.01, n_keep=8)
    args.update(kwargs)
    return PixelProblem(**args)


@pytest.fixture
def solve_modes_calls(monkeypatch):
    """Impedance shapes of every `solve_modes` call the GA module makes."""
    calls = []
    solve_modes = cmadof.ga.solve_modes

    def counting(op, n_keep=20):
        calls.append(op.z.shape)
        return solve_modes(op, n_keep)

    monkeypatch.setattr(cmadof.ga, "solve_modes", counting)
    return calls


class TestModesCommand:
    def test_artifacts_and_consistency(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("modes", cfg, out) == 0
        for name in ("modes.csv", "modal_significance.svg",
                     "modal_significance.csv", "run_meta.json"):
            assert (out / name).exists(), name
        lines = (out / "modes.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["mode", "eigenvalue", "significance"]
        assert header[3:] == ["v_mag_port0", "v_mag_port1"]
        sigs = []
        for row in lines[1:]:
            cells = row.split(",")
            lam = float(cells[1])
            sig = float(cells[2])
            assert sig == pytest.approx(1.0 / np.sqrt(1.0 + lam * lam), rel=1e-12)
            assert 0.0 < sig <= 1.0
            assert all(float(c) >= 0.0 for c in cells[3:])
            sigs.append(sig)
        assert all(a >= b for a, b in zip(sigs, sigs[1:]))

    def test_meta_records_command_and_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli("modes", cfg, out)
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "modes"
        assert meta["config"]["tx_ports"] == 2
        assert meta["config"]["out"] == str(out)
        assert "timestamp_utc" in meta


class TestDofCommand:
    def test_report_recomputes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("dof", cfg, out) == 0
        report = json.loads((out / "dof_report.json").read_text())
        h = np.array(report["h_singulars"])
        g = np.array(report["g_singulars"])
        gamma = report["gamma"]
        assert report["dof_h"] == effective_rank(h, gamma)
        assert report["dof_g_effective"] == effective_rank(g, gamma)
        assert report["dof_h"] <= report["port_mode_upper"]
        assert (out / "spectrum.svg").exists()
        assert (out / "spectrum.csv").exists()

    def test_matches_library_evaluation(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        run_cli("dof", cfg, out)
        report = json.loads((out / "dof_report.json").read_text())
        problem = small_problem()
        lib_report = link_report(problem, np.ones(8, dtype=np.uint8))
        assert report["dof_h"] == lib_report.dof_h
        np.testing.assert_allclose(
            report["h_singulars"], lib_report.h_singulars, rtol=1e-12
        )

    def test_analyzes_the_link_once(self, tmp_path, solve_modes_calls):
        assert run_cli("dof", write_config(tmp_path), tmp_path / "out") == 0
        # the transmit and receive plates share their parent and bits, so
        # one analysis serves both, and the score and the report
        assert len(solve_modes_calls) == 1

    def test_gamma_tightening_never_raises_dof(self, tmp_path):
        cfg = write_config(tmp_path)
        dofs = []
        for i, gamma in enumerate((0.3, 0.7)):
            out = tmp_path / f"out{i}"
            assert run_cli("dof", cfg, out, "--gamma", str(gamma)) == 0
            dofs.append(json.loads((out / "dof_report.json").read_text())["dof_h"])
        assert dofs[0] >= dofs[1]

    def test_reruns_identical_except_meta(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("dof", cfg, out1)
        run_cli("dof", cfg, out2)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            if name == "run_meta.json":
                m1 = json.loads(b1)
                m2 = json.loads(b2)
                m1.pop("timestamp_utc")
                m2.pop("timestamp_utc")
                # out directories differ by construction
                m1["config"].pop("out")
                m2["config"].pop("out")
                assert m1 == m2
            else:
                assert b1 == b2, name


class TestOptimizeCommand:
    GA = "generations = 2\npopulation = 4\nparents = 2\nseed = 5\n"

    def test_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, self.GA)
        out = tmp_path / "out"
        assert run_cli("optimize", cfg, out) == 0
        for name in ("ga_log.jsonl", "ga_checkpoint.json", "best_config.json",
                     "convergence.svg", "convergence.csv",
                     "spectrum_optimized.svg", "run_meta.json"):
            assert (out / name).exists(), name
        records = [json.loads(line)
                   for line in (out / "ga_log.jsonl").read_text().splitlines()]
        assert [r["generation"] for r in records] == [0, 1, 2]
        bests = [r["best_fitness"] for r in records]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

        best = json.loads((out / "best_config.json").read_text())
        assert best["fitness"] == records[-1]["best_fitness"]
        phi = phi_from_hex(best["phi_hex"], best["n_bits"])
        assert phi.shape == (8,)
        assert best["report"]["dof_h"] >= 1

    def test_best_config_matches_library(self, tmp_path):
        cfg = write_config(tmp_path, self.GA)
        out = tmp_path / "out"
        run_cli("optimize", cfg, out)
        best = json.loads((out / "best_config.json").read_text())
        problem = small_problem()
        phi = phi_from_hex(best["phi_hex"], best["n_bits"])
        fit = evaluate(problem, phi).fitness
        report = link_report(problem, phi)
        assert fit == pytest.approx(best["fitness"], rel=1e-12)
        assert report.dof_h == best["report"]["dof_h"]

    def test_reports_reuse_the_winners_analysis(self, tmp_path,
                                                solve_modes_calls):
        cfg = write_config(tmp_path, "generations = 0\npopulation = 2\n"
                                     "parents = 2\nseed = 1\n")
        out = tmp_path / "out"
        assert run_cli("optimize", cfg, out) == 0
        population = json.loads(
            (out / "ga_checkpoint.json").read_text())["population"]
        # seed 1 draws two configurations and the first evaluated one wins,
        # so the winner is not the latest evaluated link
        assert len({ind["phi_hex"] for ind in population}) == 2
        assert population[0]["fitness"] > population[1]["fitness"]
        # one transmit and one receive plate per configuration, none twice
        assert len(solve_modes_calls) == 2 * 2

    def test_resume_without_checkpoint_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, self.GA + "resume = true\n")
        out = tmp_path / "fresh"
        assert run_cli("optimize", cfg, out) == 2

    def test_resume_continues_from_checkpoint(self, tmp_path):
        cfg1 = write_config(tmp_path, self.GA, name="first.ini")
        out = tmp_path / "out"
        assert run_cli("optimize", cfg1, out) == 0
        history1 = [json.loads(line)["best_fitness"] for line in
                    (out / "ga_log.jsonl").read_text().splitlines()]
        cfg2 = write_config(
            tmp_path,
            "generations = 4\npopulation = 4\nparents = 2\nseed = 5\n"
            "resume = true\n",
            name="second.ini",
        )
        assert run_cli("optimize", cfg2, out) == 0
        records = [json.loads(line) for line in
                    (out / "ga_log.jsonl").read_text().splitlines()]
        assert records[-1]["generation"] == 4
        bests = [r["best_fitness"] for r in records]
        assert bests[: len(history1)] == history1
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    @pytest.mark.parametrize("spoil", [
        "population", "separation", "zero-filled", "truncated", "format-only",
        "directory",
    ])
    def test_refused_resume_is_config_error(self, tmp_path, capsys, spoil):
        cfg = write_config(tmp_path, self.GA, name="first.ini")
        out = tmp_path / "out"
        assert run_cli("optimize", cfg, out) == 0
        ck = out / "ga_checkpoint.json"
        text = SMALL + self.GA + "resume = true\n"
        if spoil == "population":
            text = text.replace("population = 4", "population = 6")
        elif spoil == "separation":
            text = text.replace("separation = 0.01", "separation = 0.02")
        elif spoil == "zero-filled":
            ck.write_bytes(bytes(len(ck.read_bytes())))
        elif spoil == "truncated":
            data = ck.read_bytes()
            ck.write_bytes(data[: len(data) // 2])
        elif spoil == "format-only":
            ck.write_text(json.dumps({"format": "cmadof-ga-checkpoint-v2"}))
        else:
            ck.unlink()
            ck.mkdir()
        second = tmp_path / "second.ini"
        second.write_text(text)
        capsys.readouterr()
        assert run_cli("optimize", str(second), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "checkpoint" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("record", ['[1]', '{}', '{"generation": "x"}'])
    def test_malformed_log_record_is_config_error(self, tmp_path, capsys,
                                                  record):
        cfg = write_config(tmp_path, self.GA, name="first.ini")
        out = tmp_path / "out"
        assert run_cli("optimize", cfg, out) == 0
        with open(out / "ga_log.jsonl", "a") as fh:
            fh.write(record + "\n")
        second = write_config(tmp_path, self.GA + "resume = true\n",
                              name="second.ini")
        capsys.readouterr()
        assert run_cli("optimize", second, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "log record" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("generations", [2, 3])
    @pytest.mark.parametrize("spoil", ["removed", "emptied"])
    def test_resume_without_log_records_is_config_error(
            self, tmp_path, capsys, spoil, generations):
        cfg = write_config(tmp_path, self.GA, name="first.ini")
        out = tmp_path / "out"
        assert run_cli("optimize", cfg, out) == 0
        log = out / "ga_log.jsonl"
        if spoil == "removed":
            log.unlink()
        else:
            log.write_bytes(b"")
        (out / "best_config.json").unlink()
        checkpoint = (out / "ga_checkpoint.json").read_bytes()
        second = write_config(
            tmp_path, self.GA.replace("generations = 2",
                                      f"generations = {generations}")
            + "resume = true\n", name="second.ini")
        capsys.readouterr()
        assert run_cli("optimize", second, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "GA log" in err
        assert err.count("\n") == 1
        assert not (out / "best_config.json").exists()
        assert (out / "ga_checkpoint.json").read_bytes() == checkpoint

    def test_resume_with_other_bit_count_is_config_error(self, tmp_path,
                                                         capsys):
        # the v1 checkpoint (no problem fingerprint) holds 8-bit
        # configurations of 2 x 2-pixel plates; these plates have 2 x 3
        out = tmp_path / "out"
        out.mkdir()
        (out / "ga_checkpoint.json").write_bytes(
            (DATA / "ga_checkpoint_v1.json").read_bytes())
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            SMALL.replace("pixels_per_port = 2", "pixels_per_port = 3")
            + "generations = 3\npopulation = 6\nparents = 4\n"
            "mutation_rate = 0.125\nresume = true\n")
        capsys.readouterr()
        assert run_cli("optimize", str(cfg), out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "12 bits" in err
        assert err.count("\n") == 1
        assert sorted(os.listdir(out)) == ["ga_checkpoint.json"]

    def test_jobs_key_changes_nothing(self, tmp_path):
        outs = []
        for jobs in (1, 2):
            cfg = write_config(tmp_path, self.GA + f"jobs = {jobs}\n",
                               name=f"jobs{jobs}.ini")
            outs.append(tmp_path / f"out{jobs}")
            assert run_cli("optimize", cfg, outs[-1]) == 0
        for name in ("ga_log.jsonl", "best_config.json", "ga_checkpoint.json"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name


#: the benchmark's small link (acceptance test 7's plates) for two
#: generations of its GA
GA_LINK = f"""
frequency = {FREQ!r}
pixel_size = {0.35 * c0 / FREQ!r}
separation = {c0 / FREQ!r}
n_keep = 10
tx_ports = 4
rx_ports = 4
tx_pixels_per_port = 8
rx_pixels_per_port = 8
population = 20
parents = 10
generations = 2
seed = 5
"""

#: where an optimize job writes, in order: one log record and one
#: checkpoint per generation, then the artifacts
WRITES = ("log-0", "checkpoint-0", "log-1", "checkpoint-1", "log-2",
          "checkpoint-2", "best_config.json", "convergence",
          "spectrum_optimized", "run_meta.json")
CRASHES = [(when, write) for write in WRITES for when in ("before", "after")]


class Crashed(Exception):
    """Stands for the process dying at one write boundary."""


def watch_writes(monkeypatch, crash=None):
    """Wrap each write of an optimize job: the GA log's `write` and
    `_write_checkpoint` in cmadof.ga, and the CLI's `write_atomic` and
    `write_plot`. Returns the list of the writes done, named as in WRITES;
    a job raises Crashed at `crash`, one of CRASHES."""
    done = []

    def around(fn, name):
        def wrapper(*args, **kwargs):
            write = name(*args)
            if crash == ("before", write):
                raise Crashed(crash)
            result = fn(*args, **kwargs)
            done.append(write)
            if crash == ("after", write):
                raise Crashed(crash)
            return result
        return wrapper

    def open_log(*args, **kwargs):
        fh = open(*args, **kwargs)
        # the run closes the file as the exception leaves, flushing it
        fh.write = around(fh.write,
                          lambda line: f"log-{json.loads(line)['generation']}")
        return fh

    monkeypatch.setattr(cmadof.ga, "open", open_log, raising=False)
    monkeypatch.setattr(cmadof.ga, "_write_checkpoint", around(
        cmadof.ga._write_checkpoint,
        lambda path, run, *_: f"checkpoint-{run.generation}"))
    for name in ("write_atomic", "write_plot"):
        monkeypatch.setattr(cmadof.cli, name, around(
            getattr(cmadof.cli, name), lambda path, _: os.path.basename(path)))
    return done


def torn_log_line(out, straight):
    """A log record cut off halfway by the crash."""
    line = (straight / "ga_log.jsonl").read_bytes().splitlines()[2]
    with open(out / "ga_log.jsonl", "ab") as fh:
        fh.write(line[:len(line) // 2])


def torn_checkpoint_tmp(out, straight):
    """A checkpoint cut off halfway in its temporary, beside a good one."""
    text = (straight / "ga_checkpoint.json").read_bytes()
    (out / "ga_checkpoint.json.tmp").write_bytes(text[:len(text) // 2])


def ga_link_config(tmp_path, extra="", name="run.ini"):
    path = tmp_path / name
    path.write_text(GA_LINK + extra)
    return str(path)


class TestCrashAtEveryWrite:
    """A crash at any write boundary of `optimize` after its first
    checkpoint resumes to a straight run's artifacts, byte for byte; one
    before it leaves nothing to resume from."""

    @pytest.fixture(scope="class")
    def straight(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("straight")
        out = root / "out"
        with pytest.MonkeyPatch.context() as patch:
            done = watch_writes(patch)
            assert run_cli("optimize", ga_link_config(root), out) == 0
        assert done == list(WRITES)
        return out

    @pytest.mark.parametrize("boundary, damage", [
        *((crash, None) for crash in CRASHES),
        (("before", "log-2"), torn_log_line),
        (("before", "checkpoint-2"), torn_checkpoint_tmp),
    ], ids=[*(f"{when}-{write}" for when, write in CRASHES),
            "torn-log-line", "torn-checkpoint-tmp"])
    def test_resume_matches_straight_run(self, tmp_path, monkeypatch,
                                         straight, boundary, damage):
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            watch_writes(patch, boundary)
            with pytest.raises(Crashed):
                run_cli("optimize", ga_link_config(tmp_path), out)
        if damage is not None:
            damage(out, straight)
        resume = ga_link_config(tmp_path, "resume = true\n", "resume.ini")
        if CRASHES.index(boundary) < CRASHES.index(("after", "checkpoint-0")):
            assert run_cli("optimize", resume, out) == 2
            return
        assert run_cli("optimize", resume, out) == 0
        names = sorted(p.name for p in straight.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name != "run_meta.json":
                assert (out / name).read_bytes() == \
                    (straight / name).read_bytes(), name


class TestSweepCommand:
    def test_single_point_matches_direct_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep_axis = separation\nsweep_values = 0.01\n"
            "random_count = 2\ngenerations = 1\npopulation = 4\nparents = 2\n",
        )
        out = tmp_path / "out"
        assert run_cli("sweep", cfg, out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("separation,")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[0]) == 0.01
        problem = small_problem()
        report = link_report(problem, np.ones(8, dtype=np.uint8))
        assert int(cells[1]) == report.dof_g_effective
        assert int(cells[2]) == report.dof_h
        assert int(cells[5]) == report.port_mode_upper
        assert int(cells[6]) == report.lower_bound

    def test_missing_axis_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli("sweep", cfg, tmp_path / "out") == 2

    def test_fractional_port_value_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep_axis = ports\nsweep_values = 2.5\n"
            "generations = 1\npopulation = 4\nparents = 2\n",
        )
        assert run_cli("sweep", cfg, tmp_path / "out") == 2


class TestExportMesh:
    def test_text_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("export-mesh", cfg, out) == 0
        mesh = mesh_from_text((out / "mesh.txt").read_text())
        spec = PlateSpec(
            width=2 * PIX, height=2 * PIX, pixel_rows=2, pixel_cols=2, ports=2
        )
        ref = build_plate_mesh(spec, np.ones(4, dtype=np.uint8))
        np.testing.assert_allclose(mesh.vertices, ref.vertices, rtol=1e-15)
        np.testing.assert_array_equal(mesh.faces, ref.faces)

    def test_json_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, "mesh_format = json\n")
        out = tmp_path / "out"
        assert run_cli("export-mesh", cfg, out) == 0
        mesh = mesh_from_json((out / "mesh.json").read_text())
        spec = PlateSpec(
            width=2 * PIX, height=2 * PIX, pixel_rows=2, pixel_cols=2, ports=2
        )
        ref = build_plate_mesh(spec, np.ones(4, dtype=np.uint8))
        np.testing.assert_allclose(mesh.vertices, ref.vertices, rtol=1e-15)
        np.testing.assert_array_equal(mesh.faces, ref.faces)


@pytest.mark.parametrize("command, extra", [
    ("modes", ""),
    ("dof", ""),
    ("optimize", TestOptimizeCommand.GA),
    ("sweep", "sweep_axis = gamma\nsweep_values = 0.5\nrandom_count = 2\n"
              "generations = 1\npopulation = 4\nparents = 2\n"),
    ("export-mesh", ""),
    ("export-mesh", "mesh_format = json\n"),
])
def test_rerun_into_same_directory_is_identical(tmp_path, command, extra):
    cfg = write_config(tmp_path, extra)
    out = tmp_path / "out"
    assert run_cli(command, cfg, out) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(command, cfg, out) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(second) == sorted(first)
    assert not [name for name in second if name.endswith(".tmp")]
    for name in first:
        if name != "run_meta.json":
            assert second[name] == first[name], name


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("frequencyy = 1\n")
        assert main(["dof", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main([
            "dof", "--config", str(tmp_path / "absent.ini"),
            "--out", str(tmp_path / "o"),
        ]) == 2

    def test_bad_geometry(self, tmp_path):
        cfg = tmp_path / "geom.ini"
        cfg.write_text(
            "tx_ports = 2\nrx_ports = 2\ntx_pixels_per_port = 2\n"
            "rx_pixels_per_port = 2\nseparation = -1.0\n"
        )
        assert run_cli("dof", str(cfg), tmp_path / "o") == 3

    def test_unknown_command_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_jobs_flag_rejected_by_argparse(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("dof", cfg, tmp_path / "o", "--jobs", "2")
        assert exc.value.code == 2


class TestStartUp:
    def test_import_loads_no_scipy(self):
        # pivoted QR, the package's only scipy use, is imported where a
        # rank-deficient branch needs it
        src = os.path.dirname(os.path.dirname(cmadof.ga.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, cmadof.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"
