"""Tests for the strict key=value run-configuration parser."""

import dataclasses
from pathlib import Path

import pytest
from scipy.constants import c as c0

from cmadof.config import _PARSERS, RunConfig, load_run_config, parse_config_file
from cmadof.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_no_file_gives_reference_operating_point(self):
        cfg = load_run_config()
        assert cfg.frequency == 27e9
        assert cfg.gamma == 0.5
        assert cfg.n_keep == 20
        assert cfg.separation == 0.3
        assert cfg.seed == 0
        assert cfg.jobs == 1
        assert cfg.tx_ports == 4 and cfg.rx_ports == 4
        assert cfg.tx_pixels_per_port == 8 and cfg.rx_pixels_per_port == 8
        assert cfg.tx_bits == "ones" and cfg.rx_bits == "ones"
        assert cfg.generations == 10
        assert cfg.population == 10
        assert cfg.parents == 6
        assert cfg.mutation_rate is None
        assert cfg.resume is False
        assert cfg.sweep_axis is None and cfg.sweep_values is None
        assert cfg.random_count == 5
        assert cfg.mesh_format == "text"

    def test_readme_table_states_the_defaults(self):
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        readme = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            keys, default, _ = (c.strip() for c in line.strip("|").split("|"))
            for key in keys.split(", "):
                readme[key] = None if default in ("auto", "none") \
                    else _PARSERS[key](default)
        defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert readme == defaults

    def test_pixel_size_auto_tracks_frequency(self):
        cfg = RunConfig()
        assert cfg.pixel_size is None
        assert cfg.effective_pixel_size() == pytest.approx(
            0.24 * c0 / 27e9, rel=1e-15
        )
        cfg2 = RunConfig(frequency=13.5e9)
        assert cfg2.effective_pixel_size() == pytest.approx(
            2 * cfg.effective_pixel_size(), rel=1e-12
        )
        cfg3 = RunConfig(pixel_size=0.004)
        assert cfg3.effective_pixel_size() == 0.004


class TestParsing:
    def test_full_file(self, tmp_path):
        path = write(
            tmp_path,
            """
            # reference run
            frequency = 13.5e9
            pixel_size = auto
            gamma = 0.4      # threshold
            n_keep = 12
            separation = 0.05
            seed = 0x10
            jobs = 2
            out = results
            tx_ports = 2
            rx_ports = 3
            tx_pixels_per_port = 4
            rx_pixels_per_port = 2
            tx_bits = 10110100
            rx_bits = zeros
            generations = 3
            population = 5
            parents = 4
            mutation_rate = 0.125
            resume = yes
            sweep_axis = separation
            sweep_values = 0.05, 0.1, 0.2
            random_count = 7
            mesh_format = json
            """,
        )
        cfg = load_run_config(path)
        assert cfg.frequency == 13.5e9
        assert cfg.pixel_size is None
        assert cfg.gamma == 0.4
        assert cfg.n_keep == 12
        assert cfg.seed == 16
        assert cfg.jobs == 2
        assert cfg.out == "results"
        assert cfg.tx_bits == "10110100"
        assert cfg.rx_bits == "zeros"
        assert cfg.mutation_rate == 0.125
        assert cfg.resume is True
        assert cfg.sweep_axis == "separation"
        assert cfg.sweep_values == (0.05, 0.1, 0.2)
        assert cfg.random_count == 7
        assert cfg.mesh_format == "json"

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = write(tmp_path, "\n\n# only a comment\n\ngamma = 0.6\n\n")
        assert parse_config_file(path) == {"gamma": 0.6}

    def test_unknown_key_points_at_line(self, tmp_path):
        path = write(tmp_path, "gamma = 0.5\nfrequencyy = 1e9\n")
        with pytest.raises(ConfigError, match=r"run\.ini:2: unknown key"):
            parse_config_file(path)

    def test_bad_value_points_at_line(self, tmp_path):
        path = write(tmp_path, "\nn_keep = many\n")
        with pytest.raises(ConfigError, match=r"run\.ini:2: bad value for 'n_keep'"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = write(tmp_path, "frequency 27e9\n")
        with pytest.raises(ConfigError, match=r"run\.ini:1: expected 'key = value'"):
            parse_config_file(path)

    def test_duplicate_key_names_first_line(self, tmp_path):
        path = write(tmp_path, "gamma = 0.5\nseed = 1\ngamma = 0.6\n")
        with pytest.raises(
            ConfigError, match=r"run\.ini:3: duplicate key 'gamma' \(first set on line 1\)"
        ):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "absent.ini")
        with pytest.raises(ConfigError, match="cannot read config file") as exc:
            parse_config_file(path)
        assert str(exc.value).count(path) == 1

    def test_bad_bits_string(self, tmp_path):
        path = write(tmp_path, "tx_bits = 01x1\n")
        with pytest.raises(ConfigError, match="0/1 string"):
            parse_config_file(path)

    def test_bad_choice(self, tmp_path):
        path = write(tmp_path, "mesh_format = csv\n")
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config_file(path)

    def test_empty_sweep_values(self, tmp_path):
        path = write(tmp_path, "sweep_values = ,\n")
        with pytest.raises(ConfigError, match="empty value list"):
            parse_config_file(path)

    def test_bad_boolean(self, tmp_path):
        path = write(tmp_path, "resume = maybe\n")
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config_file(path)


class TestValidation:
    @pytest.mark.parametrize(
        "text,msg",
        [
            ("frequency = -1e9", "frequency"),
            ("gamma = 1.0", "gamma"),
            ("gamma = 0", "gamma"),
            ("n_keep = 0", "n_keep"),
            ("pixel_size = -0.01", "pixel_size"),
            ("seed = -1", "seed"),
            ("jobs = 0", "jobs"),
            ("tx_ports = 0", "tx_ports"),
            ("rx_pixels_per_port = 0", "rx_pixels_per_port"),
            ("population = 1", "population"),
            ("parents = 3", "parents"),
            ("generations = -1", "generations"),
            ("mutation_rate = 1.5", "mutation_rate"),
            ("random_count = 0", "random_count"),
            ("sweep_axis = gamma", "together"),
            ("sweep_values = 1,2", "together"),
        ],
    )
    def test_rejects(self, tmp_path, text, msg):
        path = write(tmp_path, text + "\n")
        with pytest.raises(ConfigError, match=msg):
            load_run_config(path)

    def test_bits_length_must_match_plate(self, tmp_path):
        path = write(
            tmp_path, "tx_ports = 2\ntx_pixels_per_port = 3\ntx_bits = 10110\n"
        )
        with pytest.raises(ConfigError, match="tx_bits has 5 bits, plate needs 6"):
            load_run_config(path)

    def test_matching_bits_accepted(self, tmp_path):
        path = write(
            tmp_path, "tx_ports = 2\ntx_pixels_per_port = 3\ntx_bits = 101101\n"
        )
        cfg = load_run_config(path)
        assert cfg.tx_bits == "101101"


class TestOverrides:
    def test_overrides_beat_file(self, tmp_path):
        path = write(tmp_path, "gamma = 0.3\nseed = 9\n")
        cfg = load_run_config(path, overrides={"gamma": 0.7})
        assert cfg.gamma == 0.7
        assert cfg.seed == 9

    def test_none_overrides_skipped(self, tmp_path):
        path = write(tmp_path, "gamma = 0.3\n")
        cfg = load_run_config(path, overrides={"gamma": None, "seed": 4})
        assert cfg.gamma == 0.3
        assert cfg.seed == 4

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown override"):
            load_run_config(None, overrides={"gammma": 0.5})

    def test_overrides_still_validated(self):
        with pytest.raises(ConfigError, match="gamma"):
            load_run_config(None, overrides={"gamma": 2.0})
