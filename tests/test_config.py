import re
from argparse import Namespace

import pytest

from modespect import FixedCount, OptimalHardThreshold, Tolerance
from modespect.config import (
    ConfigError,
    RunConfig,
    parse_components,
    parse_grid,
    parse_policy,
    settings,
)


class TestPolicyParsing:
    def test_tolerance(self):
        assert parse_policy("tolerance:1e-10") == Tolerance(1e-10)

    def test_count(self):
        assert parse_policy("count:8") == FixedCount(8)

    def test_optimal(self):
        assert parse_policy("optimal") == OptimalHardThreshold()

    def test_none(self):
        assert parse_policy("none") is None

    def test_case_and_whitespace(self):
        assert parse_policy("  Optimal ") == OptimalHardThreshold()

    @pytest.mark.parametrize("bad", ["", "tolerance:", "count:x", "magic", "tolerance:2"])
    def test_invalid(self, bad):
        with pytest.raises((ConfigError, ValueError)):
            parse_policy(bad)


class TestGridParsing:
    def test_valid(self):
        grid = parse_grid("100:200:0.5")
        assert (grid.f_min, grid.f_max, grid.step) == (100.0, 200.0, 0.5)

    @pytest.mark.parametrize("bad", ["1:2", "a:b:c", "5:4:0.1", "1:2:0"])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)


class TestComponentParsing:
    def test_full_row(self):
        (c,) = parse_components(["1.5 2000 80 0.25"])
        assert (c.amplitude, c.frequency_hz, c.damping, c.phase_rad) == (
            1.5,
            2000.0,
            80.0,
            0.25,
        )

    def test_phase_optional(self):
        (c,) = parse_components(["1 100 5"])
        assert c.phase_rad == 0.0

    @pytest.mark.parametrize("bad", ["1 2", "1 2 3 4 5", "a b c", "-1 100 5"])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            parse_components([bad])


class TestRunConfig:
    def test_load_and_get(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[hodmd]\nd = 50\nspatial_policy = optimal\n"
            "[components]\nmode1 = 1 2000 80\nmode2 = 1 1800 100\n"
        )
        cfg = RunConfig.load(str(path))
        assert cfg.sections["hodmd"] == {"d": "50", "spatial_policy": "optimal"}
        assert len(cfg.component_entries()) == 2

    def test_no_file_is_empty(self):
        cfg = RunConfig.load(None)
        assert cfg.sections == {}

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("not an ini file [ [")
        with pytest.raises(ConfigError):
            RunConfig.load(str(path))

    def test_settings_precedence(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[hodmd]\nd = 50\n")
        cfg = RunConfig.load(str(path))
        assert settings(Namespace(d="7"), cfg, "hodmd") == {"d": 7}  # flag wins
        assert settings(Namespace(d=None), cfg, "hodmd") == {"d": 50}  # file next
        assert settings(Namespace(), RunConfig.load(None), "hodmd") == {}  # absent

    @pytest.mark.parametrize(
        "flag, ini, where",
        [("fifty", "", "--d = 'fifty'"), (None, "d = fifty\n", "[hodmd] d = 'fifty'")],
        ids=["flag", "file"],
    )
    def test_settings_bad_value(self, tmp_path, flag, ini, where):
        path = tmp_path / "run.ini"
        path.write_text("[hodmd]\n" + ini)
        with pytest.raises(ConfigError, match=re.escape(where)):
            settings(Namespace(d=flag), RunConfig.load(str(path)), "hodmd")
