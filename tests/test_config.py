"""Configuration ingestion: conversions, validation, round trip, hashing."""

import json
import math

import pytest

from aoci.config import ConfigError, LinkConfig, load_config


class TestIngestion:
    def test_si_conversion(self, baseline_cfg):
        assert baseline_cfg.source.power_tx == pytest.approx(0.040)
        assert baseline_cfg.source.lam == pytest.approx(594e-9)
        assert baseline_cfg.skin.delta == pytest.approx(6e-3)
        assert baseline_cfg.skin.mu_a == pytest.approx(100.0)  # 0.1/mm -> 100/m
        assert baseline_cfg.beam.theta == pytest.approx(math.radians(20.0))
        assert baseline_cfg.coupling.lam == baseline_cfg.source.lam
        assert baseline_cfg.mpe_skin == pytest.approx(500e3)  # 500 mW/mm^2 in W/m^2
        assert baseline_cfg.skin_spot_radius == pytest.approx(1.066e-3)

    def test_defaults_applied(self, baseline_cfg):
        assert baseline_cfg.series_ctl.rel_tol == 1e-10
        assert baseline_cfg.quad_ctl.max_subdivisions == 2000

    def test_numerics_override(self, baseline_doc):
        baseline_doc["numerics"] = {"series": {"rel_tol": 1e-8}}
        cfg = LinkConfig.from_dict(baseline_doc)
        assert cfg.series_ctl.rel_tol == 1e-8

    def test_damage_threshold_null_means_disabled(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = None
        cfg = LinkConfig.from_dict(baseline_doc)
        assert math.isinf(cfg.neural.d_th)

    def test_file_roundtrip(self, baseline_doc, tmp_path):
        path = tmp_path / "link.json"
        path.write_text(json.dumps(baseline_doc))
        cfg = load_config(path)
        assert cfg == LinkConfig.from_dict(baseline_doc)


class TestValidation:
    @pytest.mark.parametrize(
        "path,value",
        [
            ("beam.sigma_s_mm", -0.1),
            ("beam.theta_deg", 0.0),
            ("coupling.omega0_mm", 0.0),
            ("neural.tau_s", 0.0),
            ("source.power_mw", -1.0),
            ("fiber.fbg_fraction_lost", 1.0),
        ],
    )
    def test_bad_values_rejected_with_path(self, baseline_doc, path, value):
        section, key = path.split(".")
        baseline_doc[section][key] = value
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert section in str(err.value)

    def test_thresholds_must_order(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = 1.0
        with pytest.raises(ConfigError):
            LinkConfig.from_dict(baseline_doc)

    def test_missing_section(self, baseline_doc):
        del baseline_doc["mem"]
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert "mem" in str(err.value)

    def test_unknown_field_rejected(self, baseline_doc):
        baseline_doc["beam"]["sigmas_mm"] = 0.1  # typo
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert "sigmas_mm" in str(err.value)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestRoundTrip:
    def test_dict_round_trip_identical(self, baseline_cfg):
        again = LinkConfig.from_dict(baseline_cfg.to_dict())
        assert again == baseline_cfg
        assert again.config_hash() == baseline_cfg.config_hash()

    def test_json_round_trip_identical(self, baseline_cfg):
        again = LinkConfig.from_dict(json.loads(baseline_cfg.to_json()))
        assert again == baseline_cfg

    def test_hash_sensitive_to_values(self, baseline_cfg):
        other = baseline_cfg.with_value("beam.sigma_s_mm", 0.2)
        assert other.config_hash() != baseline_cfg.config_hash()

    def test_hash_deterministic(self, baseline_doc):
        a = LinkConfig.from_dict(baseline_doc).config_hash()
        b = LinkConfig.from_dict(baseline_doc).config_hash()
        assert a == b


class TestMutation:
    def test_with_value(self, baseline_cfg):
        other = baseline_cfg.with_value("skin.delta_mm", 8.0)
        assert other.skin.delta == pytest.approx(8e-3)
        assert baseline_cfg.skin.delta == pytest.approx(6e-3)  # original untouched

    def test_with_value_shares_no_mutable_node(self, baseline_cfg):
        before = baseline_cfg.config_hash()
        other = baseline_cfg.with_value("skin.delta_mm", 8.0)

        def nodes(doc):
            yield doc
            for value in doc.values():
                if isinstance(value, dict):
                    yield from nodes(value)

        assert not {id(node) for node in nodes(baseline_cfg.raw)} & {
            id(node) for node in nodes(other.raw)}
        assert baseline_cfg.config_hash() == before
        doc = baseline_cfg.to_dict()
        doc["skin"]["delta_mm"] = 8.0
        assert other.config_hash() == LinkConfig.from_dict(doc).config_hash()

    def test_with_value_sets_several_paths_before_validating(self, baseline_cfg):
        # y_th above the old d_th is valid only together with the new d_th.
        other = baseline_cfg.with_value(
            {"neural.y_th_photons": 1.6e17, "neural.d_th_photons": 3.2e17})
        assert (other.neural.y_th, other.neural.d_th) == (1.6e17, 3.2e17)
        with pytest.raises(ConfigError, match="neural.nope"):
            baseline_cfg.with_value({"neural.y_th_photons": 1.0, "neural.nope": 1.0})

    def test_with_value_revalidates(self, baseline_cfg):
        with pytest.raises(ConfigError):
            baseline_cfg.with_value("beam.sigma_s_mm", -1.0)

    def test_with_value_unknown_path(self, baseline_cfg):
        with pytest.raises(ConfigError):
            baseline_cfg.with_value("beam.nope_mm", 1.0)

    def test_resolve(self, baseline_cfg):
        assert baseline_cfg.resolve("beam.sigma_s_mm") == 0.1
        with pytest.raises(ConfigError):
            baseline_cfg.resolve("beam.nope")
