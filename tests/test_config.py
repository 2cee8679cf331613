"""Configuration ingestion: conversions, validation, round trip, hashing."""

import dataclasses
import hashlib
import json
import math
import sys
import threading

import pytest

from aoci import config, photometry
from aoci.config import ConfigError, LinkConfig, load_config
from aoci.figures import load_preset, preset_path
from aoci.sweep import SweepAxis, SweepSpec, run_sweep

PRESETS = sorted(path.stem for path in preset_path("default.json").parent.glob("*.json"))


def _numeric_leaves(node, prefix=""):
    """Dotted paths of the numeric (or null) leaves of a raw config document."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{prefix}{key}.")
        elif value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
            yield f"{prefix}{key}"


def _edited(cfg, paths):
    """``paths`` written into a copy of the raw document of ``cfg``."""
    doc = cfg.to_dict()
    for dotted, value in paths.items():
        *parents, leaf = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[leaf] = value
    return doc


def _outcome(build):
    """The config ``build`` returns, or the type and message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_as_from_dict(cfg, paths):
    """``cfg.with_value(paths)`` is ``from_dict`` of the edited document: equal fields,
    equal raw document and the hash of its canonical JSON, or the same error."""
    got = _outcome(lambda: cfg.with_value(paths))
    want = _outcome(lambda: LinkConfig.from_dict(_edited(cfg, paths)))
    if not isinstance(want, LinkConfig):
        assert got == want, paths
        return
    assert isinstance(got, LinkConfig), (paths, got)
    assert got == want and got.raw == want.raw, paths
    canonical = json.dumps(want.raw, sort_keys=True, separators=(",", ":"))
    assert got.config_hash() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    assert got.config_hash() == want.config_hash()


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

    @pytest.mark.parametrize("key", ["skin_mw_per_mm2", "neuron_mw_per_mm2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "x", None, True])
    def test_mpe_limits_are_finite_numbers(self, baseline_doc, key, value):
        baseline_doc["mpe"] = {key: value}
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert "config.mpe" in str(err.value)

    @pytest.mark.parametrize("path,value", [
        ("fiber.n_fbg", 1.5),
        ("numerics.series.max_terms_per_index", 400.5),
        ("numerics.quad.max_subdivisions", 2000.5),
    ])
    def test_count_fields_are_integers(self, baseline_doc, path, value):
        baseline_doc["numerics"] = {"series": {}, "quad": {}}
        cfg = LinkConfig.from_dict(baseline_doc)
        with pytest.raises(ConfigError, match=rf"^config\.{path}: expected an integer"):
            LinkConfig.from_dict(_edited(cfg, {path: value}))
        whole = LinkConfig.from_dict(_edited(cfg, {path: float(round(value))}))
        count = {"fiber.n_fbg": whole.fiber.n_fbg,
                 "numerics.series.max_terms_per_index": whole.series_ctl.max_terms_per_index,
                 "numerics.quad.max_subdivisions": whole.quad_ctl.max_subdivisions}[path]
        assert type(count) is int and count == round(value)

    @pytest.mark.parametrize("numerics,message", [
        ({"series": {"max_terms": 500}}, "config.numerics.series.max_terms: unknown field"),
        ({"quad": "fast"}, "config.numerics.quad: expected an object"),
        ({"quad": {"tail_cutoff_sigmas": math.inf}},
         "config.numerics.quad.tail_cutoff_sigmas: expected a finite number, got inf"),
        ({"series": {"rel_tol": None}},
         "config.numerics.series.rel_tol: expected a number, got None"),
    ])
    def test_numerics_refusals_name_the_field(self, baseline_doc, numerics, message):
        baseline_doc["numerics"] = numerics
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert str(err.value) == message

    def test_an_integer_beyond_the_float_range_is_refused(self, baseline_doc):
        baseline_doc["skin"]["delta_mm"] = 10**400
        with pytest.raises(ConfigError, match=r"^config\.skin\.delta_mm: expected a finite"):
            LinkConfig.from_dict(baseline_doc)

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
        again = LinkConfig.from_dict(json.loads(json.dumps(baseline_cfg.to_dict())))
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

    def test_with_value_keeps_the_class_and_its_init(self, baseline_doc):
        class Sub(LinkConfig):
            pass

        other = Sub.from_dict(baseline_doc).with_value("beam.sigma_s_mm", 0.2)
        assert type(other) is Sub and other.beam.sigma_s == pytest.approx(2e-4)

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

    def test_null_damage_threshold_can_be_swept(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = None
        cfg = LinkConfig.from_dict(baseline_doc)
        assert cfg.resolve("neural.d_th_photons") == math.inf
        assert cfg.with_value("neural.d_th_photons", 8e16).neural.d_th == 8e16
        spec = SweepSpec(axis1=SweepAxis("neural.d_th_photons", (8e16, 1.6e17)), axis2=None,
                         metric="p_damage", method="mc", mc_n=10_000, mc_seed=3)
        result = run_sweep(cfg, spec)
        errors = [row[result.columns.index("error")] for row in result.rows]
        assert errors == ["", ""]


class TestSectionPatches:
    """``with_value`` takes a touched key's fragment and fields from a memo of section
    patches; no hit may hand one point's value to another or skip a refusal."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        config._patches.clear()  # each case starts from no patches

    @pytest.mark.parametrize("first,then", [(6, 6.0), (6.0, 6), (-0.0, 0.0), (0.0, -0.0)])
    def test_equal_values_of_other_spelling_hash_apart(self, baseline_cfg, first, then):
        baseline_cfg.with_value("source.power_mw", first)
        got = baseline_cfg.with_value("source.power_mw", then)
        want = LinkConfig.from_dict(_edited(baseline_cfg, {"source.power_mw": then}))
        assert got.config_hash() == want.config_hash()
        assert json.dumps(got.raw["source"]["power_mw"]) == json.dumps(then)

    def test_a_bool_stays_refused_after_its_int_is_accepted(self, baseline_cfg):
        assert baseline_cfg.with_value("fiber.n_fbg", 1).fiber.n_fbg == 1
        with pytest.raises(ConfigError, match=r"^config\.fiber\.n_fbg: expected a number"):
            baseline_cfg.with_value("fiber.n_fbg", True)

    @pytest.mark.filterwarnings("ignore:wavelength:UserWarning")
    @pytest.mark.parametrize("path,value", [("beam.sigma_s_mm", -1.0),
                                            ("source.lambda_nm", 1e300)])
    def test_a_refused_value_is_refused_on_every_call(self, baseline_cfg, path, value):
        # The wavelength's sections are valid and memoized; its channel state is not.
        messages = set()
        for _ in range(3):
            with pytest.raises(ConfigError) as err:
                baseline_cfg.with_value(path, value)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_mutating_raw_or_to_dict_changes_neither_hash_nor_with_value(self, baseline_cfg):
        want = baseline_cfg.with_value("beam.sigma_s_mm", 0.2).config_hash()
        before = baseline_cfg.config_hash()
        for doc in (baseline_cfg.raw, baseline_cfg.to_dict()):
            doc["beam"]["sigma_s_mm"] = 0.3
            doc["skin"]["delta_mm"] = 9.0
            assert baseline_cfg.config_hash() == before
            assert baseline_cfg.with_value("beam.sigma_s_mm", 0.2).config_hash() == want
        assert baseline_cfg.to_dict()["skin"]["delta_mm"] == 6.0

    def test_concurrent_points_get_their_own_patches(self, baseline_cfg, monkeypatch):
        # A small memo, emptied often, under many threads and a short switch interval.
        monkeypatch.setattr(config, "SECTION_PATCHES", 4)
        values = [0.05 + 0.01 * i for i in range(12)]
        want = {v: LinkConfig.from_dict(_edited(baseline_cfg, {"beam.sigma_s_mm": v}))
                .config_hash() for v in values}
        wrong = []

        def work(offset):
            try:
                for i in range(60):
                    v = values[(offset + i) % len(values)]
                    if baseline_cfg.with_value("beam.sigma_s_mm", v).config_hash() != want[v]:
                        wrong.append(v)
            except Exception as exc:  # reported by the assertion below, not lost in the thread
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_the_memo_is_bounded(self, baseline_cfg):
        sizes = set()
        for i in range(config.SECTION_PATCHES + 10):
            baseline_cfg.with_value("beam.sigma_s_mm", 0.1 + i * 1e-4)
            sizes.add(len(config._patches))
        assert max(sizes) == config.SECTION_PATCHES


@pytest.mark.filterwarnings("ignore::UserWarning")  # study-range notices
@pytest.mark.parametrize("path,field", [
    ("beam.beta_mm", "config.beam.beta_mm"),  # beam_stats: w_eq overflows
    ("skin.delta_mm", "config.skin.delta_mm"),  # the same, from the other section
    ("source.lambda_nm", "config.source.lambda_nm"),  # a = 0 and lambda / (h c) = inf
])
def test_a_config_with_no_finite_channel_state_is_refused(baseline_doc, path, field):
    section, key = path.split(".")
    baseline_doc[section][key] = 1e300
    with pytest.raises(ConfigError) as err:
        LinkConfig.from_dict(baseline_doc)
    assert field in str(err.value).partition(": ")[0]


@pytest.mark.filterwarnings("ignore::UserWarning")  # study-range notices
@pytest.mark.parametrize("path,cause,not_cause", [
    ("beam.beta_mm", "the aperture is far wider than the beam", "w_delta="),
    ("skin.delta_mm", "the beam radius w_delta=1.76e+296 m is far too wide", "aperture"),
])
def test_an_overflowing_beamwidth_names_its_cause(baseline_doc, path, cause, not_cause):
    section, key = path.split(".")
    baseline_doc[section][key] = 1e300
    with pytest.raises(ConfigError) as err:
        LinkConfig.from_dict(baseline_doc)
    message = str(err.value).partition(": ")[2]
    assert message.startswith("equivalent beamwidth overflows")
    assert cause in message and not_cause not in message


@pytest.mark.filterwarnings("ignore:wavelength:UserWarning")
class TestWithValueEqualsFromDict:
    """``with_value`` rebuilds only the sections it touches; the result must be the
    config that ``from_dict`` builds from the edited document, for every leaf."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_numeric_leaf_of_every_preset(self, name):
        cfg = load_preset(name)
        leaves = list(_numeric_leaves(cfg.raw))
        assert {"source.lambda_nm", "mpe.skin_mw_per_mm2", "skin_spot_radius_mm"} <= set(leaves)
        for path in leaves:
            old = cfg.resolve(path)
            for value in (old * 1.25, old * 0.5, 0.0, -1.0, "x"):
                _assert_same_as_from_dict(cfg, {path: value})

    def test_numerics_leaves(self, baseline_doc):
        baseline_doc["numerics"] = {
            "series": {"rel_tol": 1e-9, "abs_tol": 1e-300, "max_terms_per_index": 300},
            "quad": {"rel_tol": 1e-8, "abs_tol": 1e-300, "max_subdivisions": 500,
                     "tail_cutoff_sigmas": 9.0},
        }
        cfg = LinkConfig.from_dict(baseline_doc)
        leaves = [path for path in _numeric_leaves(cfg.raw) if path.startswith("numerics.")]
        assert len(leaves) == 7
        for path in leaves:
            old = cfg.resolve(path)
            for value in (old * 2, 5, 0.0, -1.0, "x"):
                _assert_same_as_from_dict(cfg, {path: value})

    def test_wavelength_carries_into_the_coupling(self, baseline_cfg):
        other = baseline_cfg.with_value("source.lambda_nm", 650.0)
        assert other.coupling.lam == other.source.lam == pytest.approx(650e-9)
        _assert_same_as_from_dict(baseline_cfg, {"source.lambda_nm": 650.0})
        # A valid source whose wavelength overflows the coupling argument: only the
        # coupling rebuild refuses it, as from_dict does.
        _assert_same_as_from_dict(baseline_cfg, {"source.lambda_nm": 1e-200})

    @pytest.mark.parametrize("paths", [
        {"skin.delta_mm": 8.0, "beam.sigma_s_mm": 0.3},
        {"source.lambda_nm": 500.0, "coupling.omega0_mm": 0.2},
        {"neural.y_th_photons": 1.0, "mpe.skin_mw_per_mm2": -1.0},
        {"skin_spot_radius_mm": 0.0, "beam.theta_deg": 0.0},
    ])
    def test_two_paths_across_two_sections(self, paths):
        _assert_same_as_from_dict(load_preset("default"), paths)


# Each preset with an explicit numerics section: every leaf of both is a number read
# from outside, set in turn to each value below.
NUMERICS = {
    "series": {"rel_tol": 1e-10, "abs_tol": 1e-300, "max_terms_per_index": 400},
    "quad": {"rel_tol": 1e-9, "abs_tol": 1e-300, "max_subdivisions": 2000,
             "tail_cutoff_sigmas": 10.0},
}
FUZZ_VALUES = ["x", None, True, math.nan, math.inf, -math.inf, -1, 0, 1e300, [], {}]


def _fuzz_cases():
    for name in PRESETS:
        doc = {**load_preset(name).to_dict(), "numerics": NUMERICS}
        for path in _numeric_leaves(doc):
            for value in FUZZ_VALUES:
                yield pytest.param(name, path, value, id=f"{name}-{path}-{value!r}")


@pytest.mark.filterwarnings("ignore::UserWarning")  # study-range notices
@pytest.mark.parametrize("name,path,value", list(_fuzz_cases()))
def test_a_number_from_outside_is_finite_or_refused(name, path, value):
    """Every leaf of every preset, set to each fuzz value: the result is a ConfigError or
    a config whose numbers and derived state are finite (but a null damage threshold)
    and whose counts are ints; ``with_value`` gives what ``from_dict`` gives."""
    cfg = LinkConfig.from_dict({**load_preset(name).to_dict(), "numerics": NUMERICS})
    _assert_same_as_from_dict(cfg, {path: value})
    try:
        cfg = cfg.with_value(path, value)
    except ConfigError:
        return
    numbers = list(dataclasses.astuple(photometry.derive_state(cfg)))
    numbers += [cfg.mpe_skin, cfg.mpe_neuron, cfg.skin_spot_radius]
    null_d_th = cfg.raw["neural"]["d_th_photons"] is None
    for part in ("source", "skin", "beam", "mem", "coupling", "fiber", "neural",
                 "series_ctl", "quad_ctl"):
        numbers += [getattr(getattr(cfg, part), f.name)
                    for f in dataclasses.fields(getattr(cfg, part))
                    if not (f.name == "d_th" and null_d_th)]
    assert all(math.isfinite(v) for v in numbers), numbers
    counts = (cfg.fiber.n_fbg, cfg.series_ctl.max_terms_per_index,
              cfg.quad_ctl.max_subdivisions)
    assert all(type(count) is int for count in counts), counts
