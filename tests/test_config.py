"""Configuration ingestion: conversions, validation, round trip, hashing."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import sys
import threading

import pytest

from aoci import config, photometry
from aoci.config import ConfigError, LinkConfig
from aoci.figures import (DELTA_CURVES_MM, FIGURES, POWER_GRID_FIG8_MW, load_preset,
                          preset_path)
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
    assert got == want and got.to_dict() == want.to_dict(), paths
    canonical = json.dumps(want.to_dict(), sort_keys=True, separators=(",", ":"))
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

    def test_damage_threshold_null_means_disabled(self, baseline_doc):
        baseline_doc["neural"]["d_th_photons"] = None
        cfg = LinkConfig.from_dict(baseline_doc)
        assert math.isinf(cfg.neural.d_th)

    def test_file_roundtrip(self, baseline_doc, tmp_path):
        path = tmp_path / "link.json"
        path.write_text(json.dumps(baseline_doc))
        cfg = LinkConfig.from_file(path)
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
    ])
    def test_count_fields_are_integers(self, baseline_cfg, path, value):
        with pytest.raises(ConfigError, match=rf"^config\.{path}: expected an integer"):
            LinkConfig.from_dict(_edited(baseline_cfg, {path: value}))
        whole = LinkConfig.from_dict(_edited(baseline_cfg, {path: float(round(value))}))
        assert type(whole.fiber.n_fbg) is int and whole.fiber.n_fbg == round(value)

    @pytest.mark.parametrize("numerics", [
        {}, {"series": {"rel_tol": 1e-8}}, {"series": {"max_terms": 500}}, {"quad": "fast"},
        {"quad": {"tail_cutoff_sigmas": math.inf}}, {"series": {"rel_tol": None}},
    ])
    def test_a_numerics_section_is_an_unknown_field(self, baseline_doc, numerics):
        # Solver tolerances are specfun's constants, not part of a link document: the
        # section is refused whole, before any of its contents is read.
        baseline_doc["numerics"] = numerics
        with pytest.raises(ConfigError) as err:
            LinkConfig.from_dict(baseline_doc)
        assert str(err.value) == "config.numerics: unknown field"

    @pytest.mark.parametrize("kind,why", [
        ("directory", "cannot read"), ("not-utf-8", "cannot read"),
        ("not-json", "invalid JSON in"),
    ])
    def test_from_file_refuses_what_is_not_a_json_document(self, tmp_path, kind, why):
        path = tmp_path / "link.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"skin": "\xe9"}' if kind == "not-utf-8" else b'{"skin": ')
        with pytest.raises(ConfigError, match=rf"^config: {why} {re.escape(str(path))}: "):
            LinkConfig.from_file(path)

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
            LinkConfig.from_file(path)


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

        assert other._fragments is not baseline_cfg._fragments
        assert all(type(text) is str for text in other._fragments.values())  # immutable
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
        assert json.dumps(got.to_dict()["source"]["power_mw"]) == json.dumps(then)

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

    def test_mutating_a_handed_out_dict_changes_no_hash_resolve_or_with_value(
            self, baseline_cfg):
        # Every dict the config hands out (to_dict, and any public attribute) is the
        # caller's own: editing it moves no hash, no resolve and no with_value, whether
        # its patch is a memo hit or a miss checked against the document.
        want = baseline_cfg.with_value("beam.sigma_s_mm", 0.2).config_hash()
        before = baseline_cfg.config_hash()
        public = [getattr(baseline_cfg, name) for name in dir(baseline_cfg)
                  if not name.startswith("_")]
        for doc in [baseline_cfg.to_dict(), *(v for v in public if isinstance(v, dict))]:
            doc["beam"]["sigma_s_mm"] = 9.0
            del doc["skin"]["delta_mm"]
            assert baseline_cfg.config_hash() == before
            assert baseline_cfg.resolve("beam.sigma_s_mm") == 0.1
            assert baseline_cfg.with_value("beam.sigma_s_mm", 0.2).config_hash() == want
            config._patches.clear()
            assert baseline_cfg.with_value("skin.delta_mm", 7.0).skin.delta == 7.0 * 1e-3
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


def _bits(state):
    return tuple(float(v).hex() for v in dataclasses.astuple(state))


class TestStateMemo:
    """A config's checked state comes from a memo keyed by the values ``derive_state``
    reads; a hit must be bitwise the state a fresh derivation gives."""

    @pytest.fixture()
    def derived(self, monkeypatch):
        config._states.clear()  # each case starts from no states
        calls = []

        def derive_state(cfg):
            calls.append(cfg)
            return fresh(cfg)

        fresh = photometry.derive_state
        monkeypatch.setattr(photometry, "derive_state", derive_state)
        return calls

    def test_the_figure8_grid_derives_one_state_per_skin_thickness(self, derived):
        base = load_preset("default")
        config._states.clear()
        for want in (len(DELTA_CURVES_MM), 0):  # cold, then warm
            derived.clear()
            cfgs = [base.with_value({"source.power_mw": p, "skin.delta_mm": d})
                    for d in DELTA_CURVES_MM for p in POWER_GRID_FIG8_MW]
            assert len(derived) == want
        for cfg in cfgs:
            assert _bits(cfg.state) == _bits(photometry.derive_state(cfg))

    def test_a_divergence_change_is_a_new_entry(self, derived, baseline_cfg):
        before = len(config._states)
        sigma = baseline_cfg.with_value("beam.sigma_s_mm", 0.3)  # shares the state
        theta = baseline_cfg.with_value("beam.theta_deg", 21.0)
        assert sigma.state is baseline_cfg.state and theta.state is not baseline_cfg.state
        assert len(config._states) == before + 1 and derived[-1] is theta

    @pytest.mark.parametrize("path", ["skin.mu_a_per_mm", "skin.mu_s_per_mm", "mem.d_in_mm",
                                      "fiber.bend_db_per_90deg", "fiber.n_quarter_turns",
                                      "fiber.fbg_fraction_lost"])
    @pytest.mark.parametrize("first,then", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_share_a_bitwise_equal_state(self, derived, baseline_cfg, path,
                                                      first, then):
        before = len(derived)
        a = baseline_cfg.with_value(path, first)
        b = baseline_cfg.with_value(path, then)
        assert len(derived) == before + 1 and b.state is a.state
        for cfg in (a, b):
            assert _bits(cfg.state) == _bits(photometry.derive_state(cfg))

    def test_concurrent_points_get_their_own_states(self, baseline_cfg, monkeypatch):
        # A small memo, emptied often, under many threads and a short switch interval.
        monkeypatch.setattr(config, "CHANNEL_STATES", 4)
        values = [5.0 + 0.1 * i for i in range(12)]
        want = {v: _bits(photometry.derive_state(baseline_cfg.with_value("skin.delta_mm", v)))
                for v in values}
        wrong = []

        def work(offset):
            try:
                for i in range(60):
                    v = values[(offset + i) % len(values)]
                    if _bits(baseline_cfg.with_value("skin.delta_mm", v).state) != want[v]:
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

    def test_a_refusal_is_not_kept_and_the_memo_is_bounded(self, derived, baseline_cfg):
        before = len(derived), len(config._states)
        for _ in range(2):
            with pytest.raises(ConfigError):
                baseline_cfg.with_value("beam.beta_mm", 1e300)
        assert (len(derived), len(config._states)) == (before[0] + 2, before[1])
        sizes = set()
        for i in range(config.CHANNEL_STATES + 10):
            baseline_cfg.with_value("skin.delta_mm", 5.0 + i * 1e-3)
            sizes.add(len(config._states))
        assert max(sizes) == config.CHANNEL_STATES


class TestSweepPointsEqualFromDict:
    """``with_value`` reads the memo of section patches before it parses a fragment: a point
    built from hits or from misses is the config ``from_dict`` builds, and a path that
    does not exist is refused before anything is built or memoized."""

    @pytest.mark.parametrize("number", [3, 4, 5, 6, 7, 8])
    def test_every_figure_grid_point_cold_and_warm(self, number):
        fig, base = FIGURES[number], load_preset(f"fig{number}")
        points = [{fig.axis1.path: x, fig.axis2.path: y}
                  for y in fig.axis2.values for x in fig.axis1.values]
        want = [LinkConfig.from_dict(_edited(base, paths)) for paths in points]
        for warm in (False, True):
            for paths, expected in zip(points, want):
                if not warm:
                    config._patches.clear()
                    config._states.clear()
                got = base.with_value(paths)
                assert type(got) is LinkConfig and got == expected, paths
                assert list(got._fragments.items()) == list(expected._fragments.items())
                assert got.to_dict() == expected.to_dict()
                assert got.config_hash() == expected.config_hash()
                assert _bits(got.state) == _bits(expected.state)
                assert _bits(got.state) == _bits(photometry.derive_state(got))

    @pytest.mark.parametrize("unknown", ["beam.nope_mm", "skin.nope", "nope.x",
                                         "skin.delta_mm.x", "mpe.skin_mw_per_mm2"])
    def test_an_unknown_path_beside_memo_hits_is_refused_before_any_build(
            self, baseline_cfg, monkeypatch, unknown):
        hits = {"skin.delta_mm": 6.5, "source.power_mw": 20.0}
        baseline_cfg.with_value(hits)  # both patches and the state are memoized now
        patches, states = dict(config._patches), dict(config._states)

        def build(*args):
            raise AssertionError(f"built {args[0]!r}")

        monkeypatch.setattr(config, "_patch", build)
        monkeypatch.setattr(config, "_checked_state", build)
        message = rf"^config\.{re.escape(unknown)}: no such field$"
        for paths in ({**hits, unknown: 1.0}, {unknown: 1.0, **hits}):
            with pytest.raises(ConfigError, match=message):
                baseline_cfg.with_value(paths)
        assert config._patches == patches and config._states == states


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
        leaves = list(_numeric_leaves(cfg.to_dict()))
        assert {"source.lambda_nm", "mpe.skin_mw_per_mm2", "skin_spot_radius_mm"} <= set(leaves)
        for path in leaves:
            old = cfg.resolve(path)
            for value in (old * 1.25, old * 0.5, 0.0, -1.0, "x"):
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


# Every leaf of each preset, and of the numerics section (solver tolerances) a document
# could once carry, is a number read from outside, set in turn to each value below.
NUMERICS = {
    "series": {"rel_tol": 1e-10, "abs_tol": 1e-300, "max_terms_per_index": 400},
    "quad": {"rel_tol": 1e-9, "abs_tol": 1e-300, "max_subdivisions": 2000,
             "tail_cutoff_sigmas": 10.0},
}
FUZZ_VALUES = ["x", None, True, math.nan, math.inf, -math.inf, -1, 0, 1e300, [], {}]


def _fuzz_cases():
    for name in PRESETS:
        for path in _numeric_leaves({**load_preset(name).to_dict(), "numerics": NUMERICS}):
            for value in FUZZ_VALUES:
                yield pytest.param(name, path, value, id=f"{name}-{path}-{value!r}")


@pytest.mark.filterwarnings("ignore::UserWarning")  # study-range notices
@pytest.mark.parametrize("name,path,value", list(_fuzz_cases()))
def test_a_number_from_outside_is_finite_or_refused(name, path, value):
    """Every leaf of every preset, set to each fuzz value: the result is a ConfigError or
    a config whose numbers and derived state are finite (but a null damage threshold)
    and whose counts are ints; ``with_value`` gives what ``from_dict`` gives. A numerics
    leaf, whatever its value, is refused: the tolerances are specfun's controls."""
    cfg = load_preset(name)
    if path.startswith("numerics."):
        doc = {**cfg.to_dict(), "numerics": copy.deepcopy(NUMERICS)}
        _, section, leaf = path.split(".")
        doc["numerics"][section][leaf] = value
        with pytest.raises(ConfigError, match=r"^config\.numerics: unknown field$"):
            LinkConfig.from_dict(doc)
        with pytest.raises(ConfigError, match=rf"^config\.{re.escape(path)}: no such field$"):
            cfg.with_value(path, value)
        return
    _assert_same_as_from_dict(cfg, {path: value})
    try:
        cfg = cfg.with_value(path, value)
    except ConfigError:
        return
    numbers = list(dataclasses.astuple(photometry.derive_state(cfg)))
    numbers += [cfg.mpe_skin, cfg.mpe_neuron, cfg.skin_spot_radius]
    null_d_th = cfg.to_dict()["neural"]["d_th_photons"] is None
    for part in ("source", "skin", "beam", "mem", "coupling", "fiber", "neural"):
        numbers += [getattr(getattr(cfg, part), f.name)
                    for f in dataclasses.fields(getattr(cfg, part))
                    if not (f.name == "d_th" and null_d_th)]
    assert all(math.isfinite(v) for v in numbers), numbers
    assert type(cfg.fiber.n_fbg) is int, cfg.fiber.n_fbg
