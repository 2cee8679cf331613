"""Configuration ingestion: unit-suffixed JSON in, validated SI objects out.

A link configuration is a single JSON document whose keys carry their units
explicitly (``delta_mm``, ``lambda_nm``, ``power_mw``, ...). Conversion to
SI happens exactly once, here; everything downstream works in meters, watts
and seconds. Each top-level key has one builder in ``_BUILDERS`` that
validates it and returns the ``LinkConfig`` fields it owns; ``from_dict``
runs them all, ``with_value`` only those its paths touch. The raw document
is retained verbatim, read-only, as the round-trip source of truth; the
provenance hash is computed over it from canonical JSON fragments of its
top-level keys, taken when the config is built.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from aoci.channel import BeamGeometry, SkinParams
from aoci.optics import CouplingParams, FiberLoss, MemParams
from aoci.photometry import NeuralParams, SourceParams
from aoci.specfun import QuadControl, SeriesControl

__all__ = ["ConfigError", "LinkConfig", "load_config"]

# 1 mW/mm^2 = 1e3 W/m^2
_MW_PER_MM2 = 1.0e3

_DEFAULT_MPE = {"skin_mw_per_mm2": 500.0, "neuron_mw_per_mm2": 75.0}

# json.dumps(node, sort_keys=True, separators=(",", ":")), without an encoder built per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


def _copy_tree(node: Any) -> Any:
    """A copy of a JSON tree: fresh dicts and lists, the immutable leaves shared."""
    if isinstance(node, dict):
        node = node.copy()
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                node[key] = _copy_tree(value)
        return node
    return [_copy_tree(value) for value in node] if isinstance(node, list) else node


def _require(section: dict, key: str, path: str) -> Any:
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _number(section: dict, key: str, path: str, allow_none: bool = False) -> float:
    value = _require(section, key, path)
    if value is None and allow_none:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _section(doc: dict, key: str) -> dict:
    value = _require(doc, key, "config")
    if not isinstance(value, dict):
        raise ConfigError(f"config.{key}: expected an object")
    return value


def _reject_unknown(section: dict, known: set[str], path: str) -> None:
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


# A builder reads its top-level key of the document and returns the LinkConfig
# fields it owns; ``built`` holds the fields of the builders before it.
_Builder = Callable[[dict, dict], dict]


def _params(name: str, known: set[str], make: Callable[[Callable, dict], Any]) -> _Builder:
    """The builder of parameter section ``name``: ``make(num, built)`` with ``num(key)``
    reading one of its numbers; a ValueError of the parameter class becomes a ConfigError."""
    def build(doc: dict, built: dict) -> dict:
        sec = _section(doc, name)
        _reject_unknown(sec, known, f"config.{name}")
        try:
            return {name: make(functools.partial(_number, sec, path=f"config.{name}"), built)}
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config.{name}: {exc}") from exc
    return build


def _mpe(doc: dict, built: dict) -> dict:
    mpe_doc = dict(_DEFAULT_MPE)
    if "mpe" in doc:
        sec = _section(doc, "mpe")
        _reject_unknown(sec, set(_DEFAULT_MPE), "config.mpe")
        mpe_doc.update(sec)
    mpe_skin = _number(mpe_doc, "skin_mw_per_mm2", "config.mpe") * _MW_PER_MM2
    mpe_neuron = _number(mpe_doc, "neuron_mw_per_mm2", "config.mpe") * _MW_PER_MM2
    if not math.isfinite(mpe_skin + mpe_neuron):
        raise ConfigError("config.mpe: limits must be finite")
    if mpe_skin <= 0.0 or mpe_neuron <= 0.0:
        raise ConfigError("config.mpe: limits must be positive")
    return {"mpe_skin": mpe_skin, "mpe_neuron": mpe_neuron}


def _spot(doc: dict, built: dict) -> dict:
    if "skin_spot_radius_mm" not in doc:
        raise ConfigError("config.skin_spot_radius_mm: missing required field")
    spot = _number(doc, "skin_spot_radius_mm", "config")
    if spot <= 0.0:
        raise ConfigError("config.skin_spot_radius_mm: must be > 0")
    return {"skin_spot_radius": spot * 1e-3}


def _numerics(doc: dict, built: dict) -> dict:
    series_ctl, quad_ctl = SeriesControl(), QuadControl()
    if "numerics" in doc:
        numerics = _section(doc, "numerics")
        _reject_unknown(numerics, {"series", "quad"}, "config.numerics")
        try:
            if "series" in numerics:
                series_ctl = SeriesControl(**numerics["series"])
            if "quad" in numerics:
                quad_ctl = QuadControl(**numerics["quad"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.numerics: {exc}") from exc
    return {"series_ctl": series_ctl, "quad_ctl": quad_ctl}


# One builder per top-level key, run in this order (coupling reads the source).
_BUILDERS: dict[str, _Builder] = {
    "source": _params(
        "source", {"power_mw", "lambda_nm"},
        lambda num, built: SourceParams(
            power_tx=num("power_mw") * 1e-3,
            lam=num("lambda_nm") * 1e-9,
        )),
    "skin": _params(
        "skin", {"delta_mm", "mu_a_per_mm", "mu_s_per_mm"},
        lambda num, built: SkinParams(
            delta=num("delta_mm") * 1e-3,
            mu_a=num("mu_a_per_mm") * 1e3,
            mu_s=num("mu_s_per_mm") * 1e3,
        )),
    "beam": _params(
        "beam", {"theta_deg", "beta_mm", "sigma_s_mm"},
        lambda num, built: BeamGeometry(
            theta=math.radians(num("theta_deg")),
            beta=num("beta_mm") * 1e-3,
            sigma_s=num("sigma_s_mm") * 1e-3,
        )),
    "mem": _params(
        "mem", {"d_in_mm", "f_mm", "z0_mm"},
        lambda num, built: MemParams(
            d_in=num("d_in_mm") * 1e-3,
            f=num("f_mm") * 1e-3,
            z0=num("z0_mm") * 1e-3,
        )),
    "coupling": _params(
        "coupling", {"lens_diameter_mm", "focal_length_mm", "omega0_mm"},
        lambda num, built: CouplingParams(
            lens_diameter=num("lens_diameter_mm") * 1e-3,
            focal_length=num("focal_length_mm") * 1e-3,
            omega0=num("omega0_mm") * 1e-3,
            lam=built["source"].lam,
        )),
    "fiber": _params(
        "fiber", {"bend_db_per_90deg", "n_quarter_turns", "fbg_fraction_lost", "n_fbg"},
        lambda num, built: FiberLoss(
            bend_db_per_90deg=num("bend_db_per_90deg"),
            n_quarter_turns=num("n_quarter_turns"),
            fbg_fraction_lost=num("fbg_fraction_lost"),
            n_fbg=int(num("n_fbg")),
        )),
    "neural": _params(
        "neural", {"f0_per_s", "tau_s", "y_th_photons", "d_th_photons"},
        lambda num, built: NeuralParams(
            f0=num("f0_per_s"),
            tau=num("tau_s"),
            y_th=num("y_th_photons"),
            d_th=num("d_th_photons", allow_none=True),
        )),
    "mpe": _mpe,
    "skin_spot_radius_mm": _spot,
    "numerics": _numerics,
}


@dataclass(frozen=True)
class LinkConfig:
    """One validated link instance, all fields SI."""

    source: SourceParams
    skin: SkinParams
    beam: BeamGeometry
    mem: MemParams
    coupling: CouplingParams
    fiber: FiberLoss
    neural: NeuralParams
    series_ctl: SeriesControl
    quad_ctl: QuadControl
    mpe_skin: float  # W/m^2
    mpe_neuron: float  # W/m^2
    skin_spot_radius: float  # m
    raw: dict = field(repr=False, compare=False)  # read-only
    # The canonical JSON of each top-level key of ``raw``, for ``config_hash``.
    _fragments: dict = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinkConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object at top level")
        _reject_unknown(doc, set(_BUILDERS), "config")
        built: dict = {}
        for build in _BUILDERS.values():
            built.update(build(doc, built))
        raw = _copy_tree(doc)
        return cls(**built, raw=raw, _fragments={key: _canonical(raw[key]) for key in raw})

    @classmethod
    def from_file(cls, path: str | Path) -> "LinkConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """The raw unit-suffixed document this config was ingested from."""
        return _copy_tree(self.raw)

    def config_hash(self) -> str:
        """Provenance hash over the canonical raw document.

        The canonical document, ``json.dumps(raw, sort_keys=True, separators=(",", ":"))``,
        is joined from the fragments of its top-level keys taken when the config was
        built, so ``raw`` must not be mutated.
        """
        canonical = "{" + ",".join(
            f'"{key}":{self._fragments[key]}' for key in sorted(self._fragments)) + "}"
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def with_value(self, path: str | Mapping[str, Any], value: Any = None) -> "LinkConfig":
        """A new config with raw numeric (or null) fields replaced, validated once.

        ``path`` is a dotted path (like 'beam.sigma_s_mm') set to ``value``, or a mapping
        of paths to values, all set before validation (so fields valid only together can
        change together). Only the builders of the top-level keys the paths touch run
        (and coupling's, when ``source.lambda_nm`` changes), each validating its key as
        ``from_dict`` does; every other field, already validated, is taken from ``self``,
        and only the touched keys' hash fragments are re-encoded. The new ``raw`` is a
        fresh copy, so the two configs share no mutable node.
        """
        doc, touched, rebuild = _copy_tree(self.raw), set(), set()
        for dotted, new in path.items() if isinstance(path, Mapping) else [(path, value)]:
            node, parts = doc, dotted.split(".")
            for part in parts[:-1]:
                node = node.get(part)
                if not isinstance(node, dict):
                    raise ConfigError(f"config.{dotted}: no such field")
            leaf = parts[-1]
            if leaf not in node:
                raise ConfigError(f"config.{dotted}: no such field")
            old = node[leaf]
            if old is not None and (not isinstance(old, (int, float)) or isinstance(old, bool)):
                raise ConfigError(f"config.{dotted}: not a numeric field")
            node[leaf] = new
            touched.add(parts[0])
            if dotted == "source.lambda_nm":  # CouplingParams.lam is the wavelength
                rebuild.add("coupling")
        rebuild |= touched
        built = {"source": self.source}  # what coupling reads when the source is untouched
        for key, build in _BUILDERS.items():
            if key in rebuild:
                built.update(build(doc, built))
        fragments = {**self._fragments, **{key: _canonical(doc[key]) for key in touched}}
        return dataclasses.replace(self, **built, raw=doc, _fragments=fragments)

    def resolve(self, path: str) -> float:
        """Read a raw numeric field by dotted path; a null field reads as inf."""
        node: Any = self.raw
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"config.{path}: no such field")
            node = node[part]
        if node is None:
            return math.inf
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            raise ConfigError(f"config.{path}: not a numeric field")
        return float(node)


def load_config(path: str | Path) -> LinkConfig:
    """Read and validate a configuration file."""
    return LinkConfig.from_file(path)
