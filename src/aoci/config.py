"""Configuration ingestion: unit-suffixed JSON in, validated SI objects out.

A link configuration is a single JSON document whose keys carry their units
explicitly (``delta_mm``, ``lambda_nm``, ``power_mw``, ...). Conversion to
SI happens exactly once, here; everything downstream works in meters, watts
and seconds. The raw document is retained verbatim as the round-trip source
of truth and is what the provenance hash is computed over.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
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


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


def _copy_tree(node: Any) -> Any:
    """A copy of a JSON tree: fresh dicts and lists, the immutable leaves shared."""
    if isinstance(node, dict):
        return {key: _copy_tree(value) for key, value in node.items()}
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
    raw: dict = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinkConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object at top level")
        known_top = {
            "source", "skin", "beam", "mem", "coupling", "fiber", "neural",
            "mpe", "numerics", "skin_spot_radius_mm",
        }
        _reject_unknown(doc, known_top, "config")

        def build(section_name, known, factory):
            sec = _section(doc, section_name)
            _reject_unknown(sec, known, f"config.{section_name}")
            try:
                return factory(sec)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"config.{section_name}: {exc}") from exc

        source = build(
            "source",
            {"power_mw", "lambda_nm"},
            lambda s: SourceParams(
                power_tx=_number(s, "power_mw", "config.source") * 1e-3,
                lam=_number(s, "lambda_nm", "config.source") * 1e-9,
            ),
        )
        skin = build(
            "skin",
            {"delta_mm", "mu_a_per_mm", "mu_s_per_mm"},
            lambda s: SkinParams(
                delta=_number(s, "delta_mm", "config.skin") * 1e-3,
                mu_a=_number(s, "mu_a_per_mm", "config.skin") * 1e3,
                mu_s=_number(s, "mu_s_per_mm", "config.skin") * 1e3,
            ),
        )
        beam = build(
            "beam",
            {"theta_deg", "beta_mm", "sigma_s_mm"},
            lambda s: BeamGeometry(
                theta=math.radians(_number(s, "theta_deg", "config.beam")),
                beta=_number(s, "beta_mm", "config.beam") * 1e-3,
                sigma_s=_number(s, "sigma_s_mm", "config.beam") * 1e-3,
            ),
        )
        mem = build(
            "mem",
            {"d_in_mm", "f_mm", "z0_mm"},
            lambda s: MemParams(
                d_in=_number(s, "d_in_mm", "config.mem") * 1e-3,
                f=_number(s, "f_mm", "config.mem") * 1e-3,
                z0=_number(s, "z0_mm", "config.mem") * 1e-3,
            ),
        )
        coupling = build(
            "coupling",
            {"lens_diameter_mm", "focal_length_mm", "omega0_mm"},
            lambda s: CouplingParams(
                lens_diameter=_number(s, "lens_diameter_mm", "config.coupling") * 1e-3,
                focal_length=_number(s, "focal_length_mm", "config.coupling") * 1e-3,
                omega0=_number(s, "omega0_mm", "config.coupling") * 1e-3,
                lam=source.lam,
            ),
        )
        fiber = build(
            "fiber",
            {"bend_db_per_90deg", "n_quarter_turns", "fbg_fraction_lost", "n_fbg"},
            lambda s: FiberLoss(
                bend_db_per_90deg=_number(s, "bend_db_per_90deg", "config.fiber"),
                n_quarter_turns=_number(s, "n_quarter_turns", "config.fiber"),
                fbg_fraction_lost=_number(s, "fbg_fraction_lost", "config.fiber"),
                n_fbg=int(_number(s, "n_fbg", "config.fiber")),
            ),
        )
        neural = build(
            "neural",
            {"f0_per_s", "tau_s", "y_th_photons", "d_th_photons"},
            lambda s: NeuralParams(
                f0=_number(s, "f0_per_s", "config.neural"),
                tau=_number(s, "tau_s", "config.neural"),
                y_th=_number(s, "y_th_photons", "config.neural"),
                d_th=_number(s, "d_th_photons", "config.neural", allow_none=True),
            ),
        )

        mpe_doc = dict(_DEFAULT_MPE)
        if "mpe" in doc:
            sec = _section(doc, "mpe")
            _reject_unknown(sec, set(_DEFAULT_MPE), "config.mpe")
            mpe_doc.update(sec)
        mpe_skin = float(mpe_doc["skin_mw_per_mm2"]) * _MW_PER_MM2
        mpe_neuron = float(mpe_doc["neuron_mw_per_mm2"]) * _MW_PER_MM2
        if mpe_skin <= 0.0 or mpe_neuron <= 0.0:
            raise ConfigError("config.mpe: limits must be positive")

        if "skin_spot_radius_mm" not in doc:
            raise ConfigError("config.skin_spot_radius_mm: missing required field")
        spot = _number(doc, "skin_spot_radius_mm", "config")
        if spot <= 0.0:
            raise ConfigError("config.skin_spot_radius_mm: must be > 0")

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

        return cls(
            source=source,
            skin=skin,
            beam=beam,
            mem=mem,
            coupling=coupling,
            fiber=fiber,
            neural=neural,
            series_ctl=series_ctl,
            quad_ctl=quad_ctl,
            mpe_skin=mpe_skin,
            mpe_neuron=mpe_neuron,
            skin_spot_radius=spot * 1e-3,
            raw=_copy_tree(doc),
        )

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """Provenance hash over the canonical raw document."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def with_value(self, path: str | Mapping[str, Any], value: Any = None) -> "LinkConfig":
        """A new config with raw fields replaced, validated once.

        ``path`` is a dotted path (like 'beam.sigma_s_mm') set to ``value``, or a mapping
        of paths to values, all set before one ``from_dict`` (so fields valid only together
        can change together). Only the dicts on the paths are copied before the writes, and
        ``from_dict`` copies the result's dicts and lists, so the two configs share no mutable node.
        """
        doc = dict(self.raw)
        for dotted, new in path.items() if isinstance(path, Mapping) else [(path, value)]:
            node, parts = doc, dotted.split(".")
            for part in parts[:-1]:
                if not isinstance(node.get(part), dict):
                    raise ConfigError(f"config.{dotted}: no such field")
                child = dict(node[part])
                node[part] = child
                node = child
            leaf = parts[-1]
            if leaf not in node:
                raise ConfigError(f"config.{dotted}: no such field")
            if not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
                raise ConfigError(f"config.{dotted}: not a numeric field")
            node[leaf] = new
        return LinkConfig.from_dict(doc)

    def resolve(self, path: str) -> float:
        """Read a raw numeric field by dotted path."""
        node: Any = self.raw
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"config.{path}: no such field")
            node = node[part]
        if not isinstance(node, (int, float)) or isinstance(node, bool):
            raise ConfigError(f"config.{path}: not a numeric field")
        return float(node)


def load_config(path: str | Path) -> LinkConfig:
    """Read and validate a configuration file."""
    return LinkConfig.from_file(path)
