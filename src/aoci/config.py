"""Configuration ingestion: unit-suffixed JSON in, validated SI objects out.

A link configuration is a single JSON document whose keys carry their units
explicitly (``delta_mm``, ``lambda_nm``, ``power_mw``, ...). Conversion to
SI happens exactly once, here; everything downstream works in meters, watts
and seconds. Each top-level key has one builder in ``_BUILDERS`` that
validates it and returns the ``LinkConfig`` fields it owns; ``from_dict``
runs them all, ``with_value`` only those its paths touch, each through a
bounded memo of section patches read before anything is built (a hit proves
its paths exist; a miss's are checked in the document). Every number is read
by ``_finite`` (finite; an int for counts), and a config whose fields give no
finite channel state is refused; checked states come from a bounded memo
keyed by the numbers ``derive_state`` reads. The stored document is the
canonical JSON fragment of each top-level key, keys sorted: the provenance
hash is taken over their join, and ``to_dict`` is a fresh parse of it;
``resolve`` parses only the fragment of the key it reads.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from aoci import photometry
from aoci.channel import BeamGeometry, SkinParams
from aoci.optics import CouplingParams, FiberLoss, MemParams
from aoci.photometry import ChannelState, NeuralParams, SourceParams

__all__ = ["ConfigError", "LinkConfig"]

# 1 mW/mm^2 = 1e3 W/m^2
_MW_PER_MM2 = 1.0e3

_DEFAULT_MPE = {"skin_mw_per_mm2": 500.0, "neuron_mw_per_mm2": 75.0}

# json.dumps(node, sort_keys=True, separators=(",", ":")), without an encoder built per call
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field path."""


def _require(section: dict, key: str, path: str) -> Any:
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _finite(value: Any, path: str, integer: bool = False) -> float:
    """``value`` as a finite float, or with ``integer`` as an int; else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if integer:
        if not number.is_integer():
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    return number


def _number(section: dict, key: str, path: str, allow_none: bool = False,
            integer: bool = False) -> float:
    """The number at ``section[key]`` read by ``_finite``; null reads as inf with ``allow_none``."""
    value = _require(section, key, path)
    if value is None and allow_none:
        return math.inf
    return _finite(value, f"{path}.{key}", integer)


def _section(doc: dict, key: str, path: str = "config") -> dict:
    value = _require(doc, key, path)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}: expected an object")
    return value


def _reject_unknown(section: dict, known: set[str], path: str) -> None:
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


def _numeric_field(doc: dict, dotted: str) -> tuple[dict, str]:
    """The node of ``doc`` holding the numeric (or null) field ``dotted``, and its key."""
    *parents, key = dotted.split(".")
    node: Any = doc
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict) or key not in node:
        raise ConfigError(f"config.{dotted}: no such field")
    value = node[key]
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ConfigError(f"config.{dotted}: not a numeric field")
    return node, key


def _read_json(path: str | Path, where: str) -> Any:
    """The JSON document in file ``path``; a ConfigError of ``where`` naming the path if
    the file cannot be read, is not UTF-8 or is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{where}: cannot read {path}: {exc}") from exc


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
    if mpe_skin <= 0.0 or mpe_neuron <= 0.0:
        raise ConfigError("config.mpe: limits must be positive")
    return {"mpe_skin": mpe_skin, "mpe_neuron": mpe_neuron}


def _spot(doc: dict, built: dict) -> dict:
    spot = _number(doc, "skin_spot_radius_mm", "config")
    if spot <= 0.0:
        raise ConfigError("config.skin_spot_radius_mm: must be > 0")
    return {"skin_spot_radius": spot * 1e-3}


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
            n_fbg=num("n_fbg", integer=True),
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
}


# with_value's section patches: (key, its old fragment, the assigned (path, type, repr)
# triples, so that 6, 6.0, True and -0.0 stay apart, and the wavelength for coupling)
# -> (new fragment, builder output). A 2-D sweep grid repeats each patch along its other
# axis. A refusal is not kept, so a hit proves its paths exist in its fragment. Emptied
# when full: each step is one atomic dict call.
SECTION_PATCHES = 256
_patches: dict[tuple, tuple[str, dict]] = {}


def _memo(key: str, fragment: str | None, assigned: list, lam: float) -> tuple:
    """The ``_patches`` key of ``key``'s ``fragment`` with ``assigned`` set, at ``lam``."""
    return (key, fragment, tuple([(path, type(new), repr(new)) for path, new in assigned]),
            lam if key == "coupling" else None)


def _patch(key: str, fragment: str, assigned: list, source: SourceParams,
           doc: dict) -> tuple[str, dict]:
    """Top-level ``key`` (canonical ``fragment``) with the ``assigned`` (path, value) pairs
    set, as in ``doc``: its new fragment and builder output, from the memo or built now."""
    memo = _memo(key, fragment, assigned, source.lam)
    patch = _patches.get(memo)
    if patch is None:
        patch = _canonical(doc[key]), _BUILDERS[key](doc, {"source": source})
        if len(_patches) >= SECTION_PATCHES:
            _patches.clear()
        _patches[memo] = patch
    return patch


# The config fields each quantity of the channel state is derived from.
_BEAM = "config.beam.theta_deg, config.beam.beta_mm, config.skin.delta_mm"
_STATE_INPUTS = dict(h_l="config.skin", w_delta=_BEAM, upsilon=_BEAM, w_eq=_BEAM, a0=_BEAM,
                     g_c="config.mem", k="config.fiber", photons_per_joule="config.source.lambda_nm",
                     coupling_argument="config.coupling, config.source.lambda_nm")


# Checked channel states, keyed by the numbers derive_state reads (one flat tuple, cheap
# to hash): a power or sigma_s axis shares one, and a figure 8 grid derives one per skin
# thickness. Equal inputs give bitwise equal states (a -0.0 among them reaches every
# factor as +0.0 would). A refusal is not kept. Emptied when full, like the patches.
CHANNEL_STATES = 256
_states: dict[tuple, ChannelState] = {}
_state_inputs = operator.attrgetter("beam.theta", "beam.beta", "source.lam", *(
    f"{name}.{f.name}" for name, cls in zip(("skin", "mem", "fiber", "coupling"), (
        SkinParams, MemParams, FiberLoss, CouplingParams)) for f in dataclasses.fields(cls)))


def _checked_state(cfg: "LinkConfig") -> ChannelState:
    """``derive_state(cfg)``, or a ConfigError naming the fields of a quantity it cannot
    derive, or derives non-finite (or, for the coupling argument, not > 0)."""
    memo = _state_inputs(cfg)
    state = _states.get(memo)
    if state is not None:
        return state
    try:
        state = photometry.derive_state(cfg)
    except ValueError as exc:  # beam_stats refuses an overflowing w_eq
        raise ConfigError(f"{_BEAM}: {exc}") from exc
    except ArithmeticError as exc:  # w_delta or z0 / f of two extreme fields underflows to 0
        raise ConfigError(f"{_BEAM}, config.mem: {exc}") from exc
    for name, fields in _STATE_INPUTS.items():
        value = getattr(state, name)
        if not (math.isfinite(value) and (value > 0.0 or name != "coupling_argument")):
            raise ConfigError(f"{fields}: the derived {name} is {value!r}")
    if len(_states) >= CHANNEL_STATES:
        _states.clear()
    _states[memo] = state
    return state


@dataclass(frozen=True)
class LinkConfig:
    """One validated link instance, all fields SI, with its derived channel ``state``.

    The document is stored only as ``_fragments``; a dict read from them is a fresh parse.
    """

    source: SourceParams
    skin: SkinParams
    beam: BeamGeometry
    mem: MemParams
    coupling: CouplingParams
    fiber: FiberLoss
    neural: NeuralParams
    mpe_skin: float  # W/m^2
    mpe_neuron: float  # W/m^2
    skin_spot_radius: float  # m
    # The canonical JSON of each top-level key of the document, keys sorted: the document.
    _fragments: dict = field(repr=False, compare=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinkConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: expected a JSON object at top level")
        _reject_unknown(doc, set(_BUILDERS), "config")
        built: dict = {}
        for build in _BUILDERS.values():
            built.update(build(doc, built))
        cfg = cls(**built, _fragments={key: _canonical(doc[key]) for key in sorted(doc)})
        cfg.state  # derived and checked now: a config with no finite state is refused here
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "LinkConfig":
        return cls.from_dict(_read_json(path, "config"))

    def _document(self) -> str:
        """``json.dumps(document, sort_keys=True, separators=(",", ":"))``, from the fragments."""
        return "{" + ",".join([f'"{key}":{text}' for key, text in self._fragments.items()]) + "}"

    @functools.cached_property
    def state(self) -> ChannelState:
        """``photometry.derive_state`` of this config, checked when the config is built."""
        return _checked_state(self)

    def to_dict(self) -> dict:
        """A fresh parse of the unit-suffixed document this config was ingested from."""
        return json.loads(self._document())

    def config_hash(self) -> str:
        """Provenance hash over the canonical raw document."""
        return hashlib.sha256(self._document().encode("utf-8")).hexdigest()[:16]

    def with_value(self, path: str | Mapping[str, Any], value: Any = None) -> "LinkConfig":
        """A new config with raw numeric (or null) fields replaced, validated once.

        ``path`` is a dotted path (like 'beam.sigma_s_mm') set to ``value``, or a mapping
        of paths to values, all set before validation (so fields valid only together can
        change together). Each top-level key the paths touch (and coupling, when
        ``source.lambda_nm`` changes) takes its fragment and fields from ``_patch``, which
        validates it as ``from_dict`` does. The memo is read first: a missed key's fragment
        is parsed once, and its paths are checked and set on that parse before any build.
        Every other field and fragment is shared with ``self``; the state is checked.
        """
        items = [(path, value)] if isinstance(path, str) else list(path.items())
        assigned: dict[str, list] = {}
        for dotted, new in items:
            assigned.setdefault(dotted.partition(".")[0], []).append((dotted, new))
            if dotted == "source.lambda_nm":  # CouplingParams.lam is the wavelength
                assigned.setdefault("coupling", [])
        fragments, lam = self._fragments, self.source.lam
        patches = {key: _patches.get(_memo(key, fragments.get(key), assigned[key], lam))
                   for key in _BUILDERS if key in assigned}  # in builder order
        if "source" in patches and "coupling" in patches:  # the new source's wavelength
            new_source = patches["source"]
            patches["coupling"] = new_source and _patches.get(_memo(
                "coupling", fragments["coupling"], assigned["coupling"],
                new_source[1]["source"].lam))
        docs = {key: {key: json.loads(fragments[key])} if key in fragments else {}
                for key, patch in patches.items() if patch is None}  # each miss parsed once
        for dotted, new in items:  # every path of a miss is checked and set before any build
            if patches.get(top := dotted.partition(".")[0]) is None:
                node, leaf = _numeric_field(docs.get(top, {}), dotted)
                node[leaf] = new
        cfg = object.__new__(type(self))
        fields = cfg.__dict__  # the fields of self, and its state until replaced below
        fields.update(self.__dict__)
        fragments = fields["_fragments"] = fragments.copy()
        for key, patch in patches.items():  # builder order: coupling reads the new source
            fragments[key], built = patch or _patch(
                key, fragments[key], assigned[key], fields["source"], docs[key])
            fields.update(built)
        fields["state"] = _checked_state(cfg)  # the cached state, checked now
        return cfg

    def resolve(self, path: str) -> float:
        """Read a numeric field of the document by dotted path; a null field reads as inf.

        Only the fragment of the path's top-level key is parsed."""
        top = path.partition(".")[0]
        doc = {top: json.loads(self._fragments[top])} if top in self._fragments else {}
        node, key = _numeric_field(doc, path)
        return math.inf if node[key] is None else float(node[key])
