"""Experiment configuration: INI-style sections, strictly validated.

Unknown sections or keys are rejected at load time, physical parameters are
checked against the grid, and the canonical re-serialisation (sorted
sections and keys) feeds the manifest digest.  Which keys an experiment
accepts, and the default of each, is declared once: by the keyword-only
parameters of its runner (runner.py).  [grid] binds as one GridSpec
`grid`, every other key by its own name; [experiment] name only names the
experiment.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .grid import GridSpec


class ConfigError(ValueError):
    pass


_SCHEMA: dict[str, dict[str, str]] = {
    "grid": {"dim": "int", "half_width": "float", "samples_per_axis": "int"},
    "lattice": {"alpha": "float", "beta": "float"},
    "experiment": {
        "name": "str",
        "p": "float",
        "q": "float",
        "m": "float",
        "m1": "float",
        "m2": "float",
        "s1": "float",
        "s2": "float",
        "n_sweep": "intlist",
        "lam_sweep": "floatlist",
        "js": "intlist",
        "diffeo_c": "float",
        "orders": "pairlist",
        "radii": "intlist",
    },
}


def _coerce(kind: str, raw: str) -> Any:
    raw = raw.strip()
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float("inf") if raw in ("inf", "Infinity") else float(raw)
    if kind == "intlist":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    if kind == "floatlist":
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if kind == "pairlist":
        pairs = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            a, b = chunk.split(",")
            pairs.append((float(a), float(b)))
        return tuple(pairs)
    return raw


def _grid_spec(sec: dict[str, Any]) -> GridSpec:
    """The GridSpec of a [grid] section; a missing key, or a value GridSpec
    rejects, raises ConfigError."""
    try:
        return GridSpec(sec.get("dim", 1), sec["half_width"], sec["samples_per_axis"])
    except KeyError as e:
        raise ConfigError(f"[grid] needs {e.args[0]}") from None
    except ValueError as e:
        raise ConfigError(f"[grid] {e}") from None


def _section_of(key: str) -> str:
    """The section that holds runner keyword `key` (other than `grid`)."""
    return "lattice" if key in _SCHEMA["lattice"] else "experiment"


@dataclass
class ExperimentConfig:
    sections: dict[str, dict[str, Any]] = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.sections.get(section, {}).get(key)

    def params(self) -> dict[str, Any]:
        """Every value as the runner keyword it binds to: [grid] as one
        GridSpec `grid`, every other key by its own name, [experiment] name
        left out."""
        out: dict[str, Any] = {}
        for sec, keys in self.sections.items():
            if sec == "grid":
                out["grid"] = _grid_spec(keys)
            else:
                out.update((k, v) for k, v in keys.items() if k != "name")
        return out

    def resolve(self, name: str, defaults: dict[str, Any]) -> "ExperimentConfig":
        """The config experiment `name` runs with, whose runner takes the
        keywords in `defaults`: every one of them, from this config where it
        is given, else at its default; a default of None, which the runner
        derives from other keys (norm_equivalence q = p), is recorded only
        when given.  A key the runner does not take, or an [experiment] name
        other than `name`, raises ConfigError."""
        declared = self.get("experiment", "name")
        if declared is not None and declared != name:
            raise ConfigError(f"config is for experiment {declared!r}, not {name!r}")
        given = self.params()
        for key in given:
            if key not in defaults:
                label = "[grid]" if key == "grid" else f"[{_section_of(key)}] {key}"
                raise ConfigError(f"experiment {name!r} does not accept {label}")
        sections: dict[str, dict[str, Any]] = {"experiment": {"name": name}}
        for key, v in {**defaults, **given}.items():
            if v is None:
                continue
            if key == "grid":
                sections["grid"] = asdict(v)
            else:
                sections.setdefault(_section_of(key), {})[key] = v
        cfg = ExperimentConfig(sections)
        _validate_physical(cfg)
        return cfg

    def canonical_text(self) -> str:
        out = io.StringIO()
        for sec in sorted(self.sections):
            out.write(f"[{sec}]\n")
            for key in sorted(self.sections[sec]):
                v = self.sections[sec][key]
                if isinstance(v, tuple):
                    if v and isinstance(v[0], tuple):
                        v = ";".join(f"{a},{b}" for a, b in v)
                    else:
                        v = ",".join(str(u) for u in v)
                out.write(f"{key} = {v}\n")
        return out.getvalue()

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    sections: dict[str, dict[str, Any]] = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]")
        sections[sec] = {}
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")
            try:
                sections[sec][key] = _coerce(_SCHEMA[sec][key], raw)
            except ValueError as e:
                raise ConfigError(f"[{sec}] {key}: {e}") from e
    cfg = ExperimentConfig(sections)
    _validate_physical(cfg)
    return cfg


def _validate_physical(cfg: ExperimentConfig) -> None:
    sec = cfg.sections.get("grid")
    if sec:
        gr = _grid_spec(sec)
        ns = cfg.get("experiment", "n_sweep")
        if ns:
            if max(ns) > gr.nyquist / 2.0:
                raise ConfigError(
                    f"n_sweep maximum {max(ns)} exceeds the safe band "
                    f"(Nyquist {gr.nyquist})"
                )
        lat = cfg.sections.get("lattice")
        if lat:
            alpha, beta = lat.get("alpha"), lat.get("beta")
            if alpha is not None and abs(alpha / gr.space_step - round(alpha / gr.space_step)) > 1e-9:
                raise ConfigError("lattice alpha is not grid aligned")
            if beta is not None and abs(beta / gr.freq_step - round(beta / gr.freq_step)) > 1e-9:
                raise ConfigError("lattice beta is not grid aligned")


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())

