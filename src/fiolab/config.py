"""Experiment configuration: INI-style sections, strictly validated.

Unknown sections or keys are rejected at load time, physical parameters are
checked against the grid, and the canonical re-serialisation (sorted
sections and keys) feeds the manifest digest.
"""
from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
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


@dataclass
class ExperimentConfig:
    sections: dict[str, dict[str, Any]] = field(default_factory=dict)
    raw_text: str = ""

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def grid(self, default: GridSpec | None = None) -> GridSpec:
        sec = self.sections.get("grid")
        if not sec:
            if default is None:
                raise ConfigError("missing [grid] section")
            return default
        gr = GridSpec(
            dim=sec.get("dim", 1),
            half_width=sec["half_width"],
            samples_per_axis=sec["samples_per_axis"],
        )
        return gr

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
    cfg = ExperimentConfig(sections=sections, raw_text=text)
    _validate_physical(cfg)
    return cfg


def _validate_physical(cfg: ExperimentConfig) -> None:
    sec = cfg.sections.get("grid")
    if sec:
        n = sec.get("samples_per_axis", 0)
        if n <= 0 or n % 2 != 0:
            raise ConfigError("samples_per_axis must be even and positive")
        if sec.get("half_width", 1.0) <= 0:
            raise ConfigError("half_width must be positive")
        gr = cfg.grid()
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
    from pathlib import Path

    return parse_config(Path(path).read_text())


DEFAULT_CONFIGS = {
    "fl_growth": """\
[experiment]
name = fl_growth
p = 1
n_sweep = 16,32,64,128,256
diffeo_c = 0.3
""",
    "multiplier_growth": """\
[experiment]
name = multiplier_growth
m = 1
p = 1
n_sweep = 16,32,64,128,256
""",
    "dilation_exponents": """\
[grid]
dim = 1
half_width = 20
samples_per_axis = 2048

[experiment]
name = dilation_exponents
p = 2
lam_sweep = 1,1.4142135623730951,2,2.8284271247461903,4,5.656854249492381,8
""",
    "lp_threshold": """\
[experiment]
name = lp_threshold
p = 4
m = 0
n_sweep = 8,16,32,64,128
diffeo_c = 0.3
""",
    "m1_sharpness": """\
[experiment]
name = m1_sharpness
p = 1
m1 = -0.25
n_sweep = 16,32,64,128,256
diffeo_c = 0.3
""",
    "m2_sharpness": """\
[experiment]
name = m2_sharpness
p = 1
m2 = -0.25
n_sweep = 16,32,64,128,256
diffeo_c = 0.3
""",
    "boundedness_suite": """\
[experiment]
name = boundedness_suite
p = 1
orders = -0.5,-0.5
n_sweep = 16,32,64,128
diffeo_c = 0.3
""",
    "composition_residual": """\
[grid]
dim = 1
half_width = 6
samples_per_axis = 4096

[experiment]
name = composition_residual
js = 1,2,3,4
diffeo_c = 0.3
""",
    "almost_diag": """\
[grid]
dim = 1
half_width = 16
samples_per_axis = 1024

[lattice]
alpha = 0.5
beta = 0.5

[experiment]
name = almost_diag
m1 = -0.5
m2 = -0.5
radii = 16,24
""",
    "l2_stability": """\
[experiment]
name = l2_stability
diffeo_c = 0.3
""",
    "norm_equivalence": """\
[grid]
dim = 1
half_width = 16
samples_per_axis = 1024

[lattice]
alpha = 0.5
beta = 0.5

[experiment]
name = norm_equivalence
p = 1
q = 1
s1 = 0
s2 = 0
""",
}


def default_config(name: str) -> ExperimentConfig:
    if name not in DEFAULT_CONFIGS:
        raise ConfigError(f"no bundled config for experiment {name!r}")
    return parse_config(DEFAULT_CONFIGS[name])
