"""Experiment configuration: flat key=value files, defaults, validation."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

# Experiments that exercise the cover need epsilon <= eta/2; the slice
# machinery (thickness / entropy / projection estimates) needs the stronger
# epsilon <= eta^2 and eta <= 1/sqrt(K).
COVER_EXPERIMENTS = {"cover-property", "onsager-markov"}
SLICE_EXPERIMENTS = {"slice-entropy"}
# Replica-mean experiments: each criterion is a z-score against a standard
# error over the replicas
LAW_EXPERIMENTS = {"gaussian-law", "recentering-law"}


def _floats(value: str) -> tuple:
    return tuple(float(x) for x in value.split(",") if x.strip())


# How each key's value is read; lists are comma-separated floats
_PARSERS = {
    **dict.fromkeys(("xi", "beta", "h"), _floats),
    **dict.fromkeys(("n", "replicas", "mc_samples", "starts", "seed", "workers",
                     "points"), int),
    **dict.fromkeys(("epsilon", "eta", "delta", "delta_check"), float),
    **dict.fromkeys(("experiment", "field", "measure", "out"), str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 8
    xi: tuple = (0.0, 0.0, 1.0)
    beta: tuple = (0.3,)
    h: tuple = (0.0,)
    field: str = "linear"
    measure: str = "ising"
    epsilon: float = 0.05
    eta: float = 0.4
    delta: float = 0.1
    delta_check: float = 0.5
    replicas: int = 10
    points: int = 1000
    mc_samples: int = 100000
    starts: int = 6
    seed: int = 20240801
    workers: int = 1
    out: Optional[str] = None

    def asdict(self) -> dict:
        """Config echo for reports; drops delivery-only keys (out, workers)
        so canonical bytes depend on the experiment semantics and seed alone."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__
             if k not in ("out", "workers")}
        for key in ("xi", "beta", "h"):
            d[key] = list(d[key])
        return d


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; lists are comma-separated.
    A line that is not `key = value`, names an unknown key or holds a value
    of the wrong type raises ConfigError naming the line."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected key = value"])
        key, value = (part.strip() for part in line.split("=", 1))
        parse = _PARSERS.get(key)
        if parse is None:
            raise ConfigError([f"line {lineno}: unknown key {key!r}"])
        try:
            raw[key] = parse(value)
        except ValueError:
            raise ConfigError([f"line {lineno}: bad value {value!r} for {key!r}"]) \
                from None
    return raw


def load_config(path) -> dict:
    """`parse_config_text` of the UTF-8 file at `path`; a file that cannot
    be read as such raises ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError([f"cannot read {os.fspath(path)!r}: {err.strerror}"]) \
            from None
    except UnicodeDecodeError:
        raise ConfigError([f"{os.fspath(path)!r} is not a text file"]) from None
    return parse_config_text(text)


def _check_keys(keys) -> None:
    """ConfigError naming every key that is not an ExperimentConfig field."""
    unknown = sorted(set(keys) - set(ExperimentConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError([f"unknown key {key!r}" for key in unknown])


def build_config(experiment: str, overrides: Optional[dict] = None) -> "ExperimentConfig":
    from .experiments import EXPERIMENT_DEFAULTS, EXPERIMENTS
    if experiment not in EXPERIMENTS:
        raise ConfigError([f"unknown experiment {experiment!r}"])
    base = dict(EXPERIMENT_DEFAULTS.get(experiment, {}))
    base["experiment"] = experiment
    if overrides:
        _check_keys(overrides)
        base.update({k: v for k, v in overrides.items() if k != "experiment"})
    if base.get("out") is None and os.environ.get("TAPBOUND_OUT"):
        base["out"] = os.environ["TAPBOUND_OUT"]
    cfg = ExperimentConfig(**base)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Collects every violated constraint; raises ConfigError listing them."""
    bad = []
    if cfg.n < 1:
        bad.append("n must be >= 1")
    if cfg.replicas < 1:
        bad.append("replicas must be >= 1")
    if cfg.seed < 0 or cfg.seed >= 1 << 64:
        bad.append("seed must fit in a u64")
    if any(a < 0 for a in cfg.xi):
        bad.append("xi coefficients must be nonnegative")
    if any(b < 0 for b in cfg.beta):
        bad.append("beta values must be >= 0")
    if cfg.field not in ("none", "linear", "quadratic_spike"):
        bad.append(f"unknown field kind {cfg.field!r}")
    if cfg.measure not in ("ising", "sphere"):
        bad.append(f"unknown measure {cfg.measure!r}")
    if cfg.starts < 1:
        bad.append("starts must be >= 1")
    if cfg.workers < 1:
        bad.append("workers must be >= 1")
    if cfg.experiment in COVER_EXPERIMENTS | SLICE_EXPERIMENTS:
        if not 0 < cfg.eta < 1:
            bad.append("cover experiments need 0 < eta < 1")
        if not 0 < cfg.epsilon <= cfg.eta / 2:
            bad.append("cover experiments need 0 < epsilon <= eta/2")
    if cfg.experiment in SLICE_EXPERIMENTS:
        K = 1  # all built-in fields are one-dimensional
        if cfg.eta > K ** -0.5:
            bad.append("slice experiments need eta <= K^(-1/2)")
        if cfg.epsilon > cfg.eta ** 2:
            bad.append("slice experiments need epsilon <= eta^2")
        if cfg.eta > cfg.delta / 4:
            bad.append("slice entropy needs eta <= delta/4")
    if cfg.experiment in LAW_EXPERIMENTS and cfg.replicas < 2:
        bad.append("law experiments need replicas >= 2 (their standard errors "
                   "divide by replicas - 1)")
    if cfg.experiment == "bound-sphere" and cfg.mc_samples < 100:
        bad.append("bound-sphere needs mc_samples >= 100")
    if bad:
        raise ConfigError(bad)
