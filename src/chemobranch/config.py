"""Flat key=value experiment configuration.

The format is dotted-section keys, one `key = value` pair per line, with `#`
comments; any language can parse it and the canonical form hashes stably.
Rates, drifts, and initial data are chosen from the registry by name plus
parameters, never as expressions.
"""

from __future__ import annotations

import hashlib
import math

from .errors import ConfigInvalid
from .field import GridSpec
from .microscopic import ModelParams
from .registry import DriftSpec, InitialFieldSpec, InitialMeasureSpec, RateSpec


# the config key of each field that GridSpec, Kernel and ModelParams validate
_KEY_OF_FIELD = {
    "d": "grid.d", "n": "grid.n", "extent": "grid.L", "width": "kernel.width",
    "sigma": "model.sigma", "D": "model.D", "r": "model.r",
    "alpha": "model.alpha", "lambda_bar": "model.lambda_bar",
    "lambda_arg": "model.lambda_arg", "advection": "macro.scheme",
    "dt": "run.dt", "T": "run.T", "mu0.center": "init.mu0.center",
    "mu0.at": "init.mu0.at", "rho0.center": "init.rho0.center",
}


# every key outside the registry sections that a subcommand reads (the tests
# hold this to the getter call sites), plus run.threads, accepted and
# ignored; the registry specs check the parameter names of their sections
KEYS = frozenset({
    "converge.n0_list", "couple.eps", "couple.n0_list", "grid.L", "grid.d",
    "grid.n", "kernel.width", "macro.order_check", "macro.scheme",
    "mass.replicas", "mass.write_paths", "meanfield.mode",
    "meanfield.picard_replicas", "meanfield.picard_tol", "model.D",
    "model.alpha", "model.lambda_arg", "model.lambda_bar", "model.r",
    "model.sigma", "run.T", "run.dt", "run.n0", "run.out",
    "run.population_cap", "run.replicas", "run.seed", "run.threads",
})
REGISTRY_SECTIONS = ("birth", "death", "drift", "init.mu0", "init.rho0")


def parse_config_text(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigInvalid(f"line {lineno}", "empty key")
        pairs[key] = value.strip()
    return pairs


def _parse_float(key: str, token: str, positive: bool = False) -> float:
    """A finite float, above 0 if asked, or a ConfigInvalid naming ``key``."""
    try:
        val = float(token)
    except ValueError:
        raise ConfigInvalid(key, f"not a number: {token!r}") from None
    if not math.isfinite(val):
        raise ConfigInvalid(key, f"must be finite, got {token!r}")
    if positive and not val > 0:
        raise ConfigInvalid(key, f"must be positive, got {token!r}")
    return val


def config_hash(pairs: dict[str, str]) -> str:
    canonical = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ExperimentConfig:
    """Typed access to a parsed config with field-level diagnostics."""

    def __init__(self, pairs: dict[str, str]):
        self.pairs = dict(pairs)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(parse_config_text(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or str(exc)
            raise ConfigInvalid(str(path), f"cannot read config: {reason}") from None
        return cls.from_text(text)

    @property
    def hash(self) -> str:
        return config_hash(self.pairs)

    # -- typed getters -------------------------------------------------------

    def get_str(self, key: str, default: str | None = None) -> str:
        if key in self.pairs:
            return self.pairs[key]
        if default is None:
            raise ConfigInvalid(key, "missing required key")
        return default

    def get_float(self, key: str, default: float | None = None, *,
                  positive: bool = False) -> float:
        if key not in self.pairs:
            if default is None:
                raise ConfigInvalid(key, "missing required key")
            return default
        return _parse_float(key, self.pairs[key], positive)

    def get_int(self, key: str, default: int | None = None) -> int:
        if key not in self.pairs:
            if default is None:
                raise ConfigInvalid(key, "missing required key")
            return default
        try:
            return int(self.pairs[key])
        except ValueError:
            raise ConfigInvalid(key, f"not an integer: {self.pairs[key]!r}") from None

    def get_count(self, key: str, default: int | None = None) -> int:
        """An integer of at least 1: a population size or replica count."""
        val = self.get_int(key, default)
        if val < 1:
            raise ConfigInvalid(key, f"must be at least 1, got {val}")
        return val

    def get_bool(self, key: str, default: bool = False) -> bool:
        if key not in self.pairs:
            return default
        val = self.pairs[key].lower()
        if val in ("true", "1", "yes"):
            return True
        if val in ("false", "0", "no"):
            return False
        raise ConfigInvalid(key, f"not a boolean: {self.pairs[key]!r}")

    def get_float_list(self, key: str, default: list[float] | None = None, *,
                       positive: bool = False) -> list[float]:
        if key not in self.pairs:
            if default is None:
                raise ConfigInvalid(key, "missing required key")
            return default
        out = [_parse_float(key, tok, positive)
               for tok in self.pairs[key].split(",") if tok.strip()]
        if not out:
            raise ConfigInvalid(key, f"holds no numbers: {self.pairs[key]!r}")
        return out

    def get_count_list(self, key: str) -> list[int]:
        """A required comma-separated list of at least two strictly increasing
        integers >= 1: the population sizes a trend reads in list order."""
        out = []
        for v in self.get_float_list(key):
            if v != int(v):
                raise ConfigInvalid(key, f"expected integers, got {v}")
            if v < 1:
                raise ConfigInvalid(key, f"entries must be at least 1, got {v:g}")
            out.append(int(v))
        if len(out) < 2 or any(a >= b for a, b in zip(out, out[1:])):
            raise ConfigInvalid(key, "a trend needs at least two strictly "
                                     f"increasing entries, got {out}")
        return out

    def _section_params(self, prefix: str) -> dict:
        out = {}
        for key, value in self.pairs.items():
            if key.startswith(prefix + ".") and not key.endswith(".kind"):
                name = key[len(prefix) + 1:]
                floats = [_parse_float(key, t) for t in value.split(",")
                          if t.strip()]
                if not floats:
                    raise ConfigInvalid(key, "empty value")
                out[name] = floats if len(floats) > 1 else floats[0]
        return out

    # -- model construction --------------------------------------------------

    def _spec(self, cls, section: str):
        kind = self.get_str(f"{section}.kind")
        params = self._section_params(section)
        try:
            return cls(kind, params)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{section}.{exc.field}", exc.reason) from None

    def _check_keys(self):
        """Every key is one a subcommand reads: in ``KEYS`` or in a registry
        section.  Anything else is a ConfigInvalid naming the key."""
        sections = tuple(s + "." for s in REGISTRY_SECTIONS)
        for key in sorted(self.pairs):
            if key not in KEYS and not key.startswith(sections):
                raise ConfigInvalid(key, "unknown key; no subcommand reads it")

    def model_params(self) -> ModelParams:
        """Check the keys, read the model keys and build ModelParams.

        GridSpec, Kernel, ModelParams and the registry specs validate their
        own values; their errors are renamed here to the config key.
        """
        self._check_keys()
        grid = (self.get_int("grid.d"), self.get_int("grid.n"),
                self.get_float("grid.L"))
        fields = {name: self.get_float(_KEY_OF_FIELD[name]) for name in
                  ("sigma", "D", "r", "alpha", "lambda_bar", "dt", "T")}
        fields.update(
            birth=self._spec(RateSpec, "birth"),
            death=self._spec(RateSpec, "death"),
            drift=self._spec(DriftSpec, "drift"),
            mu0=self._spec(InitialMeasureSpec, "init.mu0"),
            rho0=self._spec(InitialFieldSpec, "init.rho0"),
            kernel_width=(self.get_float("kernel.width")
                          if "kernel.width" in self.pairs else None),
            population_cap=self.get_count("run.population_cap", 1_000_000),
            advection=self.get_str("macro.scheme", "auto"),
            lambda_arg=self.get_str("model.lambda_arg", "rho"))
        try:
            return ModelParams(grid=GridSpec(*grid), **fields)
        except ConfigInvalid as exc:
            raise ConfigInvalid(_KEY_OF_FIELD[exc.field], exc.reason) from None

    def master_seed(self, override: int | None = None) -> int:
        if override is not None:
            return int(override)
        return self.get_int("run.seed")
