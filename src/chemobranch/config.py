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


def _parse_float(key: str, token: str) -> float:
    """A finite float, or a ConfigInvalid naming ``key``."""
    try:
        val = float(token)
    except ValueError:
        raise ConfigInvalid(key, f"not a number: {token!r}") from None
    if not math.isfinite(val):
        raise ConfigInvalid(key, f"must be finite, got {token!r}")
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

    def _require(self, key: str) -> str:
        if key not in self.pairs:
            raise ConfigInvalid(key, "missing required key")
        return self.pairs[key]

    def get_str(self, key: str, default: str | None = None) -> str:
        if key in self.pairs:
            return self.pairs[key]
        if default is None:
            raise ConfigInvalid(key, "missing required key")
        return default

    def get_float(self, key: str, default: float | None = None) -> float:
        if key not in self.pairs:
            if default is None:
                raise ConfigInvalid(key, "missing required key")
            return default
        return _parse_float(key, self.pairs[key])

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

    def get_float_list(self, key: str, default: list[float] | None = None) -> list[float]:
        if key not in self.pairs:
            if default is None:
                raise ConfigInvalid(key, "missing required key")
            return default
        return [_parse_float(key, tok) for tok in self.pairs[key].split(",")
                if tok.strip()]

    def get_count_list(self, key: str) -> list[int]:
        """A required, nonempty comma-separated list of integers >= 1."""
        out = []
        for v in self.get_float_list(key):
            if v != int(v):
                raise ConfigInvalid(key, f"expected integers, got {v}")
            if v < 1:
                raise ConfigInvalid(key, f"entries must be at least 1, got {v:g}")
            out.append(int(v))
        if not out:
            raise ConfigInvalid(key, "needs at least one entry")
        return out

    def _section_params(self, prefix: str) -> dict:
        out = {}
        for key, value in self.pairs.items():
            if key.startswith(prefix + ".") and not key.endswith(".kind"):
                name = key[len(prefix) + 1:]
                floats = [_parse_float(key, t) for t in value.split(",")
                          if t.strip()]
                out[name] = floats if len(floats) > 1 else floats[0]
        return out

    # -- model construction --------------------------------------------------

    def _positive(self, key: str) -> float:
        val = self.get_float(key)
        if val <= 0:
            raise ConfigInvalid(key, f"must be positive, got {val}")
        return val

    def _rate(self, section: str) -> RateSpec:
        spec = RateSpec(self.get_str(f"{section}.kind"),
                        self._section_params(section))
        if spec.kind != "zero":
            c = self.get_float(f"{section}.c")
            if c < 0:
                raise ConfigInvalid(f"{section}.c",
                                    f"must be nonnegative, got {c}")
        return spec

    def model_params(self) -> ModelParams:
        d = self.get_int("grid.d")
        if d not in (1, 2):
            raise ConfigInvalid("grid.d", f"must be 1 or 2, got {d}")
        n = self.get_int("grid.n")
        if n < 2 or n & (n - 1):
            raise ConfigInvalid("grid.n", f"must be a power of two, got {n}")
        grid = GridSpec(d, n, self._positive("grid.L"))

        alpha = self.get_float("model.alpha")
        if alpha < 0:
            raise ConfigInvalid("model.alpha", f"must be nonnegative, got {alpha}")
        lambda_bar = self._positive("model.lambda_bar")
        birth = self._rate("birth")
        death = self._rate("death")
        if birth.sup() + death.sup() > lambda_bar + 1e-12:
            raise ConfigInvalid(
                "model.lambda_bar",
                f"sup(lambda_b + lambda_d) = {birth.sup() + death.sup()} "
                f"exceeds lambda_bar = {lambda_bar}")
        drift = DriftSpec(self.get_str("drift.kind"), self._section_params("drift"))
        mu0 = InitialMeasureSpec(self.get_str("init.mu0.kind"),
                                 self._section_params("init.mu0"))
        rho0 = InitialFieldSpec(self.get_str("init.rho0.kind"),
                                self._section_params("init.rho0"))

        dt = self._positive("run.dt")
        T = self._positive("run.T")
        if abs(T / dt - round(T / dt)) > 1e-9:
            raise ConfigInvalid("run.dt", f"T={T} is not a multiple of dt={dt}")
        width = self.get_float("kernel.width", 0.0)
        try:
            return ModelParams(
                grid=grid,
                sigma=self._positive("model.sigma"),
                D=self._positive("model.D"),
                r=self._positive("model.r"),
                alpha=alpha,
                lambda_bar=lambda_bar,
                birth=birth, death=death, drift=drift,
                mu0=mu0, rho0=rho0,
                dt=dt, T=T,
                kernel_width=width if width > 0 else None,
                population_cap=self.get_count("run.population_cap", 1_000_000),
                advection=self.get_str("macro.scheme", "auto"),
                lambda_arg=self.get_str("model.lambda_arg", "rho"),
            )
        except ValueError as exc:
            raise ConfigInvalid("model", str(exc)) from None

    def master_seed(self, override: int | None = None) -> int:
        if override is not None:
            return int(override)
        return self.get_int("run.seed")
