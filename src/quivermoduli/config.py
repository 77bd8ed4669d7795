"""Run configuration: seeds, budgets, certificate primes, output format.

Every randomized routine draws its generator from JobConfig.rng(label), so a
(seed, label) pair replays any search exactly; reports embed the config that
produced them.
"""

import random
from dataclasses import asdict, dataclass, replace
from typing import Tuple

from .numtheory import isprime


_BUDGETS = ("max_subspace_checks", "max_orbit_points", "iso_trials", "h90_retries")


@dataclass(frozen=True)
class JobConfig:
    seed: int = 0
    max_subspace_checks: int = 1_000_000
    max_orbit_points: int = 1_000_000
    iso_trials: int = 64
    h90_retries: int = 48
    primes: Tuple[int, ...] = (5, 13, 17, 29)
    output_format: str = "table"

    def __post_init__(self):
        for name in ("seed",) + _BUDGETS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _BUDGETS:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output_format not in ("json", "table"):
            raise ValueError(f"output_format must be json or table, got {self.output_format!r}")
        try:
            primes = tuple(self.primes)
        except TypeError:
            raise ValueError(f"primes must be a list of primes, got {self.primes!r}") from None
        object.__setattr__(self, "primes", primes)  # hashable, as certificate memo keys need
        if not self.primes:
            raise ValueError("primes must name at least one prime")
        for p in self.primes:
            if not isinstance(p, int) or not isprime(p):
                raise ValueError(f"primes: {p!r} is not a prime")

    def rng(self, label):
        """Deterministic generator derived from the seed and a purpose label."""
        return random.Random(f"{self.seed}:{label}")

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def to_dict(self):
        d = asdict(self)
        d["primes"] = list(self.primes)
        return d

    @staticmethod
    def from_dict(data):
        """The config with data's fields; a key that names no field is a
        ValueError, so a misspelled key cannot fall back to its default."""
        unknown = [k for k in data if k not in JobConfig.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        return JobConfig(**data)


DEFAULT_CONFIG = JobConfig()
