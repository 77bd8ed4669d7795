"""Run configuration: seeds, budgets, certificate primes, output format.

Every randomized routine draws its generator from JobConfig.rng(label), so a
(seed, label) pair replays any search exactly; reports embed the config that
produced them.
"""

import random
from dataclasses import asdict, dataclass, replace
from typing import Tuple

from .numtheory import isprime


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
        for name in ("max_subspace_checks", "max_orbit_points", "iso_trials", "h90_retries"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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
        known = dict(data)
        if "primes" in known:
            known["primes"] = tuple(known["primes"])
        return JobConfig(**known)


DEFAULT_CONFIG = JobConfig()
