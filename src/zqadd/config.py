"""Run configuration shared by the CLI and the verification suite."""

from __future__ import annotations

import random
from dataclasses import dataclass

# the builtin module has the same sha256 as hashlib without mapping OpenSSL
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


PROFILES = ("smoke", "desk", "deep")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    workers: int = 1
    profile: str = "desk"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")
        if self.workers < 1:
            raise ValueError("workers must be positive")

    def derived_seed(self, label: str) -> int:
        """A stable per-task seed: independent tasks get independent
        streams regardless of scheduling order."""
        # the "/0" suffix stays so that every seeded report keeps its bytes
        digest = sha256(f"{self.seed}/{label}/0".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def rng(self, label: str) -> random.Random:
        return random.Random(self.derived_seed(label))
