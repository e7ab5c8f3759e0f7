"""Retry pacing: exponential backoff with seeded, deterministic jitter.

The executor used to re-submit failed jobs immediately, which turns a
transiently sick pool (an OOM-killed worker, a loaded host) into a tight
crash loop.  :class:`RetryPolicy` spaces attempts exponentially and jitters
each delay by a hash of ``(seed, key, attempt)`` — the same run always waits
the same amounts, so wall-clock-sensitive tests and CI stay reproducible
while concurrent retries still decorrelate.  The policy is a frozen
pure-data schedule; callers bound the number of attempts (and, like the
executor, any wall-clock deadline) themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Delay schedule for attempt ``n`` (1-based) of a retried operation."""

    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    #: Jitter amplitude as a fraction of the raw delay: the final delay is
    #: ``raw * (1 + jitter * u)`` with ``u`` uniform in [-1, 1).
    jitter: float = 0.25
    seed: int = 0

    def delay(self, attempt: int, key: object = "") -> float:
        """Seconds to wait before attempt ``attempt`` (first retry = 1)."""
        if attempt < 1 or self.base_delay_s <= 0:
            return 0.0
        raw = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** (attempt - 1),
        )
        blob = f"{self.seed}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        u = int.from_bytes(digest[:8], "big") / 2**63 - 1.0  # [-1, 1)
        return max(0.0, raw * (1.0 + self.jitter * u))
