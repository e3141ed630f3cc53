"""Shared retry/backoff policy for every recovery layer.

The pool backend's worker processes and the distributed backend's rank
threads need the same decision ("how many times, with what backoff,
under what deadline?") made consistently.  :class:`RetryPolicy`
centralizes it:

* ``resubmits`` — how many times a failed unit is re-submitted to its
  original executor (pool worker / rank) before falling back to the
  layer's last resort (inline recovery in the parent, or rescheduling
  the range across survivors);
* ``backoff_s`` / ``backoff_factor`` — exponential backoff between
  attempts (0 by default: tests and simulations should not sleep);
* ``deadline_s`` — per-unit detection deadline, the same for both
  units: a pool chunk that has not answered within it is declared lost,
  and it is the TTL of a distributed lease, which expires (and is
  stolen) when its rank stays silent inside a search that long.
  ``None``: no detector — a hung unit is only slow;
* ``straggler_after_s`` — soft threshold: a unit that *completes* but
  took longer than this is recorded as a detected straggler (its result
  is kept — slow is not wrong).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    resubmits: int = 0
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    deadline_s: "float | None" = None
    straggler_after_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.resubmits < 0:
            raise ValueError("resubmits must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @property
    def max_attempts(self) -> int:
        """Total executor attempts before the last-resort path."""
        return 1 + self.resubmits

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_s * self.backoff_factor ** (attempt - 1)

    def sleep_before(self, attempt: int) -> None:
        delay = self.backoff(attempt)
        if delay > 0:
            time.sleep(delay)

    def is_straggler(self, wall_seconds: float) -> bool:
        return (
            self.straggler_after_s is not None
            and wall_seconds > self.straggler_after_s
        )
