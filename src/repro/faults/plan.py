"""Deterministic, seedable fault-injection plans.

The paper's runs spanned up to 1000 Summit nodes, where a lost rank or a
walltime kill is routine; testing the recovery machinery on real
hardware failures is neither deterministic nor CI-friendly.  A
:class:`FaultPlan` is the substitute: an explicit list of
:class:`FaultSpec` events ("rank 1 crashes on arg-max call 0", "rank
2 hangs on call 1", "rank 3 leaves once the solve is 20 % done") that
the execution layers consult at two injection points —
:func:`repro.core.distributed.run_lease` for a rank holding a lease on
either backend's rank threads (distributed or pool), and the fleet's
membership (:class:`repro.cluster.elastic.ElasticSPMDRunner`).  Each
site takes only the kinds it acts on (:data:`SITE_KINDS`).

Every spec fires a bounded number of times (``count``; ``-1`` =
persistent, e.g. a node that stays dead), so an injected failure either
recovers under retry or forces rescheduling — and the whole scenario
replays identically on every run.  ``FaultPlan.random(seed=...)``
derives a plan from a seed for randomized-but-reproducible campaigns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["FAULT_KINDS", "FAULT_SITES", "FaultPlan", "FaultSpec"]

#: Injection point -> the fault kinds it acts on: a rank holding a lease
#: (on either fleet) crashes, hangs or straggles; the fleet's membership
#: takes ``join`` / ``leave``, churn events rather than failures — a
#: ``join`` registers ``target`` new ranks mid-solve, a ``leave`` drains
#: rank ``target`` (its leases are forfeited back to the pool).
SITE_KINDS = {
    "rank": ("crash", "hang", "straggler"),
    "membership": ("join", "leave"),
}

FAULT_SITES = tuple(SITE_KINDS)
FAULT_KINDS = tuple(dict.fromkeys(k for kinds in SITE_KINDS.values() for k in kinds))


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    kind:
        ``"crash"`` (the unit dies), ``"hang"`` (it blocks past any
        deadline), ``"straggler"`` (it is slow but correct),
        ``"join"`` / ``"leave"`` (membership churn).
    site:
        Where the fault fires; it must take ``kind`` (see
        :data:`SITE_KINDS`).
    target:
        Site-local index: rank (rank, leave), number of new ranks
        (join).
    at_call:
        Which arg-max call (greedy iteration) the fault fires on;
        ``None`` matches any call.
    count:
        How many times the fault fires before it is spent.  ``1``
        (default) models a transient fault, ``-1`` a persistent one
        (a dead node stays dead — retry cannot help, only
        rescheduling or a checkpoint can).
    delay_s:
        Sleep injected for ``hang`` / ``straggler``.
        For ``membership``-site churn specs this is instead the
        **progress fraction** (completed leases / total leases, in
        ``[0, 1]``) the solve must reach before the churn fires — a
        deterministic "mid-solve" trigger that does not depend on wall
        time.
    """

    kind: str
    site: str
    target: int = 0
    at_call: "int | None" = None
    count: int = 1
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}")
        if self.kind not in SITE_KINDS[self.site]:
            raise ValueError(
                f"the {self.site} site takes {'/'.join(SITE_KINDS[self.site])},"
                f" not {self.kind!r}"
            )
        if self.count == 0:
            raise ValueError("count must be positive or -1 (persistent)")


@dataclass
class FaultPlan:
    """An ordered set of planned faults with one-shot matching.

    ``take(site, target, call)`` returns the first matching live spec
    and decrements its remaining count; a spent spec never fires again,
    so a retried or rescheduled unit of work sees a clean execution.
    Matching is thread-safe (fleet ranks run on threads).
    """

    specs: tuple[FaultSpec, ...] = ()
    _remaining: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        self._remaining = {i: s.count for i, s in enumerate(self.specs)}

    def take(self, site: str, target: int, call: "int | None" = None) -> "FaultSpec | None":
        """Consume and return the first live fault matching the site event."""
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site or spec.target != target:
                    continue
                if spec.at_call is not None and call is not None and spec.at_call != call:
                    continue
                left = self._remaining[i]
                if left == 0:
                    continue
                if left > 0:
                    self._remaining[i] = left - 1
                return spec
        return None

    def take_churn(self, call: "int | None", fraction: float) -> "list[FaultSpec]":
        """Consume every membership churn spec that is due.

        A ``membership``-site spec fires once the solve's completed-lease
        ``fraction`` reaches its ``delay_s`` threshold (and its
        ``at_call`` matches).  All due specs are consumed and returned
        together, in plan order, so a simultaneous leave+join scenario
        (±20 % fleet swap) applies atomically between grant rounds.
        """
        fired: "list[FaultSpec]" = []
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != "membership":
                    continue
                if spec.at_call is not None and call is not None and spec.at_call != call:
                    continue
                if fraction < spec.delay_s:
                    continue
                left = self._remaining[i]
                if left == 0:
                    continue
                if left > 0:
                    self._remaining[i] = left - 1
                fired.append(spec)
        return fired

    @classmethod
    def churn(
        cls,
        n_ranks: int,
        fraction: float = 0.2,
        at_call: "int | None" = None,
        leave_at: float = 0.2,
        join_at: float = 0.4,
    ) -> "FaultPlan":
        """A ±``fraction`` fleet-size scenario: the highest-numbered
        ``round(n_ranks * fraction)`` ranks leave once the solve is
        ``leave_at`` done, and the same number of fresh ranks join at
        ``join_at`` — the mid-solve churn shape of the elastic benchmark.
        """
        k = max(1, round(n_ranks * fraction))
        leaves = tuple(
            FaultSpec(
                kind="leave", site="membership", target=n_ranks - 1 - i,
                at_call=at_call, delay_s=leave_at,
            )
            for i in range(min(k, n_ranks - 1))  # never drain the last rank
        )
        join = FaultSpec(
            kind="join", site="membership", target=k,
            at_call=at_call, delay_s=join_at,
        )
        return cls(specs=leaves + (join,))

    @classmethod
    def random(
        cls,
        seed: int,
        n_faults: int = 3,
        max_target: int = 4,
        max_call: int = 3,
        delay_s: float = 0.05,
    ) -> "FaultPlan":
        """Derive a reproducible plan of ``rank``-site faults from a seed
        (same seed, same plan)."""
        import random as _random

        rng = _random.Random(seed)
        # One site left to draw from, but the draw still advances the
        # generator: keep it so a seed gives the plan it always gave.
        specs = tuple(
            FaultSpec(
                kind=rng.choice(SITE_KINDS["rank"]),
                site=rng.choice(("rank",)),
                target=rng.randrange(max_target),
                at_call=rng.randrange(max_call),
                delay_s=delay_s,
            )
            for _ in range(n_faults)
        )
        return cls(specs=specs)

    def describe(self) -> str:
        lines = [f"FaultPlan: {len(self.specs)} planned faults"]
        with self._lock:
            for i, s in enumerate(self.specs):
                left = self._remaining[i]
                state = "persistent" if left < 0 else f"{left} left"
                at = "any call" if s.at_call is None else f"call {s.at_call}"
                lines.append(
                    f"  {s.kind:10s} @ {s.site}/{s.target} ({at}) [{state}]"
                )
        return "\n".join(lines)
