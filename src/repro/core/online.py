"""Online allocation: the stateful policy ABC.

The fixed-population protocol hands every policy the *entire* fleet each
slot.  Under churn the population changes between slots, so online
policies additionally read two fields of the one
:class:`~repro.core.types.AllocationContext` every policy gets:

* **identity** — ``vm_ids``, which global VM each row of the context
  refers to, so placement state (who runs where) survives across calls
  even as the row order shifts with arrivals/departures;
* **history** — ``last_cpu``/``last_mem``, the utilization actually
  observed during the previous slot, the signal reactive threshold
  detectors trigger on (day-ahead forecasts remain available for
  forecast-assisted detection).

Day-ahead policies ignore both and keep working unchanged — that is
what makes the paper's EPACT directly comparable with the online
policies in one engine.
"""

from __future__ import annotations

from abc import abstractmethod

from .types import AllocationPolicy


class OnlinePolicy(AllocationPolicy):
    """A stateful allocation policy driven by the online cloud engine.

    Online policies keep their placement between calls (the defining
    difference from the day-ahead policies, which re-pack from scratch)
    keyed by ``ctx.vm_ids``, and must place every active VM.  Because
    that state spans the whole population, an online policy cannot run
    shard by shard
    (:class:`~repro.shard.policy.ShardedPolicy` refuses it).

    The engine calls :meth:`reset` at the start of every simulation so a
    policy instance can be reused across runs deterministically.
    """

    @abstractmethod
    def reset(self) -> None:
        """Drop all placement state (start of a fresh simulation)."""
