#!/usr/bin/env python3
"""Online cloud walkthrough: churn, reactive consolidation, SLA metrics.

The "Consolidating or Not?" question under a churning population:

1. build a named workload scenario (traces + VM lifecycle schedule),
2. run the paper's day-ahead EPACT and the online policies over it,
3. compare energy, SLA-violation rate and migration churn.

Run with:  PYTHONPATH=src python examples/cloud_churn.py
"""

from repro.baselines import OnlineBestFitPolicy, OnlineReactivePolicy
from repro.cloud import get_scenario, list_scenarios, sla_table
from repro.core import EpactPolicy
from repro.dcsim import run_policies
from repro.forecast import DayAheadPredictor


def main() -> None:
    print("registered cloud scenarios:")
    for name, description in list_scenarios().items():
        print(f"  {name:14s} {description}")

    # A diurnal-burst cloud: arrivals follow the business day.  The
    # schedule is fully seeded — the same call always reproduces the
    # identical arrival/departure/resize sequence.
    scenario = get_scenario("diurnal-burst")
    dataset, schedule = scenario.build(n_vms=120, n_days=9, n_slots=48)
    arrivals, departures = schedule.churn_in(
        schedule.horizon_start, schedule.horizon_end
    )
    print(
        f"\nscenario '{scenario.name}': {dataset.n_vms} VM pool, "
        f"{arrivals} arrivals / {departures} departures over two days"
    )

    # Day-ahead EPACT vs online placement-only vs online reactive over
    # the churning population: the schedule is the runner's
    # schedule= argument.  (Pass jobs=N to fan the policies over a
    # process pool.)
    predictor = DayAheadPredictor(dataset)
    results = run_policies(
        dataset,
        predictor,
        [EpactPolicy(), OnlineBestFitPolicy(), OnlineReactivePolicy()],
        schedule=schedule,
        max_servers=120,
        n_slots=48,
    )
    print()
    print(sla_table(results))
    print(
        "\nEPACT re-packs the whole cloud every slot (lowest energy, "
        "heaviest migration churn);\nONLINE-BF never migrates but "
        "overloads servers; ONLINE-REACTIVE buys most of the\nenergy "
        "saving for a few targeted migrations."
    )


if __name__ == "__main__":
    main()
