#!/usr/bin/env python3
"""Paged vs reserved KV: same fleet, same traffic, same KV budget.

Runs 30 seconds of reasoning traffic (2k prompt / 4k chain of thought)
against a single RPU decode pod whose KV budget is deliberately tight,
once with the conservative full-context reservation and once with the
paged (block-granular, preempting) allocator, and prints both SLO
reports plus the sweep across budgets.

Run:  python examples/paged_vs_reserved.py
"""

from repro.analysis.cluster_sweep import reservation_sweep
from repro.models import LLAMA3_70B
from repro.serving import (
    RequestGenerator,
    Reservation,
    disaggregated_cluster,
    reasoning_traffic,
    simulate,
)

KV_BUDGET_GB = 3.0


def main() -> None:
    traffic = RequestGenerator(
        classes=(reasoning_traffic(LLAMA3_70B),), rate_rps=2.0, seed=0
    )
    requests = traffic.generate(30.0)
    print(
        f"Traffic: {len(requests)} reasoning queries over 30 s, one RPU "
        f"decode pod, KV budget pinned to {KV_BUDGET_GB:.0f} GB\n"
    )

    for reservation in (Reservation.FULL, Reservation.PAGED):
        fleet = disaggregated_cluster(
            LLAMA3_70B,
            num_decode_pods=1,
            reservation=reservation,
            kv_budget_bytes=KV_BUDGET_GB * 1e9,
        )
        report = simulate(fleet, requests)
        print(report.summary_table(f"{reservation.value.upper()} reservation"))
        print()

    print("Sweep across KV budgets (same traffic):")
    for p in reservation_sweep(LLAMA3_70B, kv_budgets_gb=(3.0, 4.0, 6.0)):
        print(
            f"  {p['kv_budget_gb']:4.0f} GB {p['reservation'].value:5s}  "
            f"goodput {p['goodput']:5.0%}  {p['tokens_per_s']:6,.0f} tok/s  "
            f"occupancy {p['mean_decode_kv_occupancy']:4.0%}  "
            f"preemptions {p['preemptions']}"
        )


if __name__ == "__main__":
    main()
