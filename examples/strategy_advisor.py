#!/usr/bin/env python3
"""Automating the saturation/reformulation choice (Section II-D).

The paper lists as an open problem "automatizing to the extent
possible the choice between these two techniques, based on a
quantitative evaluation of the application setting".  This example
profiles three archetypal application settings on a generated
university dataset and lets the advisor measure and decide:

* an *analytics* portal: many queries, data practically static;
* a *live integration* hub: constant instance and schema churn,
  queries are rare;
* a *mixed* dashboard in between.

Run:  python examples/strategy_advisor.py
"""

from repro import WorkloadProfile, recommend_strategy
from repro.workloads import LUBMConfig, generate_lubm, workload_query


def main() -> None:
    graph = generate_lubm(LUBMConfig(departments=2))
    print(f"university dataset: {len(graph)} triples\n")

    q_person = workload_query("Q1")      # wide reformulation
    q_members = workload_query("Q4")     # cheap reformulation
    q_professors = workload_query("Q5")  # leaf class

    profiles = {
        "analytics portal (query-heavy, static data)": WorkloadProfile(
            queries=((q_person, 500.0), (q_professors, 300.0)),
        ),
        "live integration hub (update-heavy)": WorkloadProfile(
            queries=((q_members, 5.0),),
            instance_insert_rate=40.0,
            instance_delete_rate=20.0,
            schema_insert_rate=4.0,
            schema_delete_rate=2.0,
            update_batch_size=10,
        ),
        "mixed dashboard": WorkloadProfile(
            queries=((q_person, 30.0), (q_members, 30.0)),
            instance_insert_rate=10.0,
            update_batch_size=10,
        ),
    }

    for name, profile in profiles.items():
        print(f"--- {name} ---")
        advice = recommend_strategy(graph, profile, repeat=2)
        print(advice.summary())
        print(f"  measured maintenance costs (ms/batch): " + ", ".join(
            f"{kind}={cost * 1000:.1f}"
            for kind, cost in advice.maintenance_costs.items()
            if cost > 0.0) or "  (no updates)")
        print()


if __name__ == "__main__":
    main()
