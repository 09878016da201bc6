"""EXP-EST — estimate-only strategy choice vs measured reality.

The §II-D "automatizing the choice" problem, estimation route: how
close do the sampling estimator and the calibrated cost model get to
the measured quantities, and how much cheaper is asking the estimator
than running the measured advisor?
"""

import pytest

from repro.analysis import (best_of, calibrate, estimate_inferred_triples,
                            estimate_saturation_seconds,
                            quick_recommendation)
from repro.db import WorkloadProfile, recommend_strategy
from repro.reasoning import saturate
from repro.workloads import workload_query

from conftest import save_report


@pytest.fixture(scope="module")
def calibration():
    return calibrate()


@pytest.mark.parametrize("sample_size", [50, 200, 800])
def test_estimator_cost(benchmark, sample_size, lubm_2dept):
    estimate = benchmark(lambda: estimate_inferred_triples(
        lubm_2dept, sample_size=sample_size))
    assert estimate > 0


def test_quick_recommendation_cost(benchmark, lubm_2dept, calibration):
    queries = [(workload_query("Q1"), 100.0)]
    result = benchmark(lambda: quick_recommendation(
        lubm_2dept, queries, calibration=calibration))
    assert result["recommended"] in ("saturation", "reformulation")


def test_measured_advisor_cost(benchmark, lubm_2dept):
    profile = WorkloadProfile(queries=((workload_query("Q1"), 100.0),))
    advice = benchmark.pedantic(
        lambda: recommend_strategy(lubm_2dept, profile, repeat=1),
        rounds=2, iterations=1)
    assert advice.recommended is not None


def test_estimation_report(benchmark, lubm_2dept, calibration):
    def build() -> str:
        actual = saturate(lubm_2dept)
        lines = ["EXP-EST — estimated vs measured",
                 f"graph: {len(lubm_2dept)} triples", ""]
        lines.append(f"{'quantity':>32} {'estimated':>11} {'measured':>10}")
        lines.append("-" * 56)
        for sample in (50, 200, 10**6):
            estimate = estimate_inferred_triples(lubm_2dept,
                                                 sample_size=sample)
            label = f"inferred (sample={sample})" if sample < 10**6 \
                else "inferred (exact derivations)"
            lines.append(f"{label:>32} {estimate:11.0f} {actual.inferred:10}")
        estimated_seconds = estimate_saturation_seconds(lubm_2dept,
                                                        calibration)
        lines.append(f"{'saturation ms':>32} "
                     f"{estimated_seconds * 1000:11.1f} "
                     f"{actual.seconds * 1000:10.1f}")
        lines.append("")
        lines.append(f"calibration: {calibration.describe()}")
        return "\n".join(lines)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("exp_est_estimation", report)

    # the estimate-based and measured advisors agree on a clear-cut case
    queries = ((workload_query("Q1"), 300.0),)
    quick = quick_recommendation(lubm_2dept, list(queries),
                                 calibration=calibration)
    measured = recommend_strategy(lubm_2dept,
                                  WorkloadProfile(queries=queries),
                                  repeat=1)
    assert quick["recommended"] == measured.recommended.value
