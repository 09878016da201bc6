"""EXP-SAT — saturation cost and size blow-up ([12]-style).

Sweeps graph scale and rule-set expressiveness, reporting what the
paper's Section II-B states qualitatively: saturation "requires time
to be computed and space to be stored", and both grow with the rule
set's expressive power.
"""

import pytest

from repro.reasoning import RDFS_FULL, RDFS_PLUS, RHO_DF, saturate
from repro.workloads import LUBMConfig, generate_lubm

from conftest import save_report

RULESETS = {"rhodf": RHO_DF, "rdfs-full": RDFS_FULL, "rdfs-plus": RDFS_PLUS}


@pytest.mark.parametrize("backend", ["hash", "columnar"])
@pytest.mark.parametrize("scale", [1, 2, 4])
def test_saturation_scaling(benchmark, scale, backend, request):
    """Saturation time vs graph size (ρdf rule set, both engines auto)."""
    suffix = "_columnar" if backend == "columnar" else ""
    graph = request.getfixturevalue(f"lubm_{scale}dept{suffix}")
    result = benchmark(lambda: saturate(graph))
    assert result.inferred > 0


@pytest.mark.parametrize("backend", ["hash", "columnar"])
@pytest.mark.parametrize("ruleset_name", list(RULESETS))
def test_saturation_by_ruleset(benchmark, ruleset_name, backend, request):
    """Saturation time vs rule-set expressive power."""
    suffix = "_columnar" if backend == "columnar" else ""
    graph = request.getfixturevalue(f"lubm_1dept{suffix}")
    ruleset = RULESETS[ruleset_name]
    result = benchmark(lambda: saturate(graph, ruleset))
    assert result.inferred > 0


@pytest.mark.parametrize("engine", ["schema-aware", "seminaive",
                                    "seminaive-batch"])
def test_engine_comparison(benchmark, engine, lubm_1dept, lubm_1dept_columnar):
    """Schema-aware fast path vs the generic tuple-at-a-time semi-naive
    engine vs the set-at-a-time semi-naive engine in identifier space
    (on its native columnar backend) — ABL-SETWISE is ``seminaive``
    against ``seminaive-batch``."""
    graph = (lubm_1dept_columnar if engine == "seminaive-batch"
             else lubm_1dept)
    result = benchmark(lambda: saturate(graph, RHO_DF, engine=engine))
    assert result.engine == engine


def test_saturation_report(benchmark, lubm_1dept, lubm_2dept, lubm_4dept):
    """Blow-up table: scale x rule set -> (saturated size, factor)."""

    def build() -> str:
        lines = ["EXP-SAT — saturation size blow-up",
                 f"{'graph':>8} {'ruleset':>10} {'base':>7} {'saturated':>10} "
                 f"{'blowup':>7} {'ms':>8}",
                 "-" * 58]
        for label, graph in (("1 dept", lubm_1dept), ("2 dept", lubm_2dept),
                             ("4 dept", lubm_4dept)):
            for name, ruleset in RULESETS.items():
                result = saturate(graph, ruleset)
                lines.append(
                    f"{label:>8} {name:>10} {result.base_size:7} "
                    f"{result.saturated_size:10} {result.blowup:7.2f} "
                    f"{result.seconds * 1000:8.1f}")
        return "\n".join(lines)

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    save_report("exp_sat_saturation", report)

    # shape: rdfs-full infers strictly more than rhodf
    rhodf = saturate(lubm_1dept, RHO_DF).saturated_size
    full = saturate(lubm_1dept, RDFS_FULL).saturated_size
    assert full > rhodf
