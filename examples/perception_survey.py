#!/usr/bin/env python3
"""Perception survey: why adaptive fovea sizing is imperceptible.

Reproduces the Sec. 3.1 image-quality survey *as a constraint check*: for
eccentricities from 40 down to 5 degrees it builds the adaptive partition
plan, verifies the MAR sampling constraint per layer, and prints the
mean-opinion-style quality score — flat at the ceiling while the
constraint holds, exactly the survey's finding.  It then shows what a
constraint-violating plan (periphery over-reduced beyond the MAR bound)
would score.

Run:
    python examples/perception_survey.py
"""

from dataclasses import replace

from repro import DisplayGeometry, FoveationModel
from repro.analysis.report import format_table
from repro.core.perception import check_plan, quality_score


def main() -> None:
    model = FoveationModel(DisplayGeometry(1920, 2160))
    rows = []
    for e1 in (40, 35, 30, 25, 20, 15, 10, 5):
        plan = model.plan(float(e1))
        verdict = check_plan(model, plan)
        rows.append(
            [
                e1,
                plan.e2_deg,
                plan.middle_scale,
                plan.outer_scale,
                verdict.passes,
                quality_score(model, plan),
            ]
        )
    print(
        format_table(
            ["e1 (deg)", "*e2 (deg)", "s_middle", "s_outer", "MAR ok", "score /5"],
            rows,
            title="Sec. 3.1 survey — adaptive plans under the MAR constraint",
        )
    )

    plan = model.plan(15.0)
    violating = replace(plan, middle_scale=plan.middle_scale * 6)
    print(
        f"\nOver-reduced periphery (6x beyond MAR): score "
        f"{quality_score(model, violating):.1f}/5 — participants would notice."
    )
    print(
        "While the MAR constraint holds, every eccentricity scores the "
        "ceiling: the survey's 'no visible difference' result."
    )


if __name__ == "__main__":
    main()
