"""Selector perturbations: any positive strength produces the same report.

A mixture flow (strength zero) blends every enumerated machine's word
measure, so it settles near the enumeration's weighted blend and stays
bounded away from the target.  Any positive strength engages the selector,
which routes to the target machine exactly and makes the report independent
of the numeric strength value.
"""

from fractions import Fraction

from groundlab.machines import corpus, machine_enumeration
from groundlab.perturbation import perturbed_flow, report_accumulation

machines = corpus()
base = machines["constant-u"]
target = machines["fair-coin"]
enum, digest = machine_enumeration()

mix = perturbed_flow(base, target, Fraction(0), depth=1, horizon=10,
                     index=1, enumeration=enum)
print(f"mode={mix.mode}: distance to target by scale")
for k, d in mix.dist_to_target:
    print(f"  k={k:2d}  dist={float(d):.4f}")

reports = [perturbed_flow(base, target, eps, depth=1, horizon=10,
                          index=1, enumeration=enum)
           for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(1))]
bodies = {r.to_json() for r in reports}
print(f"\nmode={reports[0].mode}: {len(reports)} strengths, "
      f"{len(bodies)} distinct report body (strength-independent)")
print("final distance to target:",
      float(reports[0].dist_to_target[-1][1]))

acc = report_accumulation(reports[0], window=4)
print(f"accumulation verdict over last 4 scales: {acc.verdict} "
      f"({len(acc.representatives)} cluster)")
