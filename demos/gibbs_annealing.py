"""Cooling a toy two-tile model: marker coverage rises with beta.

Tiles A and B are freely compatible, but every B costs energy.  As beta
grows, Metropolis chains concentrate on A-rich configurations, so coverage
by the single-cell marker "A" climbs toward 1.  With real budgets the same
pipeline runs the full aperiodic tileset (see the gibbs CLI subcommand).
"""

from groundlab.gibbs import Potential, coverage_sweep, spearman_rank
from groundlab.markers import MarkerSet
from groundlab.tiles import EdgeLabel, Patch, Tile, Tileset

lab = EdgeLabel(None, None, None, None, None)
ts = Tileset([Tile("A", lab, lab, lab, lab), Tile("B", lab, lab, lab, lab)])
pot = Potential.from_patterns([((("B",),), 1)])
markers = MarkerSet([Patch.from_ids([["A"]])])

betas = [0.0, 0.5, 1.0, 2.0, 4.0]
rows = coverage_sweep(ts, pot, markers, side=6, beta_list=betas,
                      steps=4000, seeds=[1, 2, 3])
print("beta   mean coverage   stderr")
for row in rows:
    print(f"{row['beta']:4.1f}   {row['mean_coverage']:.4f}         "
          f"{row['stderr']:.4f}")
print("\nrank correlation beta vs coverage:",
      spearman_rank(betas, [r["mean_coverage"] for r in rows]))
