"""Partition a trained map into blocks by marginal-likelihood cost.

The partitioner treats every candidate block as one constant value per
attribute observed through Gaussian noise, integrates the unknown value out
against a flat prior of width R, and keeps whichever split/merge structure
has the lowest total negative log likelihood.  No cluster count is assumed
anywhere; three blocks emerge from the data.
"""

import somblocks as sb

iris = sb.load_csv(sb.iris_path(), label_column="class")
som_map = sb.train(iris, sb.SomConfig(rows=5, cols=5, seed=2))

params = sb.params_from_summary(sb.summarize(iris))
print("range R per attribute (twice the observed maxima):", params.R)
print("width floor per attribute:", params.sigma_floor)

# the two stages, shown separately, sharing one cost engine
costs = sb.BlockCosts(som_map, params)
tiles = sb.quadtree_split(costs)
print(f"\nquadtree split -> {len(tiles)} rectangular tiles")
partition = sb.merge_regions(tiles, costs)
print(f"merge pass -> {partition.n_blocks} blocks, total cost {partition.cost:.3f}")

report = sb.score(partition, som_map, iris.labels)
print(f"\naccuracy {report.p_o:.3f}, kappa {report.kappa:.3f}")
print()
print(sb.render_map(som_map, partition, iris.labels))
print(sb.render_report(report))

# reference points: the label oracle above, trivial partitions below
oracle = sb.oracle_partition(som_map, iris.labels)
oracle_rep = sb.score(oracle, som_map, iris.labels)
print(f"label-oracle partition: {oracle.n_blocks} blocks, "
      f"accuracy {oracle_rep.p_o:.3f}, kappa {oracle_rep.kappa:.3f}")
