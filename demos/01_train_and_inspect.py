"""Train a self-organizing map on the bundled Iris table and look inside.

Walks through the basic objects: the dataset, the trained map, per-cell
populations and statistics, and the quantization error before and after
training.
"""

import numpy as np

import somblocks as sb

iris = sb.load_csv(sb.iris_path(), label_column="class")
print(f"dataset: {iris.n_samples} samples x {iris.n_attributes} attributes")
print("classes:", iris.classes())

summary = sb.summarize(iris)
print("per-attribute min:", summary.mins)
print("per-attribute max:", summary.maxs)

config = sb.SomConfig(rows=5, cols=5, seed=2)
untrained = sb.initialize(iris, config)
som_map = sb.train(iris, config)

print(f"\nquantization error: {sb.quantization_error(untrained, iris):.4f} untrained "
      f"-> {sb.quantization_error(som_map, iris):.4f} trained")

populations = som_map.counts.reshape(5, 5)
print("\ncell populations (conscience keeps them balanced):")
print(populations)

print("\nper-class populations per cell:")
print(sb.render_map(som_map, labels=iris.labels))

# a cell's statistics feed everything downstream
pe = som_map.pe(0, 0)
print(f"cell (0,0): n={pe.n}, mean={np.round(pe.mean, 2)}, std={np.round(pe.std, 2)}")
