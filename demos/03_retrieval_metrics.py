"""Retrieval metrics: cosine ranking, AP/MAP, acc@K, and the CMC curve.

Works a tiny example by hand first, then evaluates a fitted model in both
query directions the way the benchmark does.
"""

import numpy as np

from xms import evaluate_direction, fit_method, make_synthetic_dataset, project, random_split, subset
from xms.dataset_io import FeatureMatrix

# hand example: one query against a three-item gallery, which cosine similarity ranks
# item 0 (similarity 1), item 1 (0), item 2 (-1); item 0 is the query's true match
queries = FeatureMatrix(np.array([[1.0], [0.0]]))
gallery = FeatureMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]))

# AP judges subclass relevance down the ranked list: hits so far / rank at each relevant item
for gallery_labels, relevant in (([1, 1, 2], "{0, 1}"), ([1, 2, 1], "{0, 2}")):
    ev = evaluate_direction(queries, gallery, [1], gallery_labels)
    print(f"AP with items {relevant} relevant: {ev['per_query_ap'][0]:.3f}, CMC: {ev['cmc'].tolist()}")

# full protocol-style evaluation: project a test split, rank both directions
dataset = make_synthetic_dataset(n=150, c=3, d_a=32, d_b=32, seed=3)
train_idx, test_idx = random_split(dataset.n, n_train=110, seed=0)
train, test = subset(dataset, train_idx), subset(dataset, test_idx)
model = fit_method(train, "gmlda", pca={"mode": "energy", "value": 0.98}, hyperparams={"beta": 4.0})

proj_a = project(model, test.xa, "a")
proj_b = project(model, test.xb, "b")
for direction, (q, g) in {"a2b": (proj_a, proj_b), "b2a": (proj_b, proj_a)}.items():
    ev = evaluate_direction(q, g, test.labels, test.labels)
    cmc = ev["cmc"]
    print(
        f"{direction}: MAP={ev['map']:.3f} (subclass relevance), "
        f"acc@1={cmc[0]:.3f}, acc@5={cmc[4]:.3f} (instance-level), "
        f"CMC ends at {cmc[-1]:.0f}"
    )
