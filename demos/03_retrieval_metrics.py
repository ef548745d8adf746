"""Retrieval metrics: cosine ranking, AP/MAP, acc@K, and the CMC curve.

Works a tiny example by hand first, then evaluates a fitted model in both
query directions the way the benchmark does.
"""

import numpy as np

from xms import (
    average_precision,
    evaluate_direction,
    fit_method,
    make_synthetic_dataset,
    project,
    random_split,
    rank_by_cosine,
    subset,
)
from xms.dataset_io import FeatureMatrix

# hand example: one query against a three-item gallery
queries = FeatureMatrix(np.array([[1.0], [0.0]]))
gallery = FeatureMatrix(np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]))
(ranked,) = rank_by_cosine(queries, gallery)
print("gallery order:", ranked.gallery_order.tolist(), "similarities:", ranked.similarities.round(2).tolist())

# AP judges subclass relevance down the ranked list
print("AP with items {0, 1} relevant:", average_precision(ranked, {0, 1}))

# full protocol-style evaluation: project a test split, rank both directions
dataset = make_synthetic_dataset(n=150, c=3, d_a=32, d_b=32, seed=3)
train_idx, test_idx = random_split(dataset.n, n_train=110, seed=0)
train, test = subset(dataset, train_idx), subset(dataset, test_idx)
model = fit_method(train, "gmlda", pca={"mode": "energy", "value": 0.98}, hyperparams={"beta": 4.0})

proj_a = project(model, test.xa, "a")
proj_b = project(model, test.xb, "b")
for direction, (q, g) in {"a2b": (proj_a, proj_b), "b2a": (proj_b, proj_a)}.items():
    ev = evaluate_direction(q, g, test.labels, test.labels, direction)
    print(
        f"{direction}: MAP={ev.map:.3f} (subclass relevance), "
        f"acc@1={ev.acc_at_k[0]:.3f}, acc@5={ev.acc_at_k[4]:.3f} (instance-level), "
        f"CMC ends at {ev.acc_at_k[-1]:.0f}"
    )
