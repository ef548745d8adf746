"""Fitting subspace methods and projecting both modalities.

Walks through the nine fitters on one training split, shows what each model
carries (dimensions, hyperparameters, objective traces, timings), and
projects held-out pairs into the shared space.
"""

import numpy as np

from xms import (
    fit_method,
    make_synthetic_dataset,
    project,
    random_split,
    save_model,
    load_model,
    subset,
)

dataset = make_synthetic_dataset(n=200, c=3, d_a=48, d_b=48, seed=1)
train_idx, test_idx = random_split(dataset.n, n_train=150, seed=0)
train = subset(dataset, train_idx)
test = subset(dataset, test_idx)

pca = {"mode": "energy", "value": 0.98}
lineup = [
    ("cca", dict(pca=pca)),
    ("pls", dict(pca=pca)),
    ("blm", dict(pca=pca)),
    ("gmlda", dict(pca=pca, hyperparams={"beta": 4.0})),
    ("gmmfa", dict(pca=pca, hyperparams={"beta": 4.0})),
    ("cdfe", dict(pca=pca)),
    ("cca3v", dict(pca=pca)),
    ("lcfs", dict(hyperparams={"lambda1": 0.01, "lambda2": 0.01})),
    ("jfssl", dict(hyperparams={"lambda1": 0.01, "lambda2": 0.01})),
]

print(f"{'method':>8s} {'d':>3s} {'fit_s':>7s}  notes")
for name, kwargs in lineup:
    model = fit_method(train, name, **kwargs)
    notes = ""
    if "canonical_correlations" in model.metadata:
        top = model.metadata["canonical_correlations"][:3]
        notes = "top correlations " + ", ".join(f"{c:.3f}" for c in top)
    if model.objective_trace is not None:
        trace = model.objective_trace
        notes = f"objective {trace[0]:.4g} -> {trace[-1]:.4g} in {len(trace) - 1} steps"
    print(f"{name:>8s} {model.d:>3d} {model.fit_seconds:>7.3f}  {notes}")

# projection applies the stored preprocessing (PCA + centering) internally,
# so it consumes raw-space features
model = fit_method(train, "cca", pca=pca)
proj_a = project(model, test.xa, "a")
proj_b = project(model, test.xb, "b")
pair_cosines = np.einsum("ij,ij->j", proj_a.values, proj_b.values) / (
    np.linalg.norm(proj_a.values, axis=0) * np.linalg.norm(proj_b.values, axis=0)
)
print(f"\nCCA true-pair cosine on held-out pairs: mean={pair_cosines.mean():.3f}")

# models serialize to a single file: JSON header + binary matrix blocks
save_model(model, "/tmp/demo_model.xms")
reloaded = load_model("/tmp/demo_model.xms")
print("round trip identical:", np.array_equal(reloaded.wa, model.wa))
