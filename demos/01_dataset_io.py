"""Datasets: generation, on-disk formats, validation, and splits.

Creates a synthetic paired-modality dataset, writes it in both the CSV and
binary layouts, loads it back, and draws the repeated-protocol splits.
"""

import tempfile
from pathlib import Path

import numpy as np

from xms import encode_labels, load_dataset, make_synthetic_dataset, random_split, save_dataset, subset

# a paired dataset: photos-like view a, sketches-like view b, 3 subclasses
dataset = make_synthetic_dataset(n=120, c=3, d_a=32, d_b=32, seed=42)
print(f"dataset: n={dataset.n} pairs, c={dataset.c} classes, d_a={dataset.d_a}, d_b={dataset.d_b}")
print(f"class sizes: {np.bincount(dataset.labels)[1:].tolist()}")

with tempfile.TemporaryDirectory() as tmp:
    csv_dir = Path(tmp) / "as_csv"
    bin_dir = Path(tmp) / "as_binary"
    save_dataset(dataset, csv_dir, fmt="csv")
    save_dataset(dataset, bin_dir, fmt="binary")
    print("\nfiles in the CSV layout:", sorted(p.name for p in csv_dir.iterdir()))
    print("files in the binary layout:", sorted(p.name for p in bin_dir.iterdir()))

    # loading validates shapes, finiteness, and the label range
    reloaded = load_dataset(bin_dir)
    print("binary round trip exact:", np.array_equal(reloaded.xa.values, dataset.xa.values))

# the repeated protocol draws one split per repetition: seed = base_seed + r
train_idx, test_idx = random_split(dataset.n, n_train=90, seed=0)
train = subset(dataset, train_idx)
test = subset(dataset, test_idx)
print(f"\nsplit with seed 0: train={train.n}, test={test.n}, disjoint={not set(train_idx) & set(test_idx)}")

# one-hot labels, as consumed by the label-regression methods
onehot = encode_labels(train.labels[:5], dataset.c)
print("first five one-hot rows:")
print(onehot)
