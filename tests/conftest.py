import tracemalloc

import numpy as np
import pytest

from xms.dataset_io import FeatureMatrix, PairedMultimodalDataset
from xms.errors import DataError


def paired_dataset(xa, xb, labels, c=None):
    labels = np.asarray(labels, dtype=np.int64)
    c = int(labels.max()) if c is None else c
    return PairedMultimodalDataset(FeatureMatrix(xa), FeatureMatrix(xb), labels, c, strict=False)


def random_paired_dataset(rng, n=40, d_a=6, d_b=5, c=2, shared=0.8):
    """Correlated two-view data with class-displaced means."""
    labels = rng.integers(1, c + 1, size=n)
    for cls in range(1, c + 1):
        labels[cls - 1] = cls  # every class populated
    z = rng.standard_normal((max(d_a, d_b), n))
    offsets = rng.standard_normal((max(d_a, d_b), c))
    z = z + offsets[:, labels - 1]
    xa = shared * z[:d_a] + (1 - shared) * rng.standard_normal((d_a, n))
    xb = shared * z[:d_b] + (1 - shared) * rng.standard_normal((d_b, n))
    return paired_dataset(xa, xb, labels, c)


def refused_without_allocating(load, path) -> DataError:
    """The ``DataError`` that ``load(path)`` raises, checked to have allocated under 1 MiB on the
    way: a corrupt size field must be refused before anything of the claimed size is read."""
    tracemalloc.start()
    try:
        with pytest.raises(DataError) as err:
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    return err.value


@pytest.fixture
def rng():
    return np.random.default_rng(0)
