import pytest

from kcdistill.data import gen_gaussian_mixture
from kcdistill.knowledge import build_store
from kcdistill.nn import TrainConfig, train_teacher


@pytest.fixture(scope="session")
def small_task():
    """Fast 4-class task with a cached teacher for driver-level tests.

    Runs only read the store (each keeps its own value state), so sharing
    one store is safe.
    """
    ds = gen_gaussian_mixture(4, 6, 30, 1.2, seed=11)
    tcfg = TrainConfig.desk_default(40, weight_decay=5e-3)
    teacher, probs = train_teacher(ds.train_features, ds.train_labels,
                                   (6, 32, 4), tcfg, 40, seed=1)
    store = build_store(ds.train_features, probs, ds.train_labels)
    return ds, store
