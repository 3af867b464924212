"""Pack per-client arrays into a ``Federation``, and split one back.

A client is an ``(x_train, y_train, x_test, y_test, class_probs)`` tuple.
"""

import numpy as np

from fedfair.datasets import Federation


def pack(clients) -> Federation:
    """The ``Federation`` holding ``clients`` in order."""
    x_train, y_train, x_test, y_test, class_probs = zip(*clients)
    return Federation(
        np.concatenate(x_train),
        np.concatenate(y_train),
        np.concatenate(x_test),
        np.concatenate(y_test),
        np.array([y.size for y in y_train], dtype=np.intp),
        np.array([y.size for y in y_test], dtype=np.intp),
        np.array(class_probs),
    )


def unpack(fed: Federation) -> list:
    """Inverse of ``pack``: each client's tuple, as views into ``fed``."""
    train, test = np.cumsum(fed.train_sizes)[:-1], np.cumsum(fed.test_sizes)[:-1]
    return list(zip(
        np.split(fed.x_train, train),
        np.split(fed.y_train, train),
        np.split(fed.x_test, test),
        np.split(fed.y_test, test),
        fed.class_probs,
    ))
