"""The cosine kernel of ranking: one dense query against every row of a CSR
matrix, once per bug report and once per history sweep.

Each row's products are summed on their own, in stored order, starting from
``0.0``, so two identical rows get identical cosines wherever they sit in the
matrix, and true ties break on path order.
"""
from __future__ import annotations

import numpy as np


def csr_cosine(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    norms: np.ndarray,
    qdense: np.ndarray,
    qnorm: float,
) -> np.ndarray:
    """Cosine of one query against all documents.

    ``indptr``/``indices``/``data`` form a CSR matrix of per-document term
    weights, ``norms`` the per-row Euclidean norms, ``qdense`` the dense
    query weight vector over the same vocabulary. Zero-norm rows or a
    zero-norm query score 0.
    """
    n_docs = indptr.shape[0] - 1
    out = np.zeros(n_docs, dtype=np.float64)
    if qnorm <= 0.0:
        return out
    products = data * qdense[indices]
    # bincount adds each product into its row's bin in stored order, starting
    # from 0.0, and leaves empty rows at exactly 0.
    row_ids = np.repeat(np.arange(n_docs), np.diff(indptr))
    dots = np.bincount(row_ids, weights=products, minlength=n_docs)
    denom = norms * qnorm
    mask = denom > 0.0
    out[mask] = dots[mask] / denom[mask]
    return out
