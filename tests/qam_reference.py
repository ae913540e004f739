"""Bit patterns of QAM decisions, packed and unpacked independently of the package.

``qam_decide`` returns one ``uint8`` per symbol, the integer whose ``k``
bits, most significant first, are the symbol's bits.  The detectors stop at
those decisions, so a test counts bit errors as the popcount of the
decisions XOR ``pack(bits)``.
"""

import numpy as np


def pack(bits, k):
    """``uint8`` patterns of each ``k`` consecutive bits, most significant first."""
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, k)
    return sum(groups[:, b] << (k - 1 - b) for b in range(k)).astype(np.uint8)


def unpack(decisions, k):
    """The ``k`` bits of each decision, most significant first, flattened."""
    return ((np.asarray(decisions).ravel()[:, None] >> np.arange(k - 1, -1, -1)) & 1).ravel()


def bit_errors(decisions, bits, k):
    """Bit errors of ``uint8`` decisions against the sent bits, by popcount."""
    assert decisions.dtype == np.uint8
    return int(np.bitwise_count(decisions ^ pack(bits, k)).sum())
