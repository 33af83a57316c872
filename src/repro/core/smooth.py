"""Smooth primitives used by the fluid models.

The paper builds its fluid models from a sharp sigmoid ``sigma`` (Eq. 5)
that approximates step functions: the drop-tail "queue full" gate (Eq. 4),
BBRv1's probing/draining phase pulse ``Phi`` (Eq. 21, a product of two
sigmoids) and BBRv2's time, volume and loss gates (Eq. 29/30).  Each caller
scales the argument by its own sharpness, so this module provides the
sigmoid of an already-scaled argument, vectorised over numpy arrays and
guarded against overflow in ``exp`` for large negative arguments.
"""

from __future__ import annotations

import numpy as np

#: Default sharpness of the sigmoid approximation (the ``K >> 1`` of Eq. 5).
DEFAULT_SHARPNESS: float = 200.0

# Clip the exponent to avoid overflow warnings; exp(+-60) is far beyond the
# resolution of a float64 sigmoid anyway (sigma saturates at ~1e-26).
_EXP_CLIP: float = 60.0


def scaled_sigmoid(z: np.ndarray) -> np.ndarray:
    """Sharp sigmoid ``1 / (1 + exp(-clip(z)))`` of ``z = K v`` (Eq. 5).

    For ``K -> inf`` this converges to the unit step function of ``v``; the
    fluid models use it to express "if"-like conditions (queue full, timer
    expired, loss above threshold) in a differentiable way.  The clip is
    spelled as ``minimum(maximum(...))`` (equal results, much lower call
    overhead than ``np.clip``).
    """
    z = np.minimum(_EXP_CLIP, np.maximum(-_EXP_CLIP, z))
    return 1.0 / (1.0 + np.exp(-z))
