"""Smooth primitives used by the fluid models.

The paper builds its fluid models from a sharp sigmoid ``sigma`` (Eq. 5)
that approximates step functions: the drop-tail "queue full" gate (Eq. 4),
BBRv1's probing/draining phase pulse ``Phi`` (Eq. 21, a product of two
sigmoids) and BBRv2's time, volume and loss gates (Eq. 29/30).  Each caller
scales the argument by its own sharpness, so this module provides the
sigmoid of an already-scaled argument, vectorised over numpy arrays and
guarded against overflow in ``exp`` for large negative arguments.

It also provides :func:`constant`, with which every module of the fluid
step binds its constant operands once as read-only 0-d float64 arrays.
"""

from __future__ import annotations

import numpy as np

#: Default sharpness of the sigmoid approximation (the ``K >> 1`` of Eq. 5).
DEFAULT_SHARPNESS: float = 200.0


def constant(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, bound once per module or model.

    The fluid step is bound by numpy dispatch, and under numpy 2's scalar
    promotion (NEP 50) a ufunc call with a Python-float operand costs about
    half as much again as one with a 0-d float64 array holding the same
    value; the results are bit-identical.  Read-only, so that no ``out=``
    can overwrite a constant every caller shares.
    """
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


#: Bound constants the modules of the fluid step share.
ZERO = constant(0.0)
HALF = constant(0.5)
ONE = constant(1.0)
TWO = constant(2.0)

# Clip the exponent to avoid overflow warnings; exp(+-60) is far beyond the
# resolution of a float64 sigmoid anyway (sigma saturates at ~1e-26).
_EXP_CLIP = constant(60.0)
_NEG_EXP_CLIP = constant(-60.0)


def scaled_sigmoid(z: np.ndarray) -> np.ndarray:
    """Sharp sigmoid ``1 / (1 + exp(-clip(z)))`` of ``z = K v`` (Eq. 5).

    For ``K -> inf`` this converges to the unit step function of ``v``; the
    fluid models use it to express "if"-like conditions (queue full, timer
    expired, loss above threshold) in a differentiable way.  The clip is
    spelled as ``minimum(maximum(...))`` (equal results, much lower call
    overhead than ``np.clip``), and every stage writes into one scratch
    array, which is returned.
    """
    s = np.maximum(_NEG_EXP_CLIP, z, out=np.empty_like(z, dtype=np.float64))
    np.minimum(_EXP_CLIP, s, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(ONE, s, out=s)
    return np.divide(ONE, s, out=s)
