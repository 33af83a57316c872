"""Queue and loss models of the fluid network (Section 2).

Two queueing disciplines are modelled, exactly as in the paper:

* **drop-tail** (Eq. 4): loss only occurs when the buffer is (nearly) full,
  in which case the loss probability equals the relative excess arrival
  rate.  The hard "queue full" condition is smoothed with a sharp sigmoid
  and a high power of the relative queue occupancy so that the model stays
  differentiable.
* **RED** (Eq. 6): the loss probability tracks the instantaneous relative
  queue occupancy ``q / B``.  (The paper notes — and we confirm in the
  emulator comparison — that real RED averages the queue, which the fluid
  model idealises away.)

The queue itself integrates the difference between the accepted arrival
rate and the transmission capacity (Eq. 2), clamped to ``[0, B]``.

Every function works element-wise on arrays with one entry per queued link,
so the simulator updates all links of a step (and of a lockstep batch) in
one call each.
"""

from __future__ import annotations

import numpy as np

from . import smooth
from .smooth import ONE, ZERO

# The drop-tail kernel's defaults, bound once (see ``smooth.constant``).
_DEFAULT_SHARPNESS = smooth.constant(smooth.DEFAULT_SHARPNESS)
_DEFAULT_EXPONENT = smooth.constant(20.0)


def droptail_loss_vec(
    arrival_rate: np.ndarray,
    capacity: np.ndarray,
    queue: np.ndarray,
    buffer_size: np.ndarray,
    sharpness: float | np.ndarray = _DEFAULT_SHARPNESS,
    exponent: float | np.ndarray = _DEFAULT_EXPONENT,
) -> np.ndarray:
    """Smooth drop-tail loss probability (Eq. 4), element-wise.

    ``p = sigma(y - C) * (1 - C / y) * (q / B)^L`` — loss only when the
    arrival rate exceeds capacity *and* the queue is close to the buffer
    limit, in which case the loss equals the relative excess rate.  Zero
    arrivals and infinite buffers are lossless.

    The sigmoid argument is normalised by the capacity so that the sharpness
    constant is dimensionless (a 0.5 % rate excess already saturates it).
    The excess term divides by ``max(y, C)``: below capacity it is zero
    either way, and a subnormal ``y`` cannot overflow the division.
    """
    arrival_safe = np.maximum(arrival_rate, capacity)
    gate = smooth.scaled_sigmoid((arrival_rate - capacity) / capacity * sharpness)
    excess = np.maximum(ZERO, ONE - capacity / arrival_safe)
    occupancy = np.minimum(ONE, queue / buffer_size) ** exponent
    loss = np.minimum(ONE, gate * excess * occupancy)
    return np.where((arrival_rate > ZERO) & np.isfinite(buffer_size), loss, ZERO)


def red_loss_vec(queue: np.ndarray, buffer_size: np.ndarray) -> np.ndarray:
    """Idealised RED loss probability ``p = q / B`` (Eq. 6), element-wise.

    Infinite buffers yield zero loss.
    """
    return np.where(
        np.isfinite(buffer_size), np.minimum(ONE, queue / buffer_size), ZERO
    )


def step_queue_vec(
    queue: np.ndarray,
    arrival_rate: np.ndarray,
    capacity: np.ndarray,
    loss: np.ndarray,
    buffer_size: np.ndarray,
    dt: float | np.ndarray,
) -> np.ndarray:
    """Advance the queue lengths by one Euler step of Eq. 2, clamped to ``[0, B]``.

    The queue grows with the *accepted* arrival rate ``(1 - p) * y`` and
    drains at the link capacity; reflecting boundaries keep it from
    becoming negative or exceeding the buffer size.
    """
    rate = (ONE - loss) * arrival_rate - capacity
    rate = np.where((queue <= ZERO) & (rate < ZERO), ZERO, rate)
    rate = np.where((queue >= buffer_size) & (rate > ZERO), ZERO, rate)
    new_queue = queue + dt * rate
    return np.minimum(buffer_size, np.maximum(ZERO, new_queue))
