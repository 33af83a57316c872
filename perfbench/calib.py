"""The benchmark's fixed host-speed calibration loop (``host.calib_s``).

Prints the seconds the loop took (~1.3 s on the reference box).  The mix
mirrors the program's work: interpreter-bound bookkeeping (the emulator)
and numpy dispatch on tiny arrays (the fluid integrator and the reduced
model).  ``run.py`` runs it once per benchmark run, in a fresh interpreter.
"""

import time

import numpy as np


def main() -> None:
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(2_500_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    x = np.linspace(0.0, 1.0, 32)
    for _ in range(250_000):
        x = np.sqrt(x * x + 1.0) - np.minimum(x, 0.5)
    elapsed = time.perf_counter() - start
    if acc < 0 or not np.isfinite(x).all():  # keeps the work observable
        raise SystemExit("calibration loop diverged")
    print(elapsed)


if __name__ == "__main__":
    main()
