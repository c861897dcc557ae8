"""Machine-speed calibration of the benchmark's job timings.

On a shared host the speed of the same code drifts by up to a factor of
two over minutes, and a slow stretch outlasts a run. ``calibrate`` times a
fixed kernel that lives here and never changes with the program:
small-array numpy arithmetic in Python loops (the mix of the touching-pair
integrals, which dominate a cmadof evaluation) plus a small eigensolve and
SVD. The runner times it just before and just after every job, and scales
the job's wall time by ``REFERENCE_S`` over the geometric mean of the two
readings: the result is the job's time at the reference machine speed.
Inside a job a reading is taken about every second (``SpeedClock``), so a
drift during the job is followed too.
"""

from __future__ import annotations

import math
import os
import time

#: kernel repetitions per reading (about 45 ms at the reference speed)
REPS = 120

#: median reading of the kernel on the reference machine, a 2-vCPU Intel
#: Xeon (Python 3.11, numpy 2.4 with OpenBLAS at 2 threads)
REFERENCE_S = 0.044

#: seconds of a job between readings taken inside it
PERIOD_S = 1.0

_state: dict = {}


def _inputs():
    if not _state:
        import numpy as np

        rng = np.random.default_rng(12345)
        m = rng.standard_normal((96, 96))
        _state.update(
            np=np,
            points=rng.standard_normal((448, 3)),
            tri=np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.2, 0.9, 0.0]]),
            square=m,
            spd=m @ m.T + 96.0 * np.eye(96),
        )
    return _state


def _kernel(reps: int) -> float:
    s = _inputs()
    np, pts = s["np"], s["points"]
    acc = 0.0
    for i in range(reps):
        tri = s["tri"] + 0.001 * i
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        nhat = normal / np.linalg.norm(normal)
        height = (pts - tri[0]) @ nhat
        rho = pts - height[:, None] * nhat[None, :]
        total = np.zeros(len(pts))
        for e in range(3):
            a, b = tri[e], tri[(e + 1) % 3]
            lhat = (b - a) / np.linalg.norm(b - a)
            uhat = np.cross(lhat, nhat)
            sp = (b - rho) @ lhat
            sm = (a - rho) @ lhat
            t0 = (a - rho) @ uhat
            r0sq = t0 ** 2 + height ** 2
            rp = np.sqrt(sp ** 2 + r0sq)
            rm = np.sqrt(sm ** 2 + r0sq)
            f = np.log(np.abs((rp + sp) / (rm + sm)) + 1e-30)
            beta = np.arctan(t0 * sp / (r0sq + np.abs(height) * rp))
            total += t0 * f + np.where(r0sq > 0, beta, 0.0)
        acc += float(total.sum())
    acc += float(np.linalg.eigvalsh(s["spd"])[0])
    acc += float(np.linalg.svd(s["square"], compute_uv=False)[0])
    return acc


def calibrate() -> float:
    """Seconds one kernel reading takes now."""
    t0 = time.perf_counter()
    _kernel(REPS)
    return time.perf_counter() - t0


class SpeedClock:
    """Times jobs in wall seconds and in seconds at the reference speed.

    Readings are taken when a job starts (the previous job's last reading
    is reused), at the first `tick` after every PERIOD_S seconds of the job
    (harness.install_ticks calls it from inside the program), and when it
    stops. Each stretch between two readings is scaled by the
    geometric mean of the pair; the readings' own time is left out of both
    sums. Ticks in other processes (forked pool workers) are ignored.
    """

    def __init__(self):
        self._pid = os.getpid()
        calibrate()  # warm-up
        self.readings = [calibrate()]
        self.wall = self.scaled = 0.0
        self._mark = None

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self._mark = time.perf_counter()

    def rescale(self, seconds: float) -> float:
        """Take a reading and return `seconds`, measured since the previous
        one, at the reference speed."""
        self.readings.append(calibrate())
        before, after = self.readings[-2:]
        return seconds * REFERENCE_S / math.sqrt(before * after)

    def _close(self) -> None:
        stretch = time.perf_counter() - self._mark
        self.wall += stretch
        self.scaled += self.rescale(stretch)
        self._mark = time.perf_counter()

    def tick(self) -> None:
        if (self._mark is not None and os.getpid() == self._pid
                and time.perf_counter() - self._mark >= PERIOD_S):
            self._close()

    def stop(self) -> None:
        self._close()
        self._mark = None
