"""Host-speed probe: corrects repetition times for the host's speed swings.

On a shared host the same code runs up to about 1.9x slower for seconds
or minutes at a time, when other tenants load the physical cores under
this machine's virtual CPUs.  The benchmark cannot stop that, so it
measures it.  While a repetition runs, `Sampler` fires every `PERIOD_S`
seconds (SIGALRM, in the main thread, between bytecodes) and times a
`Probe`, a fixed kernel of small NumPy array operations and Python
glue with the array shapes of the workload's training loop but none of
lconv's code.  A change to lconv does not change the probe; a slow host
slows both.  The shape matters: how much a busy neighbour slows code
depends on how much cache it uses, so each workload names a probe
shaped like its hot arrays.  On fixed_angle a (64, 49, 1) probe left a
per-repetition spread of 5-6% after correction, where a (16, 49, 10)
one left 7-8% (13% uncorrected); on angle_regression the (16, 49, 10)
probe left 3.5%.

`correct()` turns a repetition's wall and CPU times into times at a
fixed reference host speed:

    corrected = (raw - probe time) * mean(p_ref / p_i)

where p_i are the repetition's probe times (evenly spaced in wall time,
so their mean speed is the repetition's mean speed) and p_ref is
`REF_PROBE_S`, a fixed probe time.  A fixed reference, rather than the
fastest probe of each run, keeps one lucky sample from moving a whole
run.  The corrected times are therefore seconds at the host speed at
which the probe, interleaved with lconv's work, takes `REF_PROBE_S`;
both workload probes take about 3.4 ms at their fastest, in a tight
loop on a 2-vCPU Xeon KVM guest, so that is near its top speed, and
on any one machine it is the same scale for every run.  The probe's own
time is taken out first.  Handlers touch no lconv state, so results
stay bit-identical.

Set-up steps are too short for the timer (dataset generation takes
0.05-0.2 s) or run in a child interpreter (the fresh import), so
`speed_around()` probes just before and just after them instead.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.2
REF_PROBE_S = 0.004


class Probe:
    """`Probe((batch, channels, steps))()` returns the seconds taken by
    `steps` fixed steps shaped like an lconv training step on a
    (batch, 49, channels) array."""

    def __init__(self, shape):
        batch, channels, self.steps = shape
        rng = np.random.default_rng(12345)
        self.f = rng.standard_normal((batch, 49, channels))
        self.g = rng.standard_normal((49, 49)) * 0.1
        self.w = rng.standard_normal((channels, channels)) * 0.1

    def __call__(self):
        t0 = time.perf_counter()
        f = self.f
        for _ in range(self.steps):
            h = np.einsum("ij,bjm->bim", self.g, f)
            f = f + 1e-3 * (h @ self.w)
            s = (h * f).sum(axis=(0, 1))
            f = f * (1.0 / (1.0 + float(s[0]) ** 2))
        return time.perf_counter() - t0


class Sampler:
    """`with Sampler(probe) as s:` records probe times in `s.samples`
    while the block runs; the previous SIGALRM handler is restored on
    exit."""

    def __init__(self, probe):
        self.probe = probe
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(self.probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed_around(fn, probe, n=3):
    """Run `fn()`; returns its result, its wall time and the host speed,
    relative to `REF_PROBE_S`, from `n` probes on either side of it."""
    samples = [probe() for _ in range(n)]
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    samples += [probe() for _ in range(n)]
    return result, elapsed, sum(REF_PROBE_S / p for p in samples) / len(samples)


def correct(raw_s, samples):
    """`raw_s` less the probe time, scaled to the speed at which the
    probe takes `REF_PROBE_S`; `raw_s` itself if there is no sample."""
    if not samples:
        return raw_s
    speed = sum(REF_PROBE_S / p for p in samples) / len(samples)
    return (raw_s - sum(samples)) * speed
