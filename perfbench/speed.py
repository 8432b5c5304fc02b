"""Durations scaled to a reference speed of the machine.

The cores of the machine this benchmark was built on are shared with
other tenants, and its speed drifts by up to a factor of two within
seconds.  Two fixed slices of work, one of pure-Python dict and integer
operations and one of numpy sampling like the Monte-Carlo waiting-time
sampler, measure the current *slowness* of each kind of work (1.0 at
the nominal speed).  The benchmark samples both between operations, and
inside long operations whenever a hot inner function is entered, and
reports each duration as its wall time divided by the mean slowness
sampled over it.  The raw
wall times are kept in the run's report.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

PY_NOMINAL_S = 0.0053  # python_work on an idle core of a 2-core 2.0 GHz VM
NP_NOMINAL_S = 0.0031  # numpy_work on the same
SAMPLE_EVERY_S = 0.2  # least time between two samples


def python_work() -> float:
    """Seconds taken by a fixed slice of dict, tuple and integer work."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return time.perf_counter() - start


def _numpy_slice(np) -> None:
    rng = np.random.default_rng(12345)
    for _ in range(2):
        attempts = rng.geometric(0.3, size=16384)
        total = int(attempts.sum())
        pair = np.maximum(rng.choice(attempts, size=total), rng.choice(attempts, size=total))
        np.add.reduceat(pair, np.concatenate(([0], np.cumsum(attempts)[:-1])))


@lru_cache(maxsize=None)
def _warm_numpy():
    import numpy as np

    _numpy_slice(np)  # the first slice pays one-off costs, outside any timing
    return np


def numpy_work() -> float:
    """Seconds taken by a fixed slice of geometric draws and resampling."""
    np = _warm_numpy()
    start = time.perf_counter()
    _numpy_slice(np)
    return time.perf_counter() - start


def slowness(with_numpy: bool = True) -> tuple[float, float | None]:
    """Current slowness of the machine for Python and for numpy work.

    1.0 is the nominal speed; the numpy part is None when not measured.
    """
    python = python_work() / PY_NOMINAL_S
    return python, (numpy_work() / NP_NOMINAL_S if with_numpy else None)


class SpeedClock:
    """Slowness samples of one process, and durations scaled by them.

    A timed piece runs from ``start()`` to ``stop()``.  Its slowness is
    the mean of the samples from the one before it to the one closing it,
    including probes taken inside it; probes run when a wrapped hot
    function is entered (see ``probing``), and their own time is taken
    out of the piece.  ``numpy_share`` weighs the numpy part of each
    sample by the share of the piece's time spent in numpy: 0 for the
    pure-Python table builds and chain recursion, more for Monte-Carlo
    chains.
    """

    def __init__(self, first: tuple[float, float | None]) -> None:
        self.samples = [first]
        self._at = time.perf_counter()
        self._spent = 0.0  # seconds spent in probes

    def sample(self) -> None:
        self.samples.append(slowness())
        self._at = time.perf_counter()

    def _due(self) -> bool:
        return time.perf_counter() - self._at >= SAMPLE_EVERY_S

    def probe(self) -> None:
        if self._due():
            start = time.perf_counter()
            self.sample()
            self._spent += time.perf_counter() - start

    def start(self, at: float | None = None) -> tuple:
        return (len(self.samples) - 1, self._spent, time.perf_counter() if at is None else at)

    def stop(self, token: tuple, fresh: bool = False) -> tuple[float, int, int]:
        """End a piece: (raw seconds, first sample, last sample inside it).

        ``fresh`` takes the closing sample now; otherwise the next sample,
        whenever it comes, closes the piece.
        """
        first, spent, began = token
        raw = time.perf_counter() - began - (self._spent - spent)
        last = len(self.samples) - 1
        if fresh:
            self.sample()
        return raw, first, last

    def scaled(self, piece: tuple[float, int, int], numpy_share: float = 0.0) -> float:
        """A piece's seconds at nominal speed, once its closing sample exists."""
        raw, first, last = piece
        window = [py if np is None else (1.0 - numpy_share) * py + numpy_share * np
                  for py, np in self.samples[first:last + 2]]
        return raw * len(window) / sum(window)

    @contextmanager
    def probing(self, owner, names: tuple[str, ...]):
        """Probe the machine's speed whenever ``owner.<name>`` is called."""
        originals = {name: getattr(owner, name) for name in names}

        def probed(fn):
            def call(*args, **kwargs):
                self.probe()
                return fn(*args, **kwargs)

            return call

        for name, fn in originals.items():
            setattr(owner, name, probed(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(owner, name, fn)

    def median(self) -> float:
        """Median Python slowness of the run, for per-layer times."""
        ordered = sorted(py for py, _ in self.samples)
        return ordered[len(ordered) // 2]
