import collections
import threading
import tracemalloc

import numpy as np
import pytest

import majorize as mj


def random_distribution(rng: np.random.Generator, k: int | None = None,
                        kmin: int = 2, kmax: int = 8) -> mj.Distribution:
    """Dirichlet draw with a randomized concentration, canonicalized."""
    if k is None:
        k = int(rng.integers(kmin, kmax + 1))
    alpha = float(rng.uniform(0.3, 3.0))
    return mj.make_distribution(rng.dirichlet(np.full(k, alpha)), "renormalize")


def ball_bases(k: int) -> dict[str, mj.Distribution]:
    """A random base plus one with tied and zero entries (where k allows)."""
    bases = {"random": random_distribution(np.random.default_rng(k), k=k)}
    if k > 1:
        raw = np.resize([3.0, 3.0, 1.0, 0.0], k)
        bases["tied"] = mj.make_distribution(raw, "renormalize")
    return bases


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread alive which it started.

    A non-daemon thread left running keeps the process from exiting, so
    one leaked by the library would hang every CLI call that reached it.
    """
    before = set(threading.enumerate())
    yield
    leaked = [t for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left alive: {leaked}"


@pytest.fixture
def cumsum_calls(monkeypatch) -> collections.Counter:
    """Count np.cumsum calls by input size for the rest of the test."""
    calls = collections.Counter()
    cumsum = np.cumsum

    def counted(a, *args, **kwargs):
        calls[np.size(a)] += 1
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    return calls


@pytest.fixture
def call_counter(monkeypatch):
    """Replace one module attribute with a counting wrapper for the rest of the test.

    call_counter(module, name) installs the wrapper and returns a Counter
    whose "calls" entry counts the calls of module.name made after it.
    """

    def install(module, name: str) -> collections.Counter:
        calls = collections.Counter()
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls["calls"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def peak_traced_mb():
    """Trace allocations for the test body; call the result for the peak in MB.

    numpy reports its array buffers to tracemalloc, so the peak covers
    them as well as Python objects, from the start of the test.
    """
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
