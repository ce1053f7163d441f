import sys
import time

import numpy as np
import pytest

from bohmsim import PhysicalParams, init_gaussian, make_grid, wavefield

ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report():
    """Recorder for the acceptance suite: one pass/fail line per criterion.

    Returns a callable ``record(criterion, measured, bound, started,
    kind="max", extra="")`` that appends the formatted line to the
    terminal summary and returns whether the comparison passed.
    """

    def record(criterion, measured, bound, started, kind="max", extra=""):
        ok = measured >= bound if kind == "min" else measured <= bound
        word = ">=" if kind == "min" else "<="
        status = "PASS" if ok else "FAIL"
        suffix = f" ({extra})" if extra else ""
        line = (
            f"{status} {criterion}: measured={measured:.3e} {word} "
            f"bound={bound:.3e}{suffix} [wall {time.perf_counter() - started:.1f}s]"
        )
        ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def unit_params():
    return PhysicalParams()


@pytest.fixture
def line_grid():
    """Default 1D grid: [-10, 10) with 256 points, dx = 0.078125."""
    return make_grid(1, -10.0, 10.0, 256)


@pytest.fixture
def wide_grid():
    """Roomier 1D grid for runs where packets travel or spread."""
    return make_grid(1, -15.0, 15.0, 384)


@pytest.fixture
def unit_gaussian(line_grid, unit_params):
    return init_gaussian(line_grid, unit_params, 0.0, 1.0)


@pytest.fixture
def pi_grid():
    """Grid whose length is 10*pi so k = 2 sits exactly on the wavenumber lattice."""
    return make_grid(1, -5.0 * np.pi, 5.0 * np.pi, 256)


@pytest.fixture(params=["gufunc", "fallback"])
def fft_path(request, monkeypatch):
    """Runs a test with ``wavefield._fft`` looked up afresh: once through numpy's pocketfft
    gufuncs, once with that private module unavailable, so that ``np.fft`` serves it.
    Checks afterwards that the test took the path it names."""
    np.fft.fft  # imported before its gufunc module is hidden
    monkeypatch.setattr(wavefield, "_pocketfft", None)
    if request.param == "fallback":
        monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
    yield request.param
    assert bool(wavefield._pocketfft) == (request.param == "gufunc"), wavefield._pocketfft
