"""Fixtures shared by the test modules."""

import concurrent.futures

import numpy as np
import pytest

from spinsense import coupled_multiplets, gamma_profile
from spinsense.dynamics import _PAULI, _collective_full, _integrate_doubling, _site_operator


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each process pool a scan starts, recorded by a
    fake pool that runs the sweeps in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def direct_product_space():
    """moments(n, initial, field, spec, t): the first and second collective
    moments of a maximal-sector state after time t, from RK4 on the whole
    2^N x 2^N density matrix with one coupling operator per site. The
    product-space oracle's independent check: it shares no channel with it."""
    def moments(n, initial, field, spec, t):
        psi = coupled_multiplets(n)[n][0].conj().T @ initial.amplitudes
        dim = 2 ** n
        jops = [_collective_full(n, a) for a in "xyz"]
        ham = sum(p * j for p, j in zip(field.phi, jops))
        single = sum(c * _PAULI[a] for c, a in zip(spec.axis, "xyz")) / 2.0
        sites = [_site_operator(n, k, single) for k in range(n)]

        def rhs(u, y):
            rho = y.reshape(dim, dim)
            out = -1j * (ham @ rho - rho @ ham)
            g = gamma_profile(spec, u)
            if g != 0.0:
                out = out + 2.0 * g * (sum(s @ rho @ s for s in sites) - n * rho)
            return out.reshape(dim * dim)

        rho = _integrate_doubling(rhs, np.outer(psi, psi.conj()).reshape(dim * dim),
                                  field, spec, t).reshape(dim, dim)
        first = np.array([np.trace(j @ rho).real for j in jops])
        second = np.array([[np.trace(a @ b @ rho) for b in jops] for a in jops])
        return first, second
    return moments
