"""Fixtures of the whole test suite.

Some tests count kernel calls, such as the exponentials of ``flow.expm``,
that a warm cache would skip, so every test starts with the caches of the
flow and pull-back kernels empty, whatever ran before it.
"""

import pytest

from setflow import bodies, flow

KERNEL_CACHES = (flow._flow_matrix, bodies._pullback_plan, bodies._form_weights)


@pytest.fixture(autouse=True)
def cold_kernel_caches():
    for cache in KERNEL_CACHES:
        cache.cache_clear()
