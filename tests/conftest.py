"""Shared fixtures."""

import pytest

from mbf import bifact, fusion


@pytest.fixture
def fresh_image_memo():
    """Empty the process-wide image memo (`bifact._IMAGE_ROOTS`), so that a
    test that counts evaluations or divisions does not depend on what the
    tests before it evaluated."""
    bifact._clear_image_memo()
    yield
    bifact._clear_image_memo()


@pytest.fixture
def fresh_orbits():
    """Empty the rotation-orbit memo of `fusion.fuse` (`fusion._ORBITS`), so
    that a test whose outcome depends on whether `fuse` takes the full path
    or transports a pair along its orbit does not depend on what the tests
    before it fused."""
    fusion._ORBITS.clear()
    yield
    fusion._ORBITS.clear()
