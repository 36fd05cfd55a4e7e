"""Shared fixtures."""

import pytest

from mbf import bifact


@pytest.fixture
def fresh_image_memo():
    """Empty the process-wide image memo (`bifact._IMAGE_ROOTS`), so that a
    test that counts evaluations or divisions does not depend on what the
    tests before it evaluated."""
    bifact._clear_image_memo()
    yield
    bifact._clear_image_memo()
