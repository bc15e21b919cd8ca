import random
import threading

import pytest

from lcws import scheme


@pytest.fixture(scope="session")
def suite():
    """One master key setup shared by the whole run (seeded)."""
    rng = random.Random(0xA11CE)
    pk, mk = scheme.setup(rng)
    return pk, mk, scheme.encryption_context(mk)


@pytest.fixture(autouse=True)
def no_stage_thread_left():
    """Fail a test after which a pipeline stage thread still runs."""
    yield
    for t in threading.enumerate():
        if t.name.startswith("lcws-stage"):
            t.join(1.0)
            assert not t.is_alive(), f"{t.name} still running after the test"
