"""The one switch for tests about sharded plans on small worlds."""

from unittest import mock

import pytest

from repro.queryx import planner


@pytest.fixture(scope="class")
def every_plan_shards():
    """``SHARD_TARGET_BYTES`` at 0 for a test class: a plan runs as the
    planner cut it, however little its window holds.  A test world is
    far below one chunk, where the default target makes every plan one
    subquery.  Class-scoped, so hypothesis tests may use it too."""
    with mock.patch.object(planner, "SHARD_TARGET_BYTES", 0):
        yield
