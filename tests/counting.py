"""The work budgets' one counting helper."""

from unittest import mock


def counted(owner, name: str):
    """Patch ``owner.name`` with a mock that still does the work."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))
