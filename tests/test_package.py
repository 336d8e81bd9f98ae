"""The package itself: it re-exports nothing, each name lives in its submodule."""

import pytest

import schromag


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        schromag.no_such_name  # noqa: B018
    assert not hasattr(schromag, "__no_such_dunder__")
