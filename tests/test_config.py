import pytest

from fsgraph import InvalidArgumentError, RunConfig


def test_defaults_are_positive():
    cfg = RunConfig()
    assert cfg.state_cap > 0 and cfg.listing_cap > 0


def test_rejects_nonpositive_caps():
    with pytest.raises(InvalidArgumentError):
        RunConfig(state_cap=0)
    with pytest.raises(InvalidArgumentError):
        RunConfig(listing_cap=-1)
    with pytest.raises(InvalidArgumentError):
        RunConfig()._replace(state_cap=0)
