import pytest

from fsgraph import InvalidArgumentError, RunConfig
from fsgraph.config import STATE_CAP_ENV, _default_state_cap


def test_defaults_are_positive():
    cfg = RunConfig()
    assert cfg.state_cap > 0 and cfg.listing_cap > 0


def test_rejects_nonpositive_caps():
    with pytest.raises(InvalidArgumentError):
        RunConfig(state_cap=0)
    with pytest.raises(InvalidArgumentError):
        RunConfig(listing_cap=-1)


def test_env_override(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "1234")
    assert RunConfig().state_cap == 1234


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv(STATE_CAP_ENV, "lots")
    with pytest.raises(InvalidArgumentError):
        _default_state_cap()
    monkeypatch.setenv(STATE_CAP_ENV, "-5")
    with pytest.raises(InvalidArgumentError):
        _default_state_cap()
