import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import meemi

np.seterr(all="raise", under="ignore")

hypothesis.settings.register_profile("default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the very package this process imported.

    A child may run in another directory, where a relative PYTHONPATH (such
    as ``src``) does not resolve.
    """
    env = os.environ.copy()
    root = str(Path(meemi.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls this process makes, one entry each."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        leaked = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"test left a child process unreaped: waitpid gave {leaked}")
