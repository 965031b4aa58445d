import contextlib

import pytest

from dualmix import cli, kernels
from dualmix.domains import safe_eps  # noqa: F401
from dualmix.invariants import fd_gradient  # noqa: F401


@pytest.fixture(params=sorted(kernels.catalogue(5)))
def any_kernel(request):
    return kernels.catalogue(5)[request.param]


@contextlib.contextmanager
def logged_cells():
    """Wrap ``cli.execute_run`` while the block runs, and yield the list it
    logs each call to, in call order: (algorithm spec, seed, keyword
    arguments, result)."""
    execute_run = cli.execute_run
    calls = []

    def logged(cfg, spec, seed, **kwargs):
        result, meta = execute_run(cfg, spec, seed, **kwargs)
        calls.append((spec, seed, kwargs, result))
        return result, meta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "execute_run", logged)
        yield calls
