import pytest

from dualmix import kernels
from dualmix.domains import safe_eps  # noqa: F401
from dualmix.invariants import fd_gradient  # noqa: F401


def catalogue(dim=5):
    """Every table row plus the derived Fermi-Dirac kernel."""
    cat = kernels.table_catalogue(dim)
    cat["fermi_dirac"] = kernels.fermi_dirac(dim)
    return cat


@pytest.fixture(params=sorted(catalogue().keys()))
def any_kernel(request):
    return catalogue()[request.param]
