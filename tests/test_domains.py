import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmix import domains
from dualmix.domains import BOUNDARY_GUARD

DOMAINS = {
    "reals": domains.reals(4),
    "orthant": domains.orthant(4),
    "box": domains.box(4),
    # lower-only, both, neither and upper-only columns side by side
    "concat": domains.orthant(2)
    .concat(domains.box(2, lo=-3.0, hi=0.5))
    .concat(domains.reals(1))
    .concat(domains.Domain(1, hi=0.0)),
    "shift": domains.box(3).concat(domains.orthant(2))
    .shift([0.3, -1.7, 2.5, 1e3, -4.0]),
}


def where_is_interior(dom, x):
    """The per-coordinate predicate written with np.where over every column."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dom.dim or not np.all(np.isfinite(x)):
        return False
    lo_ok = np.where(np.isfinite(dom.lo), x - dom.lo > BOUNDARY_GUARD, True)
    hi_ok = np.where(np.isfinite(dom.hi), dom.hi - x > BOUNDARY_GUARD, True)
    return bool(np.all(lo_ok) and np.all(hi_ok))


def _safe(dom, j):
    lo, hi = dom.lo[j], dom.hi[j]
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo + 1.0
    if np.isfinite(hi):
        return hi - 1.0
    return 0.0


def _edges(dom, j):
    """Column j's bound, its guard edge and one ulp either side of the edge,
    for each finite side, plus non-finite values."""
    vals = [np.nan, np.inf, -np.inf]
    for bound, sign in ((dom.lo[j], 1.0), (dom.hi[j], -1.0)):
        if np.isfinite(bound):
            edge = bound + sign * BOUNDARY_GUARD
            vals += [bound, edge, np.nextafter(edge, np.inf),
                     np.nextafter(edge, -np.inf)]
    return vals


@st.composite
def domain_and_point(draw):
    dom = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    width = dom.dim + draw(st.sampled_from([0, 0, 0, -1, 1]))
    shape = draw(st.sampled_from([(width,), (1, width), (3, width)]))
    x = np.empty(shape)
    for idx in np.ndindex(shape):
        j = idx[-1] % dom.dim
        x[idx] = draw(st.one_of(
            st.just(_safe(dom, j)),
            st.sampled_from(_edges(dom, j)),
            st.floats(allow_nan=True, allow_infinity=True)))
    return dom, x


@settings(max_examples=400, deadline=None)
@given(domain_and_point())
def test_is_interior_matches_where_predicate(case):
    dom, x = case
    got = dom.is_interior(x)
    assert isinstance(got, bool)
    assert got == where_is_interior(dom, x)


@pytest.mark.parametrize("name", sorted(DOMAINS))
@pytest.mark.parametrize("rows", [None, 3])
def test_is_interior_single_entry_at_every_edge(name, rows):
    dom = DOMAINS[name]
    safe = np.array([_safe(dom, j) for j in range(dom.dim)])
    base = safe if rows is None else np.tile(safe, (rows, 1))
    assert dom.is_interior(base) and where_is_interior(dom, base)
    outcomes = set()
    for j in range(dom.dim):
        for v in _edges(dom, j):
            x = base.copy()
            x[..., j] = v
            got = dom.is_interior(x)
            assert got == where_is_interior(dom, x), (j, v)
            outcomes.add(got)
    assert dom.is_interior(base[..., :-1]) is False
    assert dom.is_interior(np.concatenate([base, base[..., :1]], axis=-1)) is False
    if name != "reals":
        # one ulp inside the guard edge passes, the edge itself does not
        assert outcomes == {True, False}


def _safe_eps_at(dom, x, base):
    """safe_eps at one point, with |x| from np.linalg.norm."""
    lo_gap = np.min(np.where(np.isfinite(dom.lo), x - dom.lo, np.inf))
    hi_gap = np.min(np.where(np.isfinite(dom.hi), dom.hi - x, np.inf))
    eps = min(base * (1.0 + float(np.linalg.norm(x))),
              0.25 * min(lo_gap, hi_gap))
    return eps if np.isfinite(eps) and eps > 0 else base


@pytest.mark.parametrize("name", sorted(DOMAINS) + ["orthant 200"])
def test_safe_eps_rows_match_the_point_formula_bitwise(name):
    # estimate_rel_smoothness takes one step per sample row
    dom = domains.orthant(200) if name == "orthant 200" else DOMAINS[name]
    safe = np.array([_safe(dom, j) for j in range(dom.dim)])
    rng = np.random.default_rng(5)
    for scale in 10.0 ** np.arange(-8, 9, 2):
        # the wider draws leave the bounded columns: the step falls to base
        X = safe + scale * rng.standard_normal((2, 15, dom.dim))
        for base in (1e-5, 1e-6):
            want = np.array([[_safe_eps_at(dom, x, base) for x in rows]
                             for rows in X])
            got = domains.safe_eps(dom, X, base=base)
            assert got.tobytes() == want.tobytes()
            got = domains.safe_eps(dom, X[0, 0], base=base)
            assert type(got) is float and got == want[0, 0]
