"""Metamorphic properties of the grid right-hand sides.

A metamorphic relation ties the outputs of two related inputs, so it needs
no exact solution (Chen, Cheung & Yiu, HKUST-CS98-01, 1998; Segura et al.,
IEEE TSE 2016).  On seeded non-uniform fields over 8^d periodic charts,
d = 2, 3, 4, with fiber dimension q = 1, 2 for the bundle flow:

- a periodic shift of the inputs by any node count shifts the density and
  the bundle right-hand sides by the same count, bit for bit;
- the parabolic rescaling of Ricci flow (Chow & Knopf, *The Ricci Flow: An
  Introduction*, 2004, ch. 1): at 4g the density right-hand side gives the
  same dg and a quarter of df/dt, and at (4g, 4Q) the bundle right-hand side
  gives the same dg and dQ and a quarter of dalpha, bit for bit;
- reflecting one chart axis flips the sign of every tensor component that
  carries that axis an odd number of times, to within 1e-14 (the centred
  stencils are odd under the reflection; only the order in which the second
  difference adds its two neighbours changes);
- swapping two chart axes permutes the outputs to within 1.1e-12 (only the
  summation order of the contractions changes);
- a gauge shift a -> a + grad(phi) of the connection, with the grid's own
  gradient, moves the bundle right-hand side (dg, dQ and dalpha) by at most
  6e-14 (the grid's mixed differences commute up to rounding).

The reflection is the property an off-centre stencil breaks; the gauge shift
is the one a wrong sign in the curvature F = da breaks.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundleflow import bakry_emery as be
from bundleflow.bundle import bundle_data_from_fields, flow_rhs_from_data
from bundleflow.diffgeo import spd_inverse
from bundleflow.grids import ConnectionField, MetricField, PeriodicChart, ScalarField, grad
from test_field_pins import bundle_fields, smooth, spd_array

# every flow and shape runs; hypothesis draws the seed and the transformation
BUNDLE_CASES = [("bundle", d, q) for d in (2, 3, 4) for q in (1, 2)]
CASES = pytest.mark.parametrize("flow, d, q", [("density", d, 0) for d in (2, 3, 4)]
                                + BUNDLE_CASES)
SEEDS = st.integers(0, 2)
DENSITY_N = (5.0, np.inf, 1.0)                       # the density flow's N, by seed
PROPERTY = settings(max_examples=2, deadline=None, derandomize=True)

# How many trailing indices of each array are base (chart) indices: the
# density inputs are (g, f) and its outputs (dg, df); the bundle inputs are
# (g, Q, a, linear) and its outputs (dg, dQ, dalpha).  Fiber indices do not move.
KINDS = {"density": ((2, 0), (2, 0)), "bundle": ((2, 0, 1, 2), (2, 0, 1))}


@functools.cache
def case(flow: str, d: int, q: int, seed: int):
    """(chart, right-hand side as a function of the input arrays, the seeded
    non-uniform input arrays on 8^d, their right-hand side).  Cached across
    examples and tests, since a d = 4 right-hand side takes tens of
    milliseconds; nothing modifies the arrays."""
    if flow == "density":
        rng = np.random.default_rng(seed)
        chart = PeriodicChart((2.0 * np.pi,) * d, (8,) * d)
        inputs = (spd_array(rng, chart, d), smooth(rng, chart, 0.1))
        inv_excess = be.BEState(MetricField(chart, inputs[0]), ScalarField(chart, inputs[1]),
                                DENSITY_N[seed]).inv_excess

        def rhs(g, f):
            return be.be_rhs(be.be_stage(chart, g, f, inv_excess, spd_inverse(g)))
    else:
        g, Q, alpha = bundle_fields(d, q, seed)
        chart, inputs = g.chart, (g.values, Q.values, alpha.values, alpha.linear)

        def rhs(g, Q, a, linear):
            curvature = ConnectionField(chart, q, a, linear).curvature_linear_part()
            return flow_rhs_from_data(bundle_data_from_fields(chart, g, Q, a, curvature,
                                                              spd_inverse(g), spd_inverse(Q)))
    return chart, rhs, inputs, rhs(*inputs)


def mapped(arrays, kinds, on_grid, on_index):
    """Each array with ``on_grid`` applied to its grid axes (all but the
    constant linear gauge, the fourth bundle input) and ``on_index`` to each
    trailing base index."""
    out = []
    for i, (v, base) in enumerate(zip(arrays, kinds, strict=True)):
        v = v if i == 3 else on_grid(v)
        for axis in range(-base, 0):
            v = on_index(v, axis)
        out.append(v)
    return out


def assert_bitwise(got, want):
    for x, y in zip(got, want, strict=True):
        assert np.array_equal(x, y)


def assert_close(got, want, tol: float):
    for x, y in zip(got, want, strict=True):
        assert np.max(np.abs(x - y)) <= tol


@CASES
@PROPERTY
@given(seed=SEEDS, axis=st.integers(0, 3), count=st.integers(1, 7))
def test_periodic_shift(flow, d, q, seed, axis, count):
    _, rhs, inputs, want = case(flow, d, q, seed)
    kin, kout = KINDS[flow]

    def shift(v):
        return np.roll(v, count, axis=axis % d)

    def keep(v, _):
        return v

    assert_bitwise(rhs(*mapped(inputs, kin, shift, keep)), mapped(want, kout, shift, keep))


@CASES
@PROPERTY
@given(seed=SEEDS)
def test_parabolic_rescaling(flow, d, q, seed):
    # 4g (and 4Q): the same dg (and dQ), a quarter of df/dt (and of dalpha)
    _, rhs, inputs, want = case(flow, d, q, seed)
    scaled = [4.0 * v for v in inputs[:2]] if flow == "bundle" else [4.0 * inputs[0]]
    assert_bitwise(rhs(*scaled, *inputs[len(scaled):]), (*want[:-1], 0.25 * want[-1]))


@CASES
@PROPERTY
@given(seed=SEEDS, axis=st.integers(0, 3))
def test_axis_reflection(flow, d, q, seed, axis):
    # not bitwise: deriv2 adds v[i+1] before v[i-1], so the mirror image sums
    # in the other order (at most 6.7e-16 measured over seeds 0-5)
    _, rhs, inputs, want = case(flow, d, q, seed)
    kin, kout = KINDS[flow]
    axis %= d
    sign = np.ones(d)
    sign[axis] = -1.0

    def mirror(v):                                   # node i -> node -i, period wrapped
        return np.take(v, -np.arange(8) % 8, axis=axis)

    def flip(v, index):
        return v * sign.reshape((d,) + (1,) * (-1 - index))

    assert_close(rhs(*mapped(inputs, kin, mirror, flip)), mapped(want, kout, mirror, flip), 1e-14)


@CASES
@PROPERTY
@given(seed=SEEDS, first=st.integers(0, 3), offset=st.integers(0, 2))
def test_axis_swap(flow, d, q, seed, first, offset):
    # within 1.1e-12: only the summation order of the contractions changes
    _, rhs, inputs, want = case(flow, d, q, seed)
    kin, kout = KINDS[flow]
    i = first % d
    j = (i + 1 + offset % (d - 1)) % d
    perm = list(range(d))
    perm[i], perm[j] = j, i

    def swap(v):
        return np.swapaxes(v, i, j)

    def permute(v, index):
        return np.take(v, perm, axis=index)

    assert_close(rhs(*mapped(inputs, kin, swap, permute)), mapped(want, kout, swap, permute),
                 1.1e-12)


@pytest.mark.parametrize("flow, d, q", BUNDLE_CASES)
@PROPERTY
@given(seed=SEEDS, phase=st.integers(0, 2 ** 16))
def test_gauge_shift(flow, d, q, seed, phase):
    # a -> a + grad(phi) with the grid's own gradient leaves F, and so every
    # right-hand side, unchanged up to rounding
    chart, rhs, (g, Q, a, linear), want = case(flow, d, q, seed)
    rng = np.random.default_rng(phase)
    phi = np.stack([smooth(rng, chart, 0.3) for _ in range(q)], -1)
    assert_close(rhs(g, Q, a + np.swapaxes(grad(phi, chart), -1, -2), linear), want, 6e-14)
