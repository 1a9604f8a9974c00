"""uniform_ball: the one-point draw and the block draw the sampled checker uses."""

import warnings

import numpy as np
import pytest

from etclab.sampling import uniform_ball

# Three successive one-point draws from default_rng(20261021) as float.hex.  The
# initial states of montecarlo's batches come from this form, so these must not move.
ONE_POINT_DRAWS = (
    (2, 25.0, ["-0x1.3f4a1f653fecdp+3", "-0x1.8885c18cf4ab9p+0"]),
    (4, 25.0, ["-0x1.1501852f251ddp-2", "0x1.2c4dc2b07de78p+2", "-0x1.0b55f9cf53d07p+4",
               "-0x1.1288153e13d65p+4"]),
    (7, 1.5, ["-0x1.da28c0581c0dfp-2", "0x1.89046ada417b3p-1", "0x1.1e7209ddfa317p-2",
              "0x1.829c68aff2afep-1", "-0x1.28458a59bfdcap-1", "-0x1.44a19904c6819p-7",
              "0x1.72f1e40f59bbcp-2"]),
)

N = 20_000


def test_one_point_draws_are_pinned():
    rng = np.random.default_rng(20261021)
    for dim, radius, want in ONE_POINT_DRAWS:
        z = uniform_ball(rng, dim, radius)
        assert z.shape == (dim,)
        assert [float(v).hex() for v in z] == want


@pytest.mark.parametrize("n", [8, 9, 50])
def test_block_rows_do_not_depend_on_the_split(n):
    whole = uniform_ball(np.random.default_rng(5), 5, 3.0, n)
    rng = np.random.default_rng(5)
    parts = [uniform_ball(rng, 5, 3.0, k) for k in (1, 7, n - 8)]
    assert whole.shape == (n, 5)
    assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_block_rows_lie_in_the_closed_ball(dim):
    z = uniform_ball(np.random.default_rng(dim), dim, 3.0, N)
    assert z.shape == (N, dim)
    assert np.sqrt(np.einsum("ij,ij->i", z, z)).max() <= 3.0


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_block_radius_is_uniform_in_volume(dim):
    # |z| <= R q^(1/d) holds on a share q of the ball's volume; the share's
    # standard deviation at N rows is at most 0.0036, so 0.02 is over 5 of them.
    radius = 2.5
    z = uniform_ball(np.random.default_rng(100 + dim), dim, radius, N)
    size = np.sqrt(np.einsum("ij,ij->i", z, z))
    for q in (0.25, 0.5, 0.75):
        assert abs(np.mean(size <= radius * q ** (1.0 / dim)) - q) <= 0.02, q


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_block_coordinates_are_centred_with_the_ball_s_second_moment(dim):
    # Each coordinate of a point uniform in the d-ball has mean 0 and
    # E z_i^2 = R^2 / (d + 2); both bounds are over 5 standard deviations at N rows.
    radius = 2.5
    z = uniform_ball(np.random.default_rng(200 + dim), dim, radius, N) / radius
    assert np.abs(z.mean(axis=0)).max() <= 0.02
    assert np.abs((z * z).mean(axis=0) - 1.0 / (dim + 2)).max() <= 0.01


def test_zero_gaussian_row_gives_the_origin_without_a_warning():
    class OneZeroRow:
        def standard_normal(self, shape):
            g = np.ones(shape)
            g[1] = 0.0
            return g

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        z = uniform_ball(OneZeroRow(), 3, 2.0, 3)
    assert z.shape == (3, 3)
    assert not z[1].any()
    np.testing.assert_allclose(z[[0, 2]], 2.0 / np.sqrt(5.0))  # R g[:3] / |g|, |g| = sqrt(5)
