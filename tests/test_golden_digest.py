"""Golden digests of the raw Monte Carlo row sums.

The default per-draw sampler is a fixed function of (params, n, replicates,
master seed).  Each configuration below pins the sha256 of the raw row sums
(identity plan, little-endian float64 bytes) and the exact heavy-draw total,
at 1, 2 and 3 threads.  Any change to the stream, the inverse-CDF transforms,
the branch test or the summation order shows up here.

The first two configurations are the benchmark canary's.  The zone-5 rows at
n = 100, 1000 and 10000 leave a partial last block of replicates; the
canary's n = 600000 spans two summation chunks.  Rows over 2**16 draws are
mixed in 2**16-draw tiles; the last configuration ends on a partial tile with
lam != 1.
"""

import hashlib

import pytest

from mixlim import ModelParams, NormalizationPlan, monte_carlo

IDENTITY = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")

# (alpha, lam, gamma1, gamma2), n, replicates, master seed, sha256, heavy draws
GOLDEN = [
    # zone 5: about 1.9% heavy draws, rows over 2**19 draws
    ((0.5, 1.0, 2.0, 0.3), 600_000, 6, 20141020,
     "b658e1c5619eb5881d8f104e7d8c5aeba3b7f5defb529f30650e8d3ae9f0cc5d", 66742),
    # zone 1: eps_n = 1e-10, light branch only
    ((0.5, 1.0, 1.0, 2.0), 100_000, 8, 19970101,
     "a9fcfd541e6740f168a8403987a782ca18946beb65f79bb3623ec6c97af9bf6a", 0),
    ((0.5, 1.0, 2.0, 0.3), 100, 700, 1,
     "932a92263167aa091cad39cff2798124df4f8e1e1abb1563a92a9f2b8d9fee9d", 17446),
    ((0.5, 1.0, 2.0, 0.3), 1000, 150, 2,
     "6bfb657494dbfd01634514a75719d2985c490ff9bc5cc787734f9a9ee9c48e0a", 18872),
    ((0.5, 1.0, 2.0, 0.3), 10_000, 20, 3,
     "1404dc3ea595d43cec4f8259b585c7d6327ca49ca1ff4999e5d135a10ac26af7", 12569),
    # alpha > 1 with lam != 1, so the light draws are rescaled
    ((1.5, 0.3, 1.0, 0.5), 2000, 70, 4,
     "8d90482c6daff1f44dbec1bc88898ac80d766bbb9a14aa15960be7ecbe82658b", 3185),
    ((1.0, 1.0, 1.5, 0.4), 3000, 50, 5,
     "8da240dac09e3c8855a214339d02a00fcadb175d3a97f8d0e622ad3166d10363", 6177),
    # two full 2**16-draw tiles and a partial one, rescaled light draws
    ((1.5, 0.3, 1.0, 0.5), 3 * 2**16 + 5, 3, 6,
     "13c021073e0c8530acb3741d5021d4e63c8facc4d1467581abbe4919a9516e5b", 1337),
]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "point, n, replicates, seed, sha256, heavy_draws",
    GOLDEN,
    ids=[f"a{g[0][0]}-l{g[0][1]}-n{g[1]}" for g in GOLDEN],
)
def test_raw_sums_digest(point, n, replicates, seed, sha256, heavy_draws, threads):
    alpha, lam, gamma1, gamma2 = point
    params = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
    sample = monte_carlo(params, n, replicates, seed, IDENTITY, threads)
    assert hashlib.sha256(sample.values.astype("<f8").tobytes()).hexdigest() == sha256
    assert round(sample.heavy_count_mean * replicates) == heavy_draws
