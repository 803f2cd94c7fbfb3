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

numpy's float64 log1p and power loops give different last bits on its AVX-512
path (target X86_V4) than on its baseline path, so each configuration pins
one sha256 per dispatch class, chosen by ``dispatch_class``.  The heavy-draw
totals are the same in every class: the branch test compares integers.  The
two canary configurations have one digest in both classes, because last-bit
differences vanish in sums that long.  To reproduce the baseline digests on an
AVX-512 host, set NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixlim
from mixlim import ModelParams, NormalizationPlan, monte_carlo

IDENTITY = NormalizationPlan(center=0.0, scale=1.0, limit="std_normal")
AVX512 = "X86_V4"
BASELINE = "baseline(X86_V2)"

# (alpha, lam, gamma1, gamma2), n, replicates, master seed,
# {dispatch class: sha256}, heavy draws
GOLDEN = [
    # zone 5: about 1.9% heavy draws, rows over 2**19 draws
    ((0.5, 1.0, 2.0, 0.3), 600_000, 6, 20141020,
     {AVX512: "b658e1c5619eb5881d8f104e7d8c5aeba3b7f5defb529f30650e8d3ae9f0cc5d",
      BASELINE: "b658e1c5619eb5881d8f104e7d8c5aeba3b7f5defb529f30650e8d3ae9f0cc5d"}, 66742),
    # zone 1: eps_n = 1e-10, light branch only
    ((0.5, 1.0, 1.0, 2.0), 100_000, 8, 19970101,
     {AVX512: "a9fcfd541e6740f168a8403987a782ca18946beb65f79bb3623ec6c97af9bf6a",
      BASELINE: "a9fcfd541e6740f168a8403987a782ca18946beb65f79bb3623ec6c97af9bf6a"}, 0),
    ((0.5, 1.0, 2.0, 0.3), 100, 700, 1,
     {AVX512: "932a92263167aa091cad39cff2798124df4f8e1e1abb1563a92a9f2b8d9fee9d",
      BASELINE: "14fc54c834dc34502225269f9fba8c4c54c360fa322387d4901ccfbbabbee089"}, 17446),
    ((0.5, 1.0, 2.0, 0.3), 1000, 150, 2,
     {AVX512: "6bfb657494dbfd01634514a75719d2985c490ff9bc5cc787734f9a9ee9c48e0a",
      BASELINE: "c1f4702756220f58e1ec5aafabff46bca89ec4fed5d612e704510211009be555"}, 18872),
    ((0.5, 1.0, 2.0, 0.3), 10_000, 20, 3,
     {AVX512: "1404dc3ea595d43cec4f8259b585c7d6327ca49ca1ff4999e5d135a10ac26af7",
      BASELINE: "c4b62df6a2c2f044385f5650a3e38ceba714d46d15207c538f94bdbead3a5b3c"}, 12569),
    # alpha > 1 with lam != 1, so the light draws are rescaled
    ((1.5, 0.3, 1.0, 0.5), 2000, 70, 4,
     {AVX512: "8d90482c6daff1f44dbec1bc88898ac80d766bbb9a14aa15960be7ecbe82658b",
      BASELINE: "4b6ec659b4d0fd81abd280412eaa3c9139d6d86636b1d88fde9267c38e5c4fbc"}, 3185),
    ((1.0, 1.0, 1.5, 0.4), 3000, 50, 5,
     {AVX512: "8da240dac09e3c8855a214339d02a00fcadb175d3a97f8d0e622ad3166d10363",
      BASELINE: "9a046ca61b3c324e4971d54b267ade33c6ac24b018e784c81756fcc40fb5ca73"}, 6177),
    # two full 2**16-draw tiles and a partial one, rescaled light draws
    ((1.5, 0.3, 1.0, 0.5), 3 * 2**16 + 5, 3, 6,
     {AVX512: "13c021073e0c8530acb3741d5021d4e63c8facc4d1467581abbe4919a9516e5b",
      BASELINE: "13c021073e0c8530acb3741d5021d4e63c8facc4d1467581abbe4919a9516e5b"}, 1337),
]


def dispatch_class() -> str:
    """numpy's current SIMD target for the float64 log1p and power loops."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="log1p|power", signature="float64")
    return " ".join(sorted({loop["current"] for loops in info.values() for loop in loops.values()}))


def raw_sums_digest(point, n, replicates, seed, threads):
    """(sha256 of the raw row sums, heavy-draw total) of one configuration."""
    alpha, lam, gamma1, gamma2 = point
    params = ModelParams(alpha=alpha, lam=lam, gamma1=gamma1, gamma2=gamma2)
    sample = monte_carlo(params, n, replicates, seed, IDENTITY, threads)
    digest = hashlib.sha256(sample.values.astype("<f8").tobytes()).hexdigest()
    return digest, round(sample.heavy_count_mean * replicates)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "point, n, replicates, seed, sha256, heavy_draws",
    GOLDEN,
    ids=[f"a{g[0][0]}-l{g[0][1]}-n{g[1]}" for g in GOLDEN],
)
def test_raw_sums_digest(point, n, replicates, seed, sha256, heavy_draws, threads):
    dispatch = dispatch_class()
    assert dispatch in sha256, f"no golden digests for numpy dispatch class {dispatch!r}"
    assert raw_sums_digest(point, n, replicates, seed, threads) == (sha256[dispatch], heavy_draws)


_BASELINE_CHILD = """
import json, sys
sys.path.insert(0, {tests!r})
from test_golden_digest import GOLDEN, dispatch_class, raw_sums_digest
print(json.dumps([dispatch_class(), [raw_sums_digest(*g[:4], t) for g in GOLDEN for t in (1, 2, 3)]]))
"""


def test_baseline_digests_on_an_avx512_host():
    """A child process switched to numpy's baseline loops gives the baseline digests."""
    if dispatch_class() != AVX512:
        pytest.skip("test_raw_sums_digest checks this host's own dispatch class")
    src = str(Path(mixlim.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _BASELINE_CHILD.format(tests=str(Path(__file__).resolve().parent))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    dispatch, results = json.loads(proc.stdout)
    assert dispatch == BASELINE
    assert results == [[g[4][BASELINE], g[5]] for g in GOLDEN for _ in (1, 2, 3)]
