"""Random variate generation and the reproducible Monte Carlo sum driver.

The generator is a counter-mode SplitMix64: output j of a stream with seed s
is ``mix(s + j * 0x9E3779B97F4A7C15)`` where ``mix`` is the SplitMix64
finalizer (xor-shift / multiply staircase).  Uniforms are built from the top
53 bits as ``min((bits + 0.5) * 2**-53, 1 - 2**-53)`` and therefore lie
strictly inside (0, 1).

Counter mode makes block generation vectorisable and gives O(1) jump-ahead,
so a replicate's stream can be regenerated from (seed, position) alone.
Substream k of a master seed is ``mix(master ^ (k * 0x9E3779B97F4A7C15))``;
replicates of a campaign use substreams, never slices of one stream.
Row sums are computed many replicates at a time, as (rows x draws) blocks;
the bits of each row sum depend on neither the block size nor the threads.
The kernel mixes at most 2**16 draws at a time, a block of short rows or a
tile of a long row, so its scratch stays in a per-core L2 cache.  Only the
2**19-draw summation chunk fixes the partials of a row sum, so the tile
changes no bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    InstanceParams,
    ModelParams,
    _light_quantile,
    derive_instance,
    quantile_light,
    quantile_truncated_pareto,
)
from .regimes import NormalizationPlan

__all__ = [
    "RngStream",
    "SumSample",
    "substream_seed",
    "sample_mixture",
    "sample_sum",
    "monte_carlo",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_U_MAX = 1.0 - 2.0**-53  # largest double below 1: the top of every uniform

# Draws mixed at a time.  Rows of up to _BLOCK draws are simulated
# max(1, _BLOCK // n) replicates at a time as one C-contiguous (rows x n)
# array; a longer row is mixed in tiles of _BLOCK draws, written into its
# chunk's draw buffer.  Neither blocks nor tiles change a bit, because every
# draw depends only on its replicate's seed and its position in the row, and
# only _CHUNK fixes the summation partials.
_BLOCK = 1 << 16

# Summation chunk of long rows: a row sum is the pairwise np.sum of each
# 2**19-draw chunk, and the chunk partials are combined exactly with
# math.fsum.  The chunk boundaries alone fix those partials, so changing
# _CHUNK changes the digest of every row longer than the chunk, while the
# _BLOCK tiles within a chunk change no bit.
_CHUNK = 1 << 19


def _mix64_array(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array (wraps mod 2**64).

    ``tmp`` is scratch of the same shape; no other array is allocated.
    """
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, reduced mod 2**64."""
    word = np.array([z & _MASK64], dtype=np.uint64)
    return int(_mix64_array(word, np.empty_like(word))[0])


def _to_uniforms(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms ``min((bits + 0.5) * 2**-53, 1 - 2**-53)`` of the top 53 bits.

    The clamp only touches bits = 2**53 - 1, where ``bits + 0.5`` rounds up
    to 2**53.  ``words`` is overwritten.
    """
    np.right_shift(words, 11, out=words)
    np.add(words, 0.5, out=out)
    out *= 2.0**-53
    return np.minimum(out, _U_MAX, out=out)


def _substream_seeds(master_seed: int, ks: np.ndarray) -> np.ndarray:
    """Seeds mix(master ^ (k * 0x9E3779B97F4A7C15)) of the substreams ``ks``."""
    z = ks.astype(np.uint64) * np.uint64(_GOLDEN)
    z ^= np.uint64(master_seed & _MASK64)
    return _mix64_array(z, np.empty_like(z))


def substream_seed(master_seed: int, k: int) -> int:
    """Seed of replicate substream k: mix(master ^ (k * 0x9E3779B97F4A7C15))."""
    if k < 0:
        raise ValueError(f"substream index must be non-negative, got {k}")
    return int(_substream_seeds(master_seed, np.array([k & _MASK64], dtype=np.uint64))[0])


class RngStream:
    """Deterministic uniform stream; single-owner, never shared across threads."""

    __slots__ = ("seed", "position")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.position = 0  # number of uniforms consumed so far

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms on (0, 1) as a float64 array."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        start = self.position + 1
        state = np.arange(start, start + count, dtype=np.uint64)
        state *= np.uint64(_GOLDEN)
        state += np.uint64(self.seed)
        self.position += count
        _mix64_array(state, np.empty_like(state))
        return _to_uniforms(state, np.empty(count))


def sample_mixture(rng, params: ModelParams, inst: InstanceParams) -> float:
    """One mixture draw, consuming exactly two uniforms regardless of branch.

    The first uniform decides the component (heavy iff u <= eps_n, inclusive
    by convention); the second is inverted through the selected quantile.
    Fixed two-uniform consumption keeps replicate streams aligned whichever
    branches are taken.
    """
    u = rng.uniforms(2)
    if u[0] <= inst.eps_n:
        return quantile_truncated_pareto(float(u[1]), params.alpha, inst.m_n)
    return quantile_light(float(u[1]), params.lam)


def _branch_threshold(eps: float) -> int:
    """Count T of 53-bit values b whose uniform is <= eps: heavy iff b < T.

    The uniform of b is nondecreasing in b, so the heavy branch is exactly
    b < T, and the kernel tests it on the raw 64-bit word as
    ``word <= (T << 11) - 1`` without turning the word into a float.
    """
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if min((mid + 0.5) * 2.0**-53, _U_MAX) <= eps:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _RowSums:
    """Row sums of ``inst.n`` mixture draws for a block of replicate streams.

    Calling it with the uint64 stream bases of some rows returns their sums
    and heavy-draw counts.  Row r uses the stream whose word j is
    ``mix(bases[r] + j * 0x9E3779B97F4A7C15)``; draw i takes word 2i + 1 for
    the branch and word 2i + 2 for the value, as ``sample_mixture`` does.

    Draws are mixed a tile at a time: a block of short rows is one tile, and
    a row longer than ``_BLOCK`` draws is mixed in ``_BLOCK``-draw tiles,
    each written into its chunk's draw buffer while still in cache.
    Accumulation is pairwise within each row chunk (np.sum) and exact across
    chunk partials (math.fsum); heavy-tail summands span many orders of
    magnitude and naive accumulation would lose the light-tail mass.
    Immutable after construction, so threads may share one instance.
    """

    def __init__(self, params: ModelParams, inst: InstanceParams):
        self.n = inst.n
        self.rows = max(1, _BLOCK // inst.n)  # replicates per block
        self.lam = params.lam
        self.alpha = params.alpha
        self.m_n = inst.m_n
        threshold = _branch_threshold(inst.eps_n)
        # largest heavy word, or None when no word can take the heavy branch
        self.heavy_word = np.uint64((threshold << 11) - 1) if threshold else None
        self.tile = min(inst.n, _BLOCK)  # draws mixed at a time in a long row
        # counter offsets of draw i's branch word 2i + 1 and value word 2i + 2
        words = np.arange(1, 2 * self.tile + 1, dtype=np.uint64)
        words *= np.uint64(_GOLDEN)
        self.branch_offsets = words[0::2].copy()
        self.value_offsets = words[1::2].copy()

    def __call__(self, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row sums and heavy-draw counts of the rows with stream bases ``bases``.

        The rows are computed a block at a time in one set of scratch buffers.
        """
        n = self.n
        rows = min(len(bases), self.rows)
        words = np.empty(rows * self.tile, dtype=np.uint64)
        draws = np.empty(rows * min(n, _CHUNK))  # one chunk's draws
        totals = np.empty(len(bases))
        heavy = np.zeros(len(bases), dtype=np.int64)
        for i in range(0, len(bases), self.rows):
            block = slice(i, i + self.rows)
            partials = []
            for start in range(0, n, _CHUNK):
                sums, counts = self._chunk(bases[block], start, min(_CHUNK, n - start), words, draws)
                partials.append(sums)
                heavy[block] += counts
            if len(partials) == 1:
                totals[block] = partials[0]
            else:  # rows over _CHUNK draws come one per block
                totals[block] = math.fsum(float(p[0]) for p in partials)
        return totals, heavy

    def _chunk(self, bases, start, width, words, draws) -> tuple[np.ndarray, np.ndarray]:
        """Sums and heavy counts of draws start..start+width-1 of each row of ``bases``.

        The draws are made a tile at a time: the whole block when its rows
        are short, else ``self.tile`` draws of the block's single row.  Either
        way a tile's draws are the contiguous run [lo, lo + rows * w) of the
        chunk's row-major draw buffer.
        """
        rows = len(bases)
        x = draws[:rows * width]
        bases = bases[:, None]
        heavy_at = []  # flat indices of heavy draws in the chunk, per tile
        for lo in range(0, width, self.tile):
            w = min(self.tile, width - lo)
            shift = np.uint64((2 * (start + lo) * _GOLDEN) & _MASK64)
            heavy_at.append(self._tile(bases + shift, words[:rows * w].reshape(rows, w),
                                       x[lo:lo + rows * w].reshape(rows, w)) + lo)
        heavy_at = np.concatenate(heavy_at)
        counts = np.diff(np.searchsorted(heavy_at, np.arange(rows + 1) * width))
        return x.reshape(rows, width).sum(axis=1), counts

    def _tile(self, bases, words, x) -> np.ndarray:
        """Draws of one (rows x w) tile into ``x``; flat indices of its heavy draws.

        ``bases`` holds each row's stream base shifted to the tile's first
        draw.  ``x`` doubles as the mixer's scratch before it takes the draws.
        """
        w = x.shape[1]
        tmp = x.view(np.uint64)
        flat = x.reshape(-1)
        heavy_at = np.empty(0, dtype=np.intp)
        if self.heavy_word is not None:
            np.add(self.branch_offsets[:w], bases, out=words)
            heavy_at = np.flatnonzero(_mix64_array(words, tmp) <= self.heavy_word)
        np.add(self.value_offsets[:w], bases, out=words)
        _to_uniforms(_mix64_array(words, tmp), x)
        u_heavy = flat[heavy_at]
        _light_quantile(x, self.lam, x)
        if heavy_at.size:
            flat[heavy_at] = quantile_truncated_pareto(u_heavy, self.alpha, self.m_n)
        return heavy_at


def sample_sum(rng: RngStream, params: ModelParams, inst: InstanceParams) -> float:
    """S_n: sum of ``inst.n`` independent mixture draws from ``rng``.

    Consumes ``2 * inst.n`` uniforms, the same ones ``inst.n`` calls of
    ``sample_mixture`` would.
    """
    base = (rng.seed + rng.position * _GOLDEN) & _MASK64
    rng.position += 2 * inst.n
    totals, _ = _RowSums(params, inst)(np.array([base], dtype=np.uint64))
    return float(totals[0])


@dataclass
class SumSample:
    """Normalized sum statistics from a Monte Carlo campaign.

    values            one normalized statistic (S_n - center) / scale per
                      replicate, ordered by replicate index
    heavy_count_mean  average number of heavy-branch draws per replicate
    """

    values: np.ndarray
    heavy_count_mean: float


def monte_carlo(
    params: ModelParams,
    n: int,
    replicates: int,
    master_seed: int,
    plan: NormalizationPlan,
    thread_count: int = 1,
) -> SumSample:
    """Simulate ``replicates`` normalized sums (S_n - center) / scale.

    Replicate k uses the substream ``substream_seed(master_seed, k)``, so the
    output is a pure function of (params, n, replicates, master_seed, plan)
    and bit-identical for any ``thread_count``: each thread takes a run of
    whole blocks of replicates, and no replicate's stream is ever split.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if thread_count < 1:
        raise ValueError(f"thread_count must be >= 1, got {thread_count}")
    kernel = _RowSums(params, derive_instance(params, n))
    seeds = _substream_seeds(master_seed, np.arange(replicates))
    # each thread takes one contiguous run of whole blocks
    blocks = -(-replicates // kernel.rows)
    workers = min(thread_count, blocks)
    cuts = [blocks * w // workers * kernel.rows for w in range(workers + 1)]
    runs = [seeds[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    if workers == 1:
        results = [kernel(seeds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(kernel, runs))
    totals = np.concatenate([total for total, _ in results])
    heavy_counts = np.concatenate([count for _, count in results]).astype(np.float64)
    values = (totals - plan.center) / plan.scale
    if not np.all(np.isfinite(values)):
        raise ArithmeticError("non-finite normalized sum encountered")
    return SumSample(values=values, heavy_count_mean=float(np.mean(heavy_counts)))
