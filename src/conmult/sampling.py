"""Seeded, reproducible random generation.

A draw sequence is a pure function of an :class:`RngStream`; parallel Monte
Carlo partitions work across substreams and reduces results in substream
order, so aggregates do not depend on scheduling or worker count.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    DirichletParams,
    SimplexPoint,
    TrineEllipse,
    _row_sums,
    ordered_from_weights_array,
)

DEFAULT_CHUNK = 100_000


@dataclass(frozen=True)
class RngStream:
    """Identity of a reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draw sequences;
    distinct stream_ids give statistically independent streams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def substream(self, index: int) -> "RngStream":
        """Derive a child stream. Children of distinct (stream_id, index) are independent."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, int(index))
        )
        return RngStream(seed=self.seed, stream_id=int(ss.generate_state(1, np.uint64)[0]))


def sample_dirichlet_array(params: DirichletParams, size: int, rng) -> np.ndarray:
    """(size, k+1) Dirichlet draws via normalized gammas.

    The row sums come from ``_row_sums`` over the cells, the bits of
    ``g.sum(axis=1)`` at a fraction of its cost for a few cells.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    g = gen.standard_gamma(params.alphas, size=(size, len(params)))
    s = _row_sums(g.T)
    # a whole row underflowing to zero has vanishing probability for alpha >= ~0.01
    for i in np.flatnonzero(s == 0.0):
        while g[i].sum() == 0.0:
            g[i] = gen.standard_gamma(params.alphas)
        s[i] = g[i].sum()
    return g / s[:, None]


def sample_dirichlet(params: DirichletParams, rng: RngStream) -> SimplexPoint:
    """One Dirichlet draw."""
    return SimplexPoint(sample_dirichlet_array(params, 1, rng)[0])


def sample_multinomial_array(n: int, theta, size: int, rng) -> np.ndarray:
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return gen.multinomial(n, np.asarray(theta, dtype=float), size=size)


def sample_multinomial(n: int, theta: SimplexPoint, rng: RngStream):
    """One multinomial count vector of total n."""
    from .core import CountVector

    if n < 1:
        raise ValueError("n must be >= 1")
    return CountVector(sample_multinomial_array(n, theta.probs, 1, rng)[0])


def sample_trine_prior_array(a: float, size: int, rng) -> np.ndarray:
    """Draws from the density proportional to (1 - (theta-c)^t C (theta-c))^(1/2).

    Sampling is by the elliptical polar map theta_{1:2} = c + sqrt(r) * M u(omega)
    with M = C^(-1/2), omega uniform on (0, 2 pi). The area element of that map
    is constant, so matching the target density requires r ~ Beta(1, 3/2); this
    is validated against a rejection sampler in the tests. Beta draws come from
    the two-cell Dirichlet special case.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    region = TrineEllipse(a)
    w, V = np.linalg.eigh(region.matrix)
    M = V @ np.diag(w**-0.5) @ V.T
    ang = gen.uniform(0.0, 2.0 * np.pi, size)
    g = gen.standard_gamma(np.array([1.0, 1.5]), size=(size, 2))
    r = g[:, 0] / g.sum(axis=1)
    u = np.stack([np.cos(ang), np.sin(ang)])
    xy = region.center + np.sqrt(r)[:, None] * (M @ u).T
    return np.column_stack([xy, 1.0 - xy.sum(axis=1)])


def sample_trine_prior(a: float, rng: RngStream) -> SimplexPoint:
    """One draw from the trine prior; always lies inside the trine ellipse."""
    return SimplexPoint(sample_trine_prior_array(a, 1, rng)[0])


def sample_ordered_prior_array(omega_params: DirichletParams, size: int, rng) -> np.ndarray:
    """Draws with decreasing coordinates, induced by a Dirichlet on the weights."""
    om = sample_dirichlet_array(omega_params, size, rng)
    return ordered_from_weights_array(om)


def sample_ordered_prior(omega_params: DirichletParams, rng: RngStream) -> SimplexPoint:
    """One draw from the ordered prior induced by omega ~ Dirichlet(omega_params)."""
    return SimplexPoint(sample_ordered_prior_array(omega_params, 1, rng)[0])


def chunked_monte_carlo(draw_chunk, total: int, rng: RngStream,
                        workers: int = 1, chunk_size: int = DEFAULT_CHUNK):
    """Run ``draw_chunk(substream, count)`` over a fixed partition of ``total`` draws.

    The partition depends only on ``total`` and ``chunk_size``; ``workers`` only
    controls execution concurrency, so results are identical for any worker
    count. Returns the list of per-chunk results in chunk order.
    """
    if total < 1:
        raise ValueError(f"need at least one draw, got {total}")
    sizes = [chunk_size] * (total // chunk_size)
    if total % chunk_size:
        sizes.append(total % chunk_size)
    tasks = [(rng.substream(i), m) for i, m in enumerate(sizes)]
    return parallel_map(lambda t: draw_chunk(*t), tasks, workers)


def parallel_map(fn, items, workers: int):
    """``[fn(x) for x in items]``, run on ``workers`` threads when that is more than one.

    Results come back in item order, so they do not depend on ``workers``.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        from concurrent import futures  # with the logging it loads, a few ms of start-up

        with futures.ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]
