"""Seedable lazy Markov chain over the dimer coverings of a graph.

Each step draws one site uniformly from the static list of unit
squares and t-sites.  A site supports exactly one move in each state
(or none), and that move is its own inverse on the site, so the
proposal kernel is symmetric and the stationary distribution is
uniform on the chain's connected component.  Proposing from the fixed
geometric site list, rather than from the moves applicable to the
current state, is what keeps the kernel symmetric: applicable-move
counts differ between neighboring states.  A graph with no sites
holds on every step and draws nothing.

The random source is Python's Mersenne-Twister generator; the report
records the algorithm tag so runs remain auditable if the stdlib ever
changes.  `run` draws its sites in blocks of 32-bit words, and the
site sequence equals that of one `randrange(len(sites))` per step,
which is what `step` calls: for n < 2**32, `randrange(n)` takes the
top k = n.bit_length() bits of one generator word and draws again
while the value is >= n, and `getrandbits(32 * B)` is the next B
words, the first one lowest.
"""

import random
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain

from .covering import DimerCovering, impurities, validate_covering
from .lattice import InvalidInputError, edge
from .moves import LocalMove, apply_move, proposal_sites, site_move, swap

RNG_ALGORITHM = "python-random-mersenne-twister"
BLOCK_WORDS = 1024      # generator words per block of site draws


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    steps: int
    burn_in: int = 0
    sample_every: int = 1

    def __post_init__(self):
        # run counts samples per interval with integer arithmetic, and
        # bool is an int subclass that would otherwise pass as 0 or 1
        if not all(type(x) is int for x in (self.seed, self.steps,
                                            self.burn_in, self.sample_every)):
            raise InvalidInputError(
                "seed, steps, burn_in and sample_every must be integers")
        if self.steps < 0 or self.burn_in < 0:
            raise InvalidInputError("steps and burn_in must be nonnegative")
        if self.sample_every < 1:
            raise InvalidInputError("sample_every must be at least 1")


@dataclass
class SampleReport:
    config: ChainConfig
    final: DimerCovering
    accepted: int
    n_samples: int
    impurity_counts: dict            # diagonal Edge -> occupation count
    state_counts: dict = field(default_factory=dict)
    trajectory: list = field(default_factory=list)
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def acceptance_rate(self):
        return self.accepted / self.config.steps if self.config.steps else 0.0

    def impurity_frequencies(self):
        if self.n_samples == 0:
            return {}
        return {e: c / self.n_samples
                for e, c in self.impurity_counts.items()}


def step(m: DimerCovering, rng: random.Random) -> DimerCovering:
    """One lazy chain step from m; returns m itself on a hold."""
    sites = proposal_sites(m.graph)
    if not sites:
        return m
    site = sites[rng.randrange(len(sites))]
    mv = site_move(m.mate_view(), site)
    if mv is None:
        return m
    return apply_move(m, LocalMove(site[0], *mv))


def _site_blocks(sites, rng):
    """Yield lists of sites whose concatenation is the sequence
    sites[rng.randrange(len(sites))], ... for len(sites) < 2**32.

    Nothing is yielded for an empty site list."""
    n = len(sites)
    if not n:
        return
    shift = 32 - n.bit_length()
    while True:
        words = array("I", rng.getrandbits(32 * BLOCK_WORDS)
                      .to_bytes(4 * BLOCK_WORDS, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield [sites[x] for x in [w >> shift for w in words] if x < n]


def run(m0: DimerCovering, cfg: ChainConfig, track_states=False,
        keep_trajectory=False) -> SampleReport:
    """Run the chain from m0, thinning samples after burn-in.

    The state after step i is sampled when i >= burn_in and
    (i - burn_in) % sample_every == 0, so before(x) =
    max(0, ceil((x - burn_in) / sample_every)) samples fall in steps
    [0, x).  Rather than test each step, the run keeps `since`, the
    step from which the current state holds, and credits the interval
    [since, i) with before(i) - before(since) samples of that state
    just before an accepted move at step i changes what is counted;
    the last interval closes at cfg.steps.  What is counted changes on
    every t-move, and on every move when states or the trajectory are
    kept.

    The impurities (diagonal dimers) are kept as a set through the run
    rather than found again on each interval.  An s-move never touches
    a diagonal dimer, and a t-move returned by site_move as (a, b, c, d)
    always removes the diagonal {a,b} and adds the diagonal {b,c}, so
    only accepted t-moves update the set.
    """
    g = m0.graph
    mate = m0.mate_map()
    impurity_set = set(impurities(m0))
    burn_in, every = cfg.burn_in, cfg.sample_every
    keep_states = track_states or keep_trajectory
    accepted = 0
    impurity_counts = {}
    state_counts = {}
    trajectory = []

    def before(x):
        return max(0, -((burn_in - x) // every))

    def credit(start, stop):
        n = before(stop) - before(start)
        if not n:
            return
        for e in impurity_set:
            impurity_counts[e] = impurity_counts.get(e, 0) + n
        if keep_states:
            key = tuple(sorted((v, w) for v, w in mate.items() if v < w))
            if track_states:
                state_counts[key] = state_counts.get(key, 0) + n
            if keep_trajectory:
                trajectory.extend([key] * n)

    since = 0
    draws = chain.from_iterable(_site_blocks(proposal_sites(g),
                                             random.Random(cfg.seed)))
    for i, site in zip(range(cfg.steps), draws):
        mv = site_move(mate, site)
        if mv is None:
            continue
        accepted += 1
        t_move = site[0] == "t"
        if t_move or keep_states:
            credit(since, i)
            since = i
        a, b, c, d = mv
        swap(mate, a, b, c, d)
        if t_move:
            impurity_set.remove(edge(a, b))
            impurity_set.add(edge(b, c))
    credit(since, cfg.steps)
    final = validate_covering(g, [(v, w) for v, w in mate.items() if v < w])
    return SampleReport(cfg, final, accepted, before(cfg.steps),
                        impurity_counts, state_counts, trajectory)
