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
names the algorithm so runs remain auditable if the stdlib ever
changes.  `run` draws its sites in blocks of 32-bit words, and the
site sequence equals that of one `randrange(len(sites))` per step,
which is what `step` calls: for n < 2**32, `randrange(n)` takes the
top k = n.bit_length() bits of one generator word and draws again
while the value is >= n, and `getrandbits(32 * B)` is the next B
words, the first one lowest.  So one shift of the block's integer by
32 - k and one AND with k low bits set in every word leave each
word's draw in its own 32-bit slot, read back as an array.

Both draw from `moves.site_table(g).sites`, the one proposal list,
which numbers the graph's vertices in sorted order and states each site
over those indices.  `run` moves a mate list over it, so `site_move`
reads a site without hashing a coordinate, and vertices come back
through the table only where a move changes what is counted.  `step`
maps only the drawn site back to vertices.
"""

import random
import sys
from array import array
from dataclasses import dataclass
from itertools import chain

from .covering import (DimerCovering, check_covering, impurities,
                       validate_covering)
from .lattice import InvalidInputError, edge
from .moves import LocalMove, apply_move, site_move, site_table, swap

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
        # random.Random(-s) seeds from |s|, so a negative seed would run
        # the chain of its absolute value under another name
        if self.seed < 0:
            raise InvalidInputError("seed must be nonnegative")
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
    trajectory: list                 # sampled dimer tuples, if kept

    @property
    def rng_algorithm(self):
        return RNG_ALGORITHM

    @property
    def acceptance_rate(self):
        return self.accepted / self.config.steps if self.config.steps else 0.0

    def impurity_frequencies(self):
        if self.n_samples == 0:
            return {}
        return {e: c / self.n_samples
                for e, c in self.impurity_counts.items()}


def step(m: DimerCovering, rng: random.Random) -> DimerCovering:
    """One lazy chain step from m; returns m itself on a hold.

    The site is drawn as run draws it, and only its four indices are
    mapped to vertices; apply_move validates the move.
    """
    table = site_table(m.graph)
    sites = table.sites
    if not sites:
        return m
    kind, a, b, c, d = sites[rng.randrange(len(sites))]
    vs = table.vertices
    mv = site_move(m.mate_view(), (kind, vs[a], vs[b], vs[c], vs[d]))
    if mv is None:
        return m
    return apply_move(m, LocalMove(kind, *mv))


def _site_blocks(sites, rng):
    """Yield lists of sites whose concatenation is the sequence
    sites[rng.randrange(len(sites))], ... for len(sites) < 2**32.

    Each block is one integer of BLOCK_WORDS generator words, word i in
    bits [32i, 32i + 32).  Shifting it right by 32 - k moves word i's
    top k bits to the bottom of its slot and the rest of the word into
    the slot below, and `mask`, k low bits set in every slot, clears
    what moved down, so the slots read as an array are the draws; only
    the test against n is left per word.  Nothing is yielded for an
    empty site list."""
    n = len(sites)
    if not n:
        return
    k = n.bit_length()
    mask = int.from_bytes(((1 << k) - 1).to_bytes(4, "little")
                          * BLOCK_WORDS, "little")
    while True:
        words = array("I", ((rng.getrandbits(32 * BLOCK_WORDS) >> (32 - k))
                            & mask).to_bytes(4 * BLOCK_WORDS, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        yield [sites[x] for x in words if x < n]


def run(m0: DimerCovering, cfg: ChainConfig,
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
    every t-move, and on every move when the trajectory is kept.

    The mate is a list over site_table(g), moved by site_move and swap
    at the table's indexed sites.  The impurities (diagonal dimers) are
    kept as a set of vertex edges through the run rather than found
    again on each interval.  An s-move never touches a diagonal dimer,
    and a t-move returned by site_move as (a, b, c, d) always removes
    the diagonal {a,b} and adds the diagonal {b,c}, so only accepted
    t-moves update the set, through the table's vertex tuple.  A kept
    state is the table's sorted dimers of the list, g's own edge
    tuples, so kept states share them.  m0 is checked once, up front,
    and the final covering is validated.
    """
    g = m0.graph
    check_covering(g, m0)
    table = site_table(g)
    vertices = table.vertices
    mate = table.mate_list(m0)
    impurity_set = set(impurities(m0))
    burn_in, every = cfg.burn_in, cfg.sample_every
    accepted = 0
    impurity_counts = {}
    trajectory = []

    def before(x):
        return max(0, -((burn_in - x) // every))

    def credit(start, stop):
        n = before(stop) - before(start)
        if not n:
            return
        for e in impurity_set:
            impurity_counts[e] = impurity_counts.get(e, 0) + n
        if keep_trajectory:
            trajectory.extend([table.dimers(mate)] * n)

    since = 0
    draws = chain.from_iterable(_site_blocks(table.sites,
                                             random.Random(cfg.seed)))
    for i, site in zip(range(cfg.steps), draws):
        mv = site_move(mate, site)
        if mv is None:
            continue
        accepted += 1
        t_move = site[0] == "t"
        if t_move or keep_trajectory:
            credit(since, i)
            since = i
        a, b, c, d = mv
        swap(mate, a, b, c, d)
        if t_move:
            impurity_set.remove(edge(vertices[a], vertices[b]))
            impurity_set.add(edge(vertices[b], vertices[c]))
    credit(since, cfg.steps)
    final = validate_covering(g, table.dimers(mate))
    return SampleReport(cfg, final, accepted, before(cfg.steps),
                        impurity_counts, trajectory)
