"""Seedable lazy Markov chain over the dimer coverings of a graph.

Each step draws one site uniformly from the static list of unit
squares and t-sites.  A site supports exactly one move in each state
(or none), and that move is its own inverse on the site, so the
proposal kernel is symmetric and the stationary distribution is
uniform on the chain's connected component.  Proposing from the fixed
geometric site list, rather than from the moves applicable to the
current state, is what keeps the kernel symmetric: applicable-move
counts differ between neighboring states.

The random source is Python's Mersenne-Twister generator; the report
records the algorithm tag so runs remain auditable if the stdlib ever
changes.
"""

import random
from dataclasses import dataclass, field

from .covering import DimerCovering, impurities, validate_covering
from .lattice import InvalidInputError, edge
from .moves import LocalMove, apply_move, proposal_sites, site_move

RNG_ALGORITHM = "python-random-mersenne-twister"


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    steps: int
    burn_in: int = 0
    sample_every: int = 1

    def __post_init__(self):
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
    site = sites[rng.randrange(len(sites))]
    mv = site_move(m.mate_view(), site)
    if mv is None:
        return m
    return apply_move(m, LocalMove(site[0], *mv))


def run(m0: DimerCovering, cfg: ChainConfig, track_states=False,
        keep_trajectory=False) -> SampleReport:
    """Run the chain from m0, thinning samples after burn-in.

    The impurities (diagonal dimers) are kept as a set through the run
    rather than found again on each sample.  An s-move never touches a
    diagonal dimer, and a t-move returned by site_move as (a, b, c, d)
    always removes the diagonal {a,b} and adds the diagonal {b,c}, so
    only accepted t-moves update the set.
    """
    g = m0.graph
    sites = proposal_sites(g)
    n_sites = len(sites)
    mate = m0.mate_map()
    impurity_set = set(impurities(m0))
    rng = random.Random(cfg.seed)
    randrange = rng.randrange
    accepted = 0
    n_samples = 0
    impurity_counts = {}
    state_counts = {}
    trajectory = []
    for i in range(cfg.steps):
        site = sites[randrange(n_sites)]
        mv = site_move(mate, site)
        if mv is not None:
            a, b, c, d = mv
            mate[a], mate[d], mate[b], mate[c] = d, a, c, b
            accepted += 1
            if site[0] == "t":
                impurity_set.remove(edge(a, b))
                impurity_set.add(edge(b, c))
        if i >= cfg.burn_in and (i - cfg.burn_in) % cfg.sample_every == 0:
            n_samples += 1
            for e in impurity_set:
                impurity_counts[e] = impurity_counts.get(e, 0) + 1
            if track_states or keep_trajectory:
                key = tuple(sorted((v, w) for v, w in mate.items() if v < w))
                if track_states:
                    state_counts[key] = state_counts.get(key, 0) + 1
                if keep_trajectory:
                    trajectory.append(key)
    final = validate_covering(g, [(v, w) for v, w in mate.items() if v < w])
    return SampleReport(cfg, final, accepted, n_samples,
                        impurity_counts, state_counts, trajectory)
