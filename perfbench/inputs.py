"""Seeded inputs for every workload.

``fit`` runs on the database ``generate_clustered_database(num_sequences=200,
num_clusters=10, avg_length=100, alphabet_size=12)`` builds with its
default seed, with the symbols renamed by a permutation drawn from
``--seed``: each seed gives the program different sequences, and every
seed poses the same clustering problem. The §4 loop's convergence is
chaotic in anything else about the data: a fresh sample of the same
sources, or the same sequences in another order, moves a fit between
about 11 iterations (3 s) and the 25-iteration cap (11 s) on a 2-vCPU
host, which no run length within the time budget averages away.

For the other workloads each seed draws a fresh *sample* of one fixed
*problem*: ``serve`` samples the first six Markov sources of the fit
database, and ``stream``/``shard`` the two regimes that
``drifting_markov_stream`` draws from problem seed 11. The seed draws
which sequences, of which lengths, in which order, so a held-out seed
is a fresh sample of the same problem.

The fit sources come from the generator itself. Two things copy it:
``clustered_database`` balances cluster sizes and places outliers as
``generate_clustered_database`` does, and ``drifting_stream`` rebuilds
the regimes in ``drifting_markov_stream``'s draw order (that generator
does not return them). A change to either generator is not followed
here. Sampling uses cumulative tables and one uniform draw per symbol,
so generating a run's inputs costs well under a second.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from repro.sequences.alphabet import Alphabet
from repro.sequences.database import OUTLIER_LABEL, SequenceDatabase
from repro.sequences.generators import SyntheticDataset, generate_clustered_database
from repro.sequences.markov import MarkovSource, random_markov_source, uniform_source

#: ``fit``: generate_clustered_database(num_sequences=200,
#: num_clusters=10, avg_length=100, alphabet_size=12), default seed.
FIT_SHAPE = {"num_sequences": 200, "num_clusters": 10, "avg_length": 100,
             "alphabet_size": 12}

#: ``stream``/``shard``: drifting_markov_stream(alphabet_size=8,
#: mean_length=60, concentration=0.05), regimes of seed 11.
STREAM_PROBLEM_SEED = 11
STREAM_ALPHABET = 8
STREAM_MEAN_LENGTH = 60
STREAM_CONCENTRATION = 0.05
STREAM_LENGTH_JITTER = 0.15

#: ``serve``: a 6-cluster draw of the fit problem.
SERVE_CLUSTERS = 6


def sample_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator for sample *stream* of run seed *seed*."""
    return np.random.default_rng([seed, stream])


class FastSampler:
    """Draws sequences from a :class:`MarkovSource` via cumulative tables."""

    def __init__(self, source: MarkovSource) -> None:
        self.source = source
        self.order = source.order
        self._tables: dict[tuple[int, ...], list[float]] = {}

    def _table(self, context: tuple[int, ...]) -> list[float]:
        table = self._tables.get(context)
        if table is None:
            cumulative = np.cumsum(self.source.distribution_for(context))
            cumulative[-1] = 1.0
            table = cumulative.tolist()
            self._tables[context] = table
        return table

    def sample(self, length: int, rng: np.random.Generator) -> list[int]:
        out: list[int] = []
        order = self.order
        for u in rng.random(length).tolist():
            context = tuple(out[-order:]) if order else ()
            out.append(bisect.bisect_right(self._table(context), u))
        return out


def _lengths(rng: np.random.Generator, count: int, mean: int, jitter: float) -> list[int]:
    raw = rng.normal(mean, jitter * mean, size=count)
    return [max(2, int(round(float(x)))) for x in raw]


@functools.lru_cache(maxsize=None)
def fit_problem() -> SyntheticDataset:
    """The fit database and its sources, as the generator builds them."""
    return generate_clustered_database(**FIT_SHAPE)


def fit_database(seed: int) -> SequenceDatabase:
    """The fit database with its symbols renamed by run seed *seed*."""
    problem = fit_problem().database
    alphabet = problem.alphabet
    rename = sample_rng(seed, 0).permutation(len(alphabet)).tolist()
    db = SequenceDatabase(alphabet)
    for index, label in enumerate(problem.labels):
        renamed = [rename[symbol] for symbol in problem.encoded(index)]
        db.add_sequence(alphabet.decode(renamed), label=label)
    return db


def clustered_database(
    rng: np.random.Generator,
    num_sequences: int,
    num_clusters: int,
) -> SequenceDatabase:
    """A labelled sample of the fit problem's first *num_clusters*
    sources, balanced and with outliers as the generator places them."""
    problem = fit_problem()
    spec = problem.spec
    sources = [FastSampler(s) for s in problem.sources[:num_clusters]]
    noise = FastSampler(uniform_source(spec.alphabet_size))
    outliers = int(round(num_sequences * spec.outlier_fraction))
    base, extra = divmod(num_sequences - outliers, num_clusters)
    alphabet = Alphabet.generic(spec.alphabet_size)
    db = SequenceDatabase(alphabet)
    groups = [
        (sampler, base + (1 if i < extra else 0), f"cluster{i}")
        for i, sampler in enumerate(sources)
    ]
    groups.append((noise, outliers, OUTLIER_LABEL))
    for sampler, size, label in groups:
        for length in _lengths(rng, size, spec.avg_length, spec.length_jitter):
            db.add_sequence(alphabet.decode(sampler.sample(length, rng)), label=label)
    return db


@dataclass(frozen=True)
class Stream:
    sequences: list[list[int]]
    #: Regime per sequence: 0 before the drift, 1 after.
    labels: list[int]


def drifting_stream(seed: int, index: int, length: int, drift_at: int) -> Stream:
    """Pass *index* of run seed *seed*: regime A, then B from *drift_at*."""
    rng = np.random.default_rng(STREAM_PROBLEM_SEED)
    regimes = [
        FastSampler(
            random_markov_source(
                STREAM_ALPHABET, order=1, rng=rng, concentration=STREAM_CONCENTRATION
            )
        )
        for _ in range(2)
    ]
    draw = sample_rng(seed, index)
    labels = [0 if i < drift_at else 1 for i in range(length)]
    lengths = _lengths(draw, length, STREAM_MEAN_LENGTH, STREAM_LENGTH_JITTER)
    sequences = [regimes[label].sample(n, draw) for label, n in zip(labels, lengths)]
    return Stream(sequences=sequences, labels=labels)
