"""Seeded synthetic multi-domain batch streams.

Classes are fixed Gaussian template maps; a sample is its class template
plus Gaussian pixel noise, pushed through a per-domain photometric
transform (multiplicative contrast, additive brightness, additive
Gaussian noise) whose strength scales with an integer severity. Scenario
kinds control how domains are mixed across batches:

  static     one domain at a time, held for an extended stretch
  cross_mix  every batch mixes all domains
  shuffle    batches alternate single-domain (even indices, rotating
             through domains) and all-domain composition (odd indices)
  random     per-batch domain count drawn uniformly from 1..M
  wild       random composition plus temporally correlated labels drawn
             from a per-batch Dirichlet distribution

Every batch is a pure function of (seed, batch_index mod num_batches),
so batches can be regenerated out of order and `rounds` replays the
identical sequence.

`iter_batches` is the in-order stream loop that feeds a network: it yields
each batch with the result of a per-batch function, such as `Network.stem`'s
(the network's first conv and moments). From one block (`tensors._BLOCK`
samples) per batch up, a worker thread runs that work one batch ahead and
draws the noise of the batch after next, which numpy does outside the GIL,
while the caller works on the current batch. Smaller batches run serially: a
hand-off costs more than their draw. Batches alone come from `sample_batch`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .rules import COUNT, FINITE, INTEGER, NONNEGATIVE, NUM_CLASSES, POSITIVE, SEED, SEVERITY, one_of
from .tensors import _BLOCK

__all__ = [
    "DomainSpec",
    "StreamScenario",
    "TemplateBank",
    "LabeledBatch",
    "SCENARIO_KINDS",
    "identity_domain",
    "make_domains",
    "build_templates",
    "sample_batch",
    "iter_batches",
]

SCENARIO_KINDS = ("static", "cross_mix", "shuffle", "random", "wild")

# Severity-to-parameter table: per unit of severity, contrast moves by
# +-CONTRAST_STEP, brightness by +-BRIGHTNESS_STEP, and additive noise
# grows by NOISE_STEP. Signs are fixed per domain by the scenario seed.
CONTRAST_STEP = 0.15
BRIGHTNESS_STEP = 0.3
NOISE_STEP = 0.05

# Draws of a whole template set before `build_templates` gives up on min_dist.
TEMPLATE_DRAWS = 100


@dataclass(frozen=True)
class DomainSpec:
    id: int
    contrast: float
    brightness: float
    noise_sigma: float
    severity: int

    def __post_init__(self):
        for name, rule in (("id", INTEGER), ("contrast", POSITIVE), ("brightness", FINITE), ("noise_sigma", NONNEGATIVE),
                           ("severity", SEVERITY)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))


def identity_domain() -> DomainSpec:
    """The no-shift domain used for clean training and baseline streams."""
    return DomainSpec(id=0, contrast=1.0, brightness=0.0, noise_sigma=0.0, severity=1)


def make_domains(num_domains: int, severity: int, seed: int) -> list[DomainSpec]:
    """Default domain set for a severity level.

    The four contrast/brightness sign combinations are dealt out in a
    seeded order; past four domains the magnitudes are halved per tier so
    every domain keeps a distinct photometric signature.
    """
    num_domains, severity = COUNT("num_domains", num_domains), SEVERITY("severity", severity)
    rng = np.random.default_rng([SEED("seed", seed), 911])
    combos = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    order = rng.permutation(4)
    domains = []
    for j in range(num_domains):
        sc, sb = combos[order[j % 4]]
        tier = 0.5 ** (j // 4)
        domains.append(
            DomainSpec(
                id=j,
                contrast=1.0 + sc * CONTRAST_STEP * severity * tier,
                brightness=sb * BRIGHTNESS_STEP * severity * tier,
                noise_sigma=NOISE_STEP * severity,
                severity=severity,
            )
        )
    return domains


@dataclass(frozen=True)
class StreamScenario:
    kind: str
    domains: list = field(default_factory=list)
    batch_size: int = 64
    num_batches: int = 100
    rounds: int = 1
    seed: int = 0
    dirichlet_delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", one_of("kind", self.kind, SCENARIO_KINDS))
        if len(self.domains) < 1:
            raise ValueError("domains must list at least one domain")
        for name, rule in (("batch_size", COUNT), ("num_batches", COUNT), ("rounds", COUNT), ("seed", SEED)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        if self.dirichlet_delta is not None:
            object.__setattr__(self, "dirichlet_delta", POSITIVE("dirichlet_delta", self.dirichlet_delta))
        elif self.kind == "wild":
            raise ValueError("dirichlet_delta must be set for a wild scenario")
        rows = [(d.contrast, d.brightness, d.noise_sigma) for d in self.domains]  # built once, for `sample_batch`
        object.__setattr__(self, "_domain_table", np.array(rows, np.float32))  # not a field, so not in asdict

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    @property
    def total_batches(self) -> int:
        return self.num_batches * self.rounds


@dataclass(frozen=True)
class TemplateBank:
    """Class templates, the pixel-noise level used around them, and the seed and distance floor they were drawn with."""

    templates: np.ndarray  # (K, C, H, W) float32
    base_noise: float
    seed: int
    min_dist: float

    @property
    def num_classes(self) -> int:
        return self.templates.shape[0]


@dataclass(frozen=True)
class LabeledBatch:
    """One stream batch. `domain_ids` is diagnostic ground truth only and
    must never be handed to normalization code."""

    x: np.ndarray
    labels: np.ndarray
    domain_ids: np.ndarray


def build_templates(
    num_classes: int,
    seed: int,
    shape: tuple = (1, 16, 16),
    base_noise: float = 0.25,
    min_dist: float = 8.0,
) -> TemplateBank:
    """Seeded Gaussian class templates with pairwise distance >= min_dist.

    The whole set is redrawn on a violation; `TEMPLATE_DRAWS` failed draws
    are a configuration error (the floor is unreachable for the given shape).
    A bad argument's ValueError leads with the name of its `data` config field.
    """
    num_classes, seed = NUM_CLASSES("num_classes", num_classes), SEED("template_seed", seed)
    base_noise, min_dist = NONNEGATIVE("base_noise", base_noise), NONNEGATIVE("template_min_dist", min_dist)
    rng = np.random.default_rng(seed)
    for _ in range(TEMPLATE_DRAWS):
        t = rng.normal(0.0, 1.0, size=(num_classes,) + tuple(shape)).astype(np.float32)
        flat = t.reshape(num_classes, -1)
        d = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_dist:
            return TemplateBank(templates=t, base_noise=base_noise, seed=seed, min_dist=min_dist)
    raise ValueError(
        f"template_min_dist {min_dist} is out of reach: no draw of {num_classes} templates kept every pairwise "
        f"distance above it in {TEMPLATE_DRAWS} attempts; lower it or enlarge the template shape"
    )


def _block_labels(rng: np.random.Generator, scenario_kind: str, delta: float | None, k: int, b: int) -> np.ndarray:
    """Labels, drawn first on the batch RNG. A wild batch draws class proportions from Dirichlet(delta * 1),
    lower delta concentrating it on fewer classes, and lays the classes out in contiguous runs."""
    if scenario_kind == "wild":
        props = rng.dirichlet(np.full(k, delta))
        counts = rng.multinomial(b, props)
        return np.repeat(np.arange(k), counts)  # contiguous class runs
    return rng.integers(0, k, size=b)


def _mixed_domain_ids(rng: np.random.Generator, b: int, m: int) -> np.ndarray:
    """All m domains present whenever the batch is large enough."""
    if b >= m:
        base = rng.permutation(m)
        extra = rng.integers(0, m, size=b - m)
        return rng.permutation(np.concatenate([base, extra]))
    return rng.permutation(m)[:b]


def _domain_ids(rng: np.random.Generator, scenario: StreamScenario, eff_index: int) -> np.ndarray:
    b, m = scenario.batch_size, scenario.num_domains
    kind = scenario.kind
    if kind == "static":
        persistence = -(-scenario.num_batches // m)  # ceil: each domain holds a stretch
        d = min(eff_index // persistence, m - 1)
        return np.full(b, d, dtype=np.intp)
    if kind == "cross_mix":
        return _mixed_domain_ids(rng, b, m)
    if kind == "shuffle":
        if eff_index % 2 == 0:
            return np.full(b, (eff_index // 2) % m, dtype=np.intp)
        return _mixed_domain_ids(rng, b, m)
    # random / wild
    count = int(rng.integers(1, m + 1))
    chosen = rng.choice(m, size=count, replace=False)
    return chosen[rng.integers(0, count, size=b)]


def _prologue(scenario: StreamScenario, bank: TemplateBank, batch_index: int):
    """A batch's seeded draws before its noise: (rng, labels, domain ids, an unfilled float64 buffer for both noise
    fields). The buffer is allocated here, on the calling thread, whichever thread fills it: a worker thread that
    allocated batch-sized arrays would make glibc open a second heap arena for it and raise peak memory."""
    if not 0 <= batch_index < scenario.total_batches:
        raise ValueError(f"batch_index {batch_index} outside 0..{scenario.total_batches - 1}")
    eff = batch_index % scenario.num_batches
    rng = np.random.default_rng([scenario.seed, int(eff)])
    labels = _block_labels(rng, scenario.kind, scenario.dirichlet_delta, bank.num_classes, scenario.batch_size)
    domain_ids = _domain_ids(rng, scenario, eff)
    return rng, labels, domain_ids, np.empty((2, scenario.batch_size, *bank.templates.shape[1:]))


def _epilogue(scenario: StreamScenario, bank: TemplateBank, labels, domain_ids, z: np.ndarray) -> LabeledBatch:
    """The float32 batch from its labels, domain ids and drawn noise `z` (both fields, one standard_normal fill)."""
    x = bank.templates[labels].astype(np.float32, copy=False)  # indexing already copied
    # `0.0 + s * z` is `normal(0, s)` bit for bit, -0.0 products turned +0.0
    x += (0.0 + bank.base_noise * z[0]).astype(np.float32)

    contrast, brightness, noise_sigma = scenario._domain_table[domain_ids].T[:, :, None, None, None]
    shift_noise = z[1].astype(np.float32)
    x *= contrast
    x += brightness
    shift_noise *= noise_sigma
    x += shift_noise

    return LabeledBatch(x=x, labels=labels.astype(np.intp, copy=False), domain_ids=domain_ids.astype(np.intp, copy=False))


def sample_batch(scenario: StreamScenario, bank: TemplateBank, batch_index: int) -> LabeledBatch:
    """Generate one batch; fully determined by (scenario.seed, batch_index).

    Indices beyond num_batches wrap around, replaying the per-round
    sequence.
    """
    rng, labels, domain_ids, z = _prologue(scenario, bank, batch_index)
    rng.standard_normal(out=z)
    return _epilogue(scenario, bank, labels, domain_ids, z)


def iter_batches(scenario: StreamScenario, bank: TemplateBank, stem):
    """Every batch of the scenario in order, byte for byte `sample_batch`'s, as (batch, result) pairs.

    `stem` is a per-batch function such as `Network.stem`'s: called on the calling thread with a batch's map, it
    allocates what its work writes and returns a callable that does the work. `result` is a callable that returns
    the work's result and raises its error. From `_BLOCK` samples per batch up, the prologue, the buffers and the
    epilogue stay on the calling thread; while the caller holds a batch, the worker draws the noise of the batch
    after next, then runs the next batch's work. An error in the calling-thread part of `stem` is raised when the
    batch is made, one batch early. Smaller batches run serially, the work when `result` is called. Close or
    exhaust the generator to join the worker.
    """
    total = scenario.total_batches
    if scenario.batch_size < _BLOCK:
        for i in range(total):
            batch = sample_batch(scenario, bank, i)
            yield batch, stem(batch.x)
        return
    with ThreadPoolExecutor(1) as worker:

        def draw(i):  # the prologue here and the noise on the worker; None past the end
            if i < total:
                rng, labels, domain_ids, z = _prologue(scenario, bank, i)
                return labels, domain_ids, worker.submit(rng.standard_normal, out=z)  # the future's result is z

        def make(drawn):  # the epilogue here once the noise is in, then the batch's work on the worker
            labels, domain_ids, noise = drawn
            batch = _epilogue(scenario, bank, labels, domain_ids, noise.result())
            return batch, worker.submit(stem(batch.x)).result

        # a spent noise buffer is dropped before the yield, when `drawn` moves on
        made, drawn = make(draw(0)), draw(1)
        for i in range(total):
            following = draw(i + 2)
            current, made, drawn = made, drawn and make(drawn), following
            yield current
