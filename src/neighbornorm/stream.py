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

Every batch is a pure function of (seed, eff = batch_index mod
num_batches), its generator `default_rng([seed, eff])` by definition, so
batches can be regenerated out of order and `rounds` replays the
identical sequence.

`iter_stacks` is the in-order stream loop that feeds a network, a stack at a time: the rows of ceil(_STACK / B)
batches, drawn with one float32 epilogue. Their generators come from one vectorized pass of SeedSequence's hash,
bit for bit, which rests on NumPy's stability policy for SeedSequence and PCG64 and is pinned by a property test.
Below one block (`tensors._BLOCK` samples) per batch, stacks are drawn serially, yielded with their maps: a hand-off
costs more than their draw. From one block up, a worker thread draws the noise of the stack after next (numpy does
that outside the GIL) and runs a per-stack function such as `Network.stem`'s one stack ahead. `iter_batches` is its
per-batch view; a batch alone is `sample_batch`'s draw of one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .rules import COUNT, FINITE, INTEGER, NONNEGATIVE, NUM_CLASSES, POSITIVE, SEED, SEVERITY, _number, one_of
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
    "iter_stacks",
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

# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx), kept stable by its RNG policy (NEP 19).
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
VECTOR_SEEDS = 10  # the fewest batches whose generators `_generators` makes in one pass
_STACK = 2 * _BLOCK  # samples per stack: the stream draws, and a run forwards, ceil(_STACK / B) batches at a time


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
    domains: list
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
    return rng.integers(0, k, size=b) if b > 1 else np.array([rng.integers(0, k)])  # b = 1: the same fill, cheaper


def _mixed_domain_ids(rng: np.random.Generator, b: int, m: int) -> np.ndarray:
    """All m domains present whenever the batch is large enough."""
    if b >= m:  # a permutation of all m, then b - m more ids, shuffled together
        return rng.permutation(np.concatenate([rng.permutation(m), rng.integers(0, m, size=b - m)]))
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


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is already made: PCG64 reads its four uint64 words and nothing else."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _hashmix(v: np.ndarray, h: int, mult: int) -> tuple:
    """NumPy's `hashmix` of each row of `v` in turn, its multiplier stepping from `h` by `mult`: (hashes, last step)."""
    h = np.multiply.accumulate(np.array([h] + [mult] * len(v), np.uint32), dtype=np.uint32)[:, None]
    v = (v ^ h[:-1]) * h[1:]
    return v ^ v >> 16, int(h[-1, 0])


def _generators(seed: int, effs: list) -> list:
    """`np.random.default_rng([seed, eff])` for each of `effs`, bit for bit. From `VECTOR_SEEDS` effs, each of one
    uint32 word, SeedSequence's hash runs for all of them in one pass of uint32 arithmetic; fewer effs cost less
    through `default_rng`, and a wider one takes it too."""
    if len(effs) < VECTOR_SEEDS or max(effs) > 0xFFFFFFFF:
        return [np.random.default_rng([seed, eff]) for eff in effs]
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]  # low word first; 0 is [0]
    entropy = np.zeros((max(len(words) + 1, 4), len(effs)), np.uint32)  # the seed's words, the eff, 0s to the pool
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = effs
    pool, h = _hashmix(entropy[:4], INIT_A, MULT_A)
    for src in range(len(entropy)):  # each word into every other pool word, the pool's own first
        dst = [d for d in range(4) if d != src]
        hashed, h = _hashmix((pool if src < 4 else entropy)[[src] * len(dst)], h, MULT_A)
        mixed = MIX_MULT_L * pool[dst] - MIX_MULT_R * hashed
        pool[dst] = mixed ^ mixed >> 16
    state = _hashmix(np.concatenate([pool, pool]), INIT_B, MULT_B)[0].astype(np.uint64)  # 8 words; 4 uint64 below
    return [np.random.Generator(np.random.PCG64(_Seeded(row))) for row in (state[0::2] | state[1::2] << 32).T.copy()]


def _prologue(scenario: StreamScenario, bank: TemplateBank, rng: np.random.Generator, eff: int):
    """Batch `eff`'s seeded draws on its generator `rng`, before its noise: (rng, labels, domain ids). Its caller
    allocates the noise buffer on the calling thread, whichever thread fills it: a worker thread that allocated
    batch-sized arrays would make glibc open a second heap arena for it and raise peak memory."""
    labels = _block_labels(rng, scenario.kind, scenario.dirichlet_delta, bank.num_classes, scenario.batch_size)
    return rng, labels, _domain_ids(rng, scenario, eff)


def _epilogue(scenario: StreamScenario, bank: TemplateBank, drawn: list, z: np.ndarray) -> LabeledBatch:
    """The stack of maps, labels and domain ids, n * B rows each, of n prologues `drawn` and their spent noise `z`
    (n, 2, B, C, H, W), both fields of a batch one fill, in one elementwise float32 pass: bitwise n one-batch passes."""
    labels, domain_ids = (np.concatenate([d[k] for d in drawn]).astype(np.intp, copy=False) for k in (1, 2))
    x = bank.templates[labels].astype(np.float32, copy=False)  # indexing already copied
    noise, base = np.empty(x.shape, np.float32), z[:, 0]  # each field is cast once, into this one array
    base *= bank.base_noise
    base += 0.0  # `0.0 + s * z` is `normal(0, s)` bit for bit, -0.0 products turned +0.0
    noise.reshape(base.shape)[...] = base
    x += noise

    contrast, brightness, noise_sigma = scenario._domain_table[domain_ids].T[:, :, None, None, None]
    noise.reshape(base.shape)[...] = z[:, 1]
    x *= contrast
    x += brightness
    noise *= noise_sigma
    x += noise
    return LabeledBatch(x, labels, domain_ids)


def _prologues(scenario: StreamScenario, bank: TemplateBank, indices) -> tuple:
    """Batches `indices`, all valid: each one's seeded draws, after their noise buffer (n, 2, B, C, H, W) is
    allocated, and a callable that fills the buffer, each batch's noise on its own generator, and returns it."""
    effs = [i % scenario.num_batches for i in indices]
    z = np.empty((len(effs), 2, scenario.batch_size, *bank.templates.shape[1:]))
    drawn = [_prologue(scenario, bank, rng, eff) for rng, eff in zip(_generators(scenario.seed, effs), effs)]

    def fill() -> np.ndarray:
        for (rng, _, _), noise in zip(drawn, z):
            rng.standard_normal(out=noise)
        return z

    return drawn, fill


def _drawn(scenario: StreamScenario, bank: TemplateBank, indices) -> LabeledBatch:
    """Batches `indices`, all valid: each one's seeded draws and noise fill into one buffer, then one epilogue."""
    drawn, fill = _prologues(scenario, bank, indices)
    return _epilogue(scenario, bank, drawn, fill())


def sample_batch(scenario: StreamScenario, bank: TemplateBank, batch_index: int) -> LabeledBatch:
    """Generate one batch; fully determined by (scenario.seed, batch_index), an integer in 0..total_batches - 1.
    Indices beyond num_batches wrap around, replaying the per-round sequence."""
    index = _number("batch_index", batch_index, lo=0, hi=scenario.total_batches - 1, integral=True)
    return _drawn(scenario, bank, [index])


def iter_stacks(scenario: StreamScenario, bank: TemplateBank, stem):
    """The scenario's batches in order, byte for byte `sample_batch`'s, as (stack, result) pairs, a stack being one
    `LabeledBatch` of the rows of ceil(`_STACK` / B) consecutive batches (the last may hold fewer), drawn with one
    epilogue. Below `_BLOCK` samples per batch, `result` returns the stack's map, which `Network.forward` takes as it
    is, and `stem` is never called. From `_BLOCK` up, `stem` is a per-stack function such as `Network.stem`'s: called
    on the calling thread with a stack's map, it allocates what its work writes and returns a callable that does the
    work; `result` returns the work's result and raises its error. The prologues, buffers and epilogue stay on the
    calling thread; while the caller holds a stack, the worker draws the noise of the stack after next, then runs the
    next stack's work. An error in the calling-thread part of `stem` is raised one stack early, when the stack is
    made. Close or exhaust the generator to join the worker."""
    total, per_stack = scenario.total_batches, -(-_STACK // scenario.batch_size)
    stacks = [range(first, min(first + per_stack, total)) for first in range(0, total, per_stack)]
    if scenario.batch_size < _BLOCK:
        for indices in stacks:
            stack = _drawn(scenario, bank, indices)
            yield stack, lambda x=stack.x: x
        return
    with ThreadPoolExecutor(1) as worker:

        def draw(k):  # stack k's prologues and noise buffer here, its noise on the worker; None past the end
            if k < len(stacks):
                drawn, fill = _prologues(scenario, bank, stacks[k])
                return drawn, worker.submit(fill)  # the future's result is the buffer

        made, drawn = None, draw(0)
        for k in range(-1, len(stacks)):  # pass -1 makes stack 0 and yields nothing
            # the epilogue once the noise is in; the spent buffer goes before the next's, whose fill precedes the work
            stack, drawn = drawn and _epilogue(scenario, bank, drawn[0], drawn[1].result()), None
            drawn = draw(k + 2)
            current, made = made, stack and (stack, worker.submit(stem(stack.x)).result)
            if current:
                yield current


def iter_batches(scenario: StreamScenario, bank: TemplateBank, stem):
    """`iter_stacks` batch by batch, as (batch, result) pairs: each batch a row slice of its stack, and `result` its
    map, returned once its stack's result is in, whose error it raises. Closing this generator joins the worker."""
    b = scenario.batch_size
    with closing(iter_stacks(scenario, bank, stem)) as stacks:
        for stack, result in stacks:
            for batch in map(LabeledBatch, *(a.reshape(-1, b, *a.shape[1:]) for a in (stack.x, stack.labels, stack.domain_ids))):
                yield batch, lambda x=batch.x, stacked=result: (stacked(), x)[1]
