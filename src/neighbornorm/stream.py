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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .normalization import _checked

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

# Each kind by its name, without the underscore, or with a hyphen.
_KIND_ALIASES = {alias: k for k in SCENARIO_KINDS for alias in (k, k.replace("_", ""), k.replace("_", "-"))}

# Severity-to-parameter table: per unit of severity, contrast moves by
# +-CONTRAST_STEP, brightness by +-BRIGHTNESS_STEP, and additive noise
# grows by NOISE_STEP. Signs are fixed per domain by the scenario seed.
CONTRAST_STEP = 0.15
BRIGHTNESS_STEP = 0.3
NOISE_STEP = 0.05

# Draws of a whole template set before `build_templates` gives up on min_dist.
TEMPLATE_DRAWS = 100


def canonical_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[str(kind).strip().lower()]
    except KeyError:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}") from None


@dataclass(frozen=True)
class DomainSpec:
    id: int
    contrast: float
    brightness: float
    noise_sigma: float
    severity: int

    def __post_init__(self):
        object.__setattr__(self, "id", int(_checked("domain id", self.id, -np.inf, integral=True)))
        object.__setattr__(self, "contrast", float(_checked("contrast", self.contrast, 0.0, open_lo=True)))
        object.__setattr__(self, "brightness", float(_checked("brightness", self.brightness, -np.inf)))
        object.__setattr__(self, "noise_sigma", float(_checked("noise_sigma", self.noise_sigma, 0.0)))
        object.__setattr__(self, "severity", int(_checked("severity", self.severity, 1, 5, integral=True)))


def identity_domain() -> DomainSpec:
    """The no-shift domain used for clean training and baseline streams."""
    return DomainSpec(id=0, contrast=1.0, brightness=0.0, noise_sigma=0.0, severity=1)


def make_domains(num_domains: int, severity: int, seed: int) -> list[DomainSpec]:
    """Default domain set for a severity level.

    The four contrast/brightness sign combinations are dealt out in a
    seeded order; past four domains the magnitudes are halved per tier so
    every domain keeps a distinct photometric signature.
    """
    num_domains = int(_checked("num_domains", num_domains, 1, integral=True))
    severity = int(_checked("severity", severity, 1, 5, integral=True))
    rng = np.random.default_rng([int(_checked("seed", seed, 0, integral=True)), 911])
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
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        if len(self.domains) < 1:
            raise ValueError("scenario needs at least one domain")
        for name, least in (("batch_size", 1), ("num_batches", 1), ("rounds", 1), ("seed", 0)):
            object.__setattr__(self, name, int(_checked(name, getattr(self, name), least, integral=True)))
        if self.dirichlet_delta is not None:
            delta = _checked("dirichlet_delta", self.dirichlet_delta, 0.0, open_lo=True)
            object.__setattr__(self, "dirichlet_delta", float(delta))
        elif self.kind == "wild":
            raise ValueError("wild scenarios require dirichlet_delta > 0")
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
    """Class templates plus the pixel-noise level used around them."""

    templates: np.ndarray  # (K, C, H, W) float32
    base_noise: float
    seed: int

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
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    for _ in range(TEMPLATE_DRAWS):
        t = rng.normal(0.0, 1.0, size=(num_classes,) + tuple(shape)).astype(np.float32)
        flat = t.reshape(num_classes, -1)
        d = np.linalg.norm(flat[:, None, :] - flat[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_dist:
            return TemplateBank(templates=t, base_noise=float(base_noise), seed=int(seed))
    raise ValueError(
        f"could not draw {num_classes} templates with pairwise distance >= {min_dist} "
        f"in {TEMPLATE_DRAWS} attempts; lower min_dist or enlarge the template shape"
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


def sample_batch(scenario: StreamScenario, bank: TemplateBank, batch_index: int) -> LabeledBatch:
    """Generate one batch; fully determined by (scenario.seed, batch_index).

    Indices beyond num_batches wrap around, replaying the per-round
    sequence.
    """
    if not 0 <= batch_index < scenario.total_batches:
        raise ValueError(f"batch_index {batch_index} outside 0..{scenario.total_batches - 1}")
    eff = batch_index % scenario.num_batches
    rng = np.random.default_rng([scenario.seed, int(eff)])

    k = bank.num_classes
    labels = _block_labels(rng, scenario.kind, scenario.dirichlet_delta, k, scenario.batch_size)
    domain_ids = _domain_ids(rng, scenario, eff)

    x = bank.templates[labels].astype(np.float32, copy=False)  # indexing already copied
    x += rng.normal(0.0, bank.base_noise, size=x.shape).astype(np.float32)

    contrast, brightness, noise_sigma = scenario._domain_table[domain_ids].T
    shift_noise = rng.standard_normal(size=x.shape).astype(np.float32)
    x *= contrast[:, None, None, None]
    x += brightness[:, None, None, None]
    shift_noise *= noise_sigma[:, None, None, None]
    x += shift_noise

    return LabeledBatch(x=x, labels=labels.astype(np.intp), domain_ids=domain_ids.astype(np.intp))


def iter_batches(scenario: StreamScenario, bank: TemplateBank):
    for i in range(scenario.total_batches):
        yield sample_batch(scenario, bank, i)
