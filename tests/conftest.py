import os
import threading
from pathlib import Path

import numpy as np
import pytest

from neighbornorm.harness import load_experiment_config, train_model
from neighbornorm.stream import DomainSpec, TemplateBank

SMALL_CONFIG = {
    "data": {"num_classes": 6, "template_seed": 7, "base_noise": 0.25},
    "model": {
        "seed": 11,
        "train_batches": 8,
        "train_batch_size": 32,
        "clean_eval_batches": 4,
    },
    "scenario": {"num_batches": 12, "batch_size": 32, "seed": 0},
    "seeds": [0, 1],
}


def pytest_configure(config):
    """Stop unless the package under test is the one PYTHONPATH names: pyproject's `pythonpath = ["src"]` puts this
    checkout's src/ ahead of PYTHONPATH, so a run meant for another tree's src/ would test this one, and pass."""
    import neighbornorm

    imported = Path(neighbornorm.__file__).resolve().parent.parent
    named = [Path(entry).resolve() for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    named = [entry for entry in named if (entry / "neighbornorm" / "__init__.py").is_file()]
    if named and named[0] != imported:
        raise pytest.UsageError(f"PYTHONPATH names the neighbornorm package in {named[0]}, but pytest imported the "
                                f"one in {imported}; run pytest from that tree instead")


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail the test that leaves a thread running which was not running when it started, such as a stream worker
    that was never joined, rather than a later test."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"test left threads running: {leaked}")


@pytest.fixture(scope="session")
def small_setup(tmp_path_factory):
    """Fast trained model + bank + config for harness-level tests."""
    import json

    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    cfg = load_experiment_config(path)
    net, bank, meta = train_model(cfg)
    return cfg, net, bank, meta, path


@pytest.fixture(scope="session")
def default_setup():
    """Model trained with the stock defaults; used by the acceptance suite."""
    cfg = load_experiment_config()
    net, bank, meta = train_model(cfg)
    return cfg, net, bank, meta


def separated_bank(seed: int, num_classes: int = 4) -> TemplateBank:
    """Template bank for separation-constructed streams: one dominant shared
    map plus small class deltas, so instance means cluster tightly per domain."""
    rng = np.random.default_rng([seed, 555])
    common = rng.normal(0.0, 1.0, size=(1, 16, 16)).astype(np.float32)
    deltas = rng.normal(0.0, 0.05, size=(num_classes, 1, 16, 16)).astype(np.float32)
    return TemplateBank(templates=common[None] + deltas, base_noise=0.02, seed=seed, min_dist=0.0)


def separated_domains(num_domains: int) -> list:
    """Domains spaced along the brightness/contrast direction arc so their
    slot-0 instance means occupy disjoint cosine neighborhoods."""
    if num_domains == 2:
        brightness = [-2.0, 2.0]
    elif num_domains == 5:
        brightness = [-2.0, -0.5, 0.0, 0.5, 2.0]
    else:
        raise ValueError("separation construction is calibrated for M in {2, 5}")
    return [
        DomainSpec(id=i, contrast=1.0, brightness=b, noise_sigma=0.01, severity=5)
        for i, b in enumerate(brightness)
    ]
