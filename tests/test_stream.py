from dataclasses import asdict

import numpy as np
import pytest

from neighbornorm.stream import (
    StreamScenario,
    TemplateBank,
    build_templates,
    identity_domain,
    iter_batches,
    make_domains,
    sample_batch,
)


def bank_for(num_classes=6, seed=7, base_noise=0.25):
    return build_templates(num_classes=num_classes, seed=seed, base_noise=base_noise)


def scenario_for(kind, m=5, seed=0, batch_size=64, num_batches=20, rounds=1, delta=None, severity=5):
    return StreamScenario(
        kind=kind,
        domains=make_domains(m, severity, seed),
        batch_size=batch_size,
        num_batches=num_batches,
        rounds=rounds,
        seed=seed,
        dirichlet_delta=delta,
    )


class TestTemplates:
    def test_same_seed_identical(self):
        a = build_templates(4, seed=3).templates
        b = build_templates(4, seed=3).templates
        assert np.array_equal(a, b)

    def test_two_classes_respect_floor(self):
        t = build_templates(2, seed=5, min_dist=8.0).templates
        assert np.linalg.norm((t[0] - t[1]).ravel()) >= 8.0

    def test_pairwise_floor_exhaustive(self):
        for seed in range(5):
            t = build_templates(10, seed=seed, min_dist=8.0).templates
            flat = t.reshape(10, -1)
            for i in range(10):
                for j in range(i + 1, 10):
                    assert np.linalg.norm(flat[i] - flat[j]) >= 8.0

    def test_unreachable_floor_is_config_error(self):
        with pytest.raises(ValueError, match="in 100 attempts"):
            build_templates(4, seed=0, min_dist=1e6)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            build_templates(1, seed=0)


class TestDomains:
    def test_severity_table(self):
        for severity in (1, 3, 5):
            domains = make_domains(5, severity, seed=0)
            for d in domains:
                assert d.contrast > 0
                assert d.noise_sigma == pytest.approx(0.05 * severity)
                assert d.severity == severity
            signatures = {(round(d.contrast, 6), round(d.brightness, 6)) for d in domains}
            assert len(signatures) == 5  # every domain photometrically distinct

    def test_identity_domain_is_noop(self):
        bank = bank_for(base_noise=0.0)
        sc = StreamScenario(kind="static", domains=[identity_domain()], batch_size=8, num_batches=2, seed=1)
        batch = sample_batch(sc, bank, 0)
        assert np.array_equal(batch.x, bank.templates[batch.labels])

    def test_invalid_domain_params(self):
        with pytest.raises(ValueError):
            make_domains(0, 5, 0)
        from neighbornorm.stream import DomainSpec

        with pytest.raises(ValueError):
            DomainSpec(id=0, contrast=0.0, brightness=0.0, noise_sigma=0.0, severity=5)
        with pytest.raises(ValueError):
            DomainSpec(id=0, contrast=1.0, brightness=0.0, noise_sigma=0.0, severity=6)

    def test_fields_stored_as_checked(self):
        from neighbornorm.stream import DomainSpec

        d = DomainSpec(id=2.0, contrast=np.float32(1.5), brightness=1, noise_sigma=0, severity=np.int64(5))
        assert [type(v) for v in (d.id, d.contrast, d.brightness, d.noise_sigma, d.severity)] == [int, float, float, float, int]
        assert d == DomainSpec(id=2, contrast=1.5, brightness=1.0, noise_sigma=0.0, severity=5)


class TestScenarioValidation:
    def test_kind_aliases(self):
        sc = scenario_for("CrossMix")
        assert sc.kind == "cross_mix"

    def test_wild_needs_delta(self):
        with pytest.raises(ValueError):
            scenario_for("wild")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            scenario_for("drift")

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("rounds", float("inf")), ("num_batches", 2.5), ("batch_size", True), ("seed", -1), ("rounds", 0)],
    )
    def test_bad_integer_field_rejected(self, field, value):
        fields = {"batch_size": 8, "num_batches": 2, "rounds": 1, "seed": 1, field: value}
        with pytest.raises(ValueError, match=field):
            StreamScenario(kind="static", domains=[identity_domain()], **fields)

    def test_integral_fields_stored_as_int(self):
        sc = StreamScenario(kind="static", domains=[identity_domain()], batch_size=8.0, num_batches=np.int64(2), seed=3.0)
        assert [type(v) for v in (sc.batch_size, sc.num_batches, sc.rounds, sc.seed)] == [int] * 4

    @pytest.mark.parametrize(
        "args, name",
        [((2.5, 5, 0), "num_domains"), ((True, 5, 0), "num_domains"), ((2, 4.5, 0), "severity"), ((2, 5, -1), "seed")],
    )
    def test_make_domains_bad_integer_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            make_domains(*args)

    def test_make_domains_integral_float_severity_stored_as_int(self):
        assert all(type(d.severity) is int for d in make_domains(2, 5.0, 0))

    @pytest.mark.parametrize("kind", ["wild", "static"])
    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), True, 0, -1, "abc"])
    def test_bad_dirichlet_delta_rejected(self, kind, delta):
        with pytest.raises(ValueError, match="dirichlet_delta"):
            StreamScenario(kind=kind, domains=[identity_domain()], dirichlet_delta=delta)

    def test_dirichlet_delta_stored_as_float(self):
        assert StreamScenario(kind="static", domains=[identity_domain()], dirichlet_delta=None).dirichlet_delta is None
        for kind in ("wild", "static"):
            for delta in (0.5, 2, np.float32(0.5)):
                sc = StreamScenario(kind=kind, domains=[identity_domain()], dirichlet_delta=delta)
                assert type(sc.dirichlet_delta) is float and sc.dirichlet_delta == delta


class TestSampling:
    def test_static_single_domain_with_persistence(self):
        bank = bank_for()
        sc = scenario_for("static", m=4, num_batches=20)
        seen = []
        for batch in iter_batches(sc, bank):
            ids = set(batch.domain_ids.tolist())
            assert len(ids) == 1
            seen.append(ids.pop())
        assert seen == sorted(seen)  # domains hold extended stretches, in order
        assert len(set(seen)) == 4

    def test_cross_mix_has_all_domains(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=5, batch_size=64, num_batches=10)
        for batch in iter_batches(sc, bank):
            assert len(set(batch.domain_ids.tolist())) == 5

    def test_cross_mix_small_batch_varies_domain(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=5, batch_size=1, num_batches=40)
        ids = {sample_batch(sc, bank, i).domain_ids[0] for i in range(40)}
        assert len(ids) > 1

    def test_shuffle_alternation(self):
        bank = bank_for()
        sc = scenario_for("shuffle", m=5, batch_size=64, num_batches=100)
        for i, batch in enumerate(iter_batches(sc, bank)):
            count = len(set(batch.domain_ids.tolist()))
            if i % 2 == 0:
                assert count == 1
            else:
                assert count == 5

    def test_shuffle_single_domain_rotates(self):
        bank = bank_for()
        sc = scenario_for("shuffle", m=3, batch_size=8, num_batches=12)
        singles = [sample_batch(sc, bank, i).domain_ids[0] for i in range(0, 12, 2)]
        assert sorted(set(singles)) == [0, 1, 2]

    def test_random_counts_are_stochastic_in_range(self):
        bank = bank_for()
        sc = scenario_for("random", m=5, batch_size=64, num_batches=50)
        counts = {len(set(b.domain_ids.tolist())) for b in iter_batches(sc, bank)}
        assert counts <= set(range(1, 6))
        assert len(counts) >= 3

    def test_reproducible_and_order_free(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=3, batch_size=16, num_batches=6)
        forward = [sample_batch(sc, bank, i) for i in range(6)]
        backward = [sample_batch(sc, bank, i) for i in reversed(range(6))][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.domain_ids, b.domain_ids)

    def test_rounds_replay_identically(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=3, batch_size=8, num_batches=5, rounds=3)
        assert sc.total_batches == 15
        for i in range(5):
            base = sample_batch(sc, bank, i)
            for r in (1, 2):
                rep = sample_batch(sc, bank, i + 5 * r)
                assert np.array_equal(base.x, rep.x)
                assert np.array_equal(base.labels, rep.labels)

    def test_scenario_block_gains_no_key_from_sampling(self):
        # asdict(scenario) is the metrics JSON's scenario block; the per-domain table is not a field
        sc = scenario_for("cross_mix", batch_size=8)
        before = asdict(sc)
        sample_batch(sc, bank_for(), 0)
        assert asdict(sc) == before
        assert list(before) == ["kind", "domains", "batch_size", "num_batches", "rounds", "seed", "dirichlet_delta"]

    def test_index_bounds(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", num_batches=5)
        with pytest.raises(ValueError):
            sample_batch(sc, bank, 5)

    def test_different_seeds_differ(self):
        bank = bank_for()
        a = sample_batch(scenario_for("cross_mix", seed=0), bank, 0)
        b = sample_batch(scenario_for("cross_mix", seed=1), bank, 0)
        assert not np.array_equal(a.x, b.x)


def wild_labels(bank, delta, num_samples, seed, batch_size=64):
    """The first `num_samples` labels of a wild stream, batch after batch."""
    sc = scenario_for("wild", m=3, seed=seed, batch_size=batch_size, num_batches=-(-num_samples // batch_size), delta=delta)
    return np.concatenate([b.labels for b in iter_batches(sc, bank)])[:num_samples]


class TestDirichletSchedule:
    """Wild-stream labels: per-batch Dirichlet class proportions, laid out in contiguous runs."""

    def test_huge_delta_approaches_uniform(self):
        labels = wild_labels(bank_for(num_classes=10), 1e6, 1000, seed=0)
        freq = np.bincount(labels, minlength=10) / 1000
        assert np.abs(freq - 0.1).max() <= 0.05

    def test_small_delta_operating_points_accepted(self):
        bank = bank_for(num_classes=10)
        for delta in (0.1, 0.01, 0.005):
            labels = wild_labels(bank, delta, 256, seed=1)
            assert labels.shape == (256,)
            assert labels.min() >= 0 and labels.max() < 10

    def test_lower_delta_lower_entropy(self):
        bank = bank_for(num_classes=10)

        def mean_block_entropy(delta):
            vals = []
            for seed in range(50):
                labels = wild_labels(bank, delta, 64 * 10, seed=seed, batch_size=64)
                for blk in labels.reshape(10, 64):
                    p = np.bincount(blk, minlength=10) / 64
                    p = p[p > 0]
                    vals.append(float(-(p * np.log(p)).sum()))
            return np.mean(vals)

        assert mean_block_entropy(0.005) < mean_block_entropy(0.1)

    def test_matches_wild_stream_labels(self):
        # each batch's labels are the first draws on its RNG: proportions, then counts per class
        bank = bank_for(num_classes=8)
        sc = scenario_for("wild", m=3, batch_size=32, num_batches=6, delta=0.05, seed=9)
        for i, batch in enumerate(iter_batches(sc, bank)):
            rng = np.random.default_rng([9, i])
            counts = rng.multinomial(32, rng.dirichlet(np.full(8, 0.05)))
            assert np.array_equal(batch.labels, np.repeat(np.arange(8), counts))

    def test_wild_labels_are_temporally_grouped(self):
        labels = wild_labels(bank_for(num_classes=10), 0.01, 64, seed=3)
        changes = int((np.diff(labels) != 0).sum())
        assert changes < 10  # contiguous class runs inside a batch

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            scenario_for("wild", delta=0.0)
