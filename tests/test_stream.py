import sys
import threading
import tracemalloc
from contextlib import closing
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neighbornorm.stream as stream
from neighbornorm.stream import (
    DomainSpec,
    LabeledBatch,
    StreamScenario,
    TemplateBank,
    build_templates,
    identity_domain,
    iter_batches,
    make_domains,
    sample_batch,
    _domain_ids,
    _STACK,
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


def all_batches(scenario, bank):
    """Every batch of the scenario, each from `sample_batch`."""
    return [sample_batch(scenario, bank, i) for i in range(scenario.total_batches)]


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

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"num_classes": 2.5}, "num_classes"),
            ({"num_classes": True}, "num_classes"),
            ({"base_noise": float("nan")}, "base_noise"),
            ({"base_noise": -1.0}, "base_noise"),
            ({"min_dist": float("nan")}, "min_dist"),
            ({"min_dist": -1.0}, "min_dist"),
        ],
    )
    def test_bad_argument_names_its_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            build_templates(**({"num_classes": 3, "seed": 0} | kwargs))

    def test_integral_float_class_count_is_the_integer(self):
        a, b = build_templates(3.0, seed=0).templates, build_templates(3, seed=0).templates
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_no_domains_rejected(self):
        with pytest.raises(ValueError, match="at least one domain"):
            StreamScenario(kind="static", domains=[])

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
        for batch in all_batches(sc, bank):
            ids = set(batch.domain_ids.tolist())
            assert len(ids) == 1
            seen.append(ids.pop())
        assert seen == sorted(seen)  # domains hold extended stretches, in order
        assert len(set(seen)) == 4

    def test_static_stretches_round_up(self):
        # each domain holds ceil(7 / 3) = 3 batches and the last one takes the rest; a floor would give 2, 2, 3
        sc = scenario_for("static", m=3, batch_size=2, num_batches=7)
        assert [int(b.domain_ids[0]) for b in all_batches(sc, bank_for())] == [0, 0, 0, 1, 1, 1, 2]

    def test_cross_mix_has_all_domains(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=5, batch_size=64, num_batches=10)
        for batch in all_batches(sc, bank):
            assert len(set(batch.domain_ids.tolist())) == 5

    def test_cross_mix_small_batch_varies_domain(self):
        bank = bank_for()
        sc = scenario_for("cross_mix", m=5, batch_size=1, num_batches=40)
        ids = {sample_batch(sc, bank, i).domain_ids[0] for i in range(40)}
        assert len(ids) > 1

    def test_shuffle_alternation(self):
        bank = bank_for()
        sc = scenario_for("shuffle", m=5, batch_size=64, num_batches=100)
        for i, batch in enumerate(all_batches(sc, bank)):
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
        counts = {len(set(b.domain_ids.tolist())) for b in all_batches(sc, bank)}
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

    @pytest.mark.parametrize("index", [2.7, True, "1", float("nan"), -1, 10])
    def test_index_must_be_an_integer_in_range(self, index):
        sc = scenario_for("cross_mix", batch_size=4, num_batches=5, rounds=2)
        with pytest.raises(ValueError, match=r"^batch_index must be an integer"):
            sample_batch(sc, bank_for(), index)

    @pytest.mark.parametrize("index", [2.0, np.int64(2)])
    def test_an_integral_index_of_another_type_is_that_batch(self, index):
        sc, bank = scenario_for("cross_mix", batch_size=4, num_batches=5), bank_for()
        assert_same_batch(sample_batch(sc, bank, index), sample_batch(sc, bank, 2))

    def test_different_seeds_differ(self):
        bank = bank_for()
        a = sample_batch(scenario_for("cross_mix", seed=0), bank, 0)
        b = sample_batch(scenario_for("cross_mix", seed=1), bank, 0)
        assert not np.array_equal(a.x, b.x)


def reference_batch(scenario, bank, batch_index):
    """`sample_batch` on its own generator `default_rng([seed, eff])`, its labels drawn here as the stream defines
    them, and the two noise fields drawn by two calls: `normal(0, base_noise)` for the pixel noise, then
    `standard_normal` for the domain's shift noise."""
    eff, b, k = batch_index % scenario.num_batches, scenario.batch_size, bank.num_classes
    rng = np.random.default_rng([scenario.seed, eff])
    if scenario.kind == "wild":  # class proportions, then a count per class, laid out in runs
        labels = np.repeat(np.arange(k), rng.multinomial(b, rng.dirichlet(np.full(k, scenario.dirichlet_delta))))
    else:
        labels = rng.integers(0, k, size=b)
    domain_ids = _domain_ids(rng, scenario, eff)
    x = bank.templates[labels].astype(np.float32)
    x += rng.normal(0.0, bank.base_noise, size=x.shape).astype(np.float32)
    contrast, brightness, noise_sigma = scenario._domain_table[domain_ids].T
    shift_noise = rng.standard_normal(size=x.shape).astype(np.float32)
    x *= contrast[:, None, None, None]
    x += brightness[:, None, None, None]
    shift_noise *= noise_sigma[:, None, None, None]
    x += shift_noise
    return x, labels.astype(np.intp), domain_ids.astype(np.intp)


def assert_batch_is_reference(scenario, bank, batch_index, batch=None):
    """`batch`, by default `sample_batch`'s, is byte for byte `reference_batch`'s."""
    batch = sample_batch(scenario, bank, batch_index) if batch is None else batch
    x, labels, domain_ids = reference_batch(scenario, bank, batch_index)
    for ours, theirs in ((batch.x, x), (batch.labels, labels), (batch.domain_ids, domain_ids)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


class TestNoiseDraw:
    """`sample_batch` draws both noise fields in one call and scales the first half itself; its batches are
    byte-identical to the two-call draws."""

    @pytest.mark.parametrize("kind", ["static", "cross_mix", "shuffle", "random", "wild"])
    @pytest.mark.parametrize("b", [1, 64, 65, 300])
    def test_batches_are_the_two_call_draws(self, kind, b):
        sc = scenario_for(kind, batch_size=b, num_batches=4, seed=b, delta=0.5 if kind == "wild" else None)
        for i in range(sc.num_batches):
            assert_batch_is_reference(sc, bank_for(), i)

    @pytest.mark.parametrize("b", [1, 64])
    def test_zero_base_noise_keeps_signed_zeros(self, b):
        # `normal(0, 0)` is +0.0 everywhere, so a -0.0 template entry comes out +0.0; a bare `0 * z` is -0.0
        # wherever z < 0 and would keep it -0.0. A -0.0 brightness and no shift noise keep that sign to the output.
        templates = np.full((2, 1, 4, 4), -0.0, np.float32)
        templates[1, 0, 0] = 1.5
        bank = TemplateBank(templates=templates, base_noise=0.0, seed=0, min_dist=0.0)
        domains = [DomainSpec(id=0, contrast=1.0, brightness=-0.0, noise_sigma=0.0, severity=1)]
        sc = StreamScenario(kind="cross_mix", domains=domains, batch_size=b, num_batches=3, seed=2)
        for i in range(sc.num_batches):
            assert_batch_is_reference(sc, bank, i)
            assert not np.signbit(sample_batch(sc, bank, i).x).any()

    @pytest.mark.parametrize("kind", ["static", "cross_mix", "shuffle", "random", "wild"])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7])
    def test_one_sample_batches_at_seeds_of_every_width(self, kind, seed):
        # the stream makes a stack of 128 generators in one pass, the 6 left over and `sample_batch` one by one
        sc = scenario_for(kind, batch_size=1, num_batches=_STACK + 6, seed=seed, delta=0.5 if kind == "wild" else None)
        bank = bank_for()
        for i, (batch, _) in enumerate(iter_batches(sc, bank, Recorder())):
            assert_batch_is_reference(sc, bank, i, batch)
            assert_batch_is_reference(sc, bank, i)


@st.composite
def eff_lists(draw):
    """1 to 70 batch indices mod num_batches, all of one uint32 word or some of two."""
    top, n = draw(st.sampled_from([2**32 - 1, 2**33 - 1])), draw(st.integers(1, 70))
    return draw(st.lists(st.integers(0, top), min_size=n, max_size=n))


class TestSeeding:
    """`_generators` makes each batch's generator `default_rng([seed, eff])`, bit for bit, in one pass for a stack."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**130 - 1), effs=eff_lists())
    def test_each_generator_is_default_rngs(self, seed, effs):
        for eff, rng in zip(effs, stream._generators(seed, effs), strict=True):
            assert rng.bit_generator.state == np.random.default_rng([seed, eff]).bit_generator.state


def assert_same_batch(ours, theirs):
    for field_name in ("x", "labels", "domain_ids"):
        a, b = getattr(ours, field_name), getattr(theirs, field_name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field_name


class Recorder:
    """A per-stack function for `iter_stacks`: records the stacks it was handed, on which thread each one's work
    ran, and returns (stack number, a copy of its map) from the work, raising at stack `raising` if set."""

    def __init__(self, raising=None):
        self.handed, self.threads, self.raising = [], {}, raising

    def __call__(self, x):
        index = len(self.handed)
        self.handed.append(x)

        def work():
            self.threads[index] = threading.current_thread()
            if index == self.raising:
                raise FloatingPointError(f"batch {index}")
            return index, x.copy()

        return work


def stacked(sc, bank, indices):
    """The rows of `sample_batch`'s batches `indices`, stacked."""
    batches = [sample_batch(sc, bank, i) for i in indices]
    return LabeledBatch(*(np.concatenate([getattr(b, name) for b in batches]) for name in ("x", "labels", "domain_ids")))


def stack_ranges(sc):
    """The batch indices of each stack: ceil(`_STACK` / B) consecutive batches, the last may hold fewer."""
    per_stack = -(-_STACK // sc.batch_size)
    return [range(i, min(i + per_stack, sc.total_batches)) for i in range(0, sc.total_batches, per_stack)]


class TestPipelinedStream:
    """`iter_batches`'s batches are byte for byte `sample_batch`'s. From one block (64 samples) up a worker draws the
    noise of the stack after next while the caller holds this one, and lives no longer than the generator; below it
    the stream is serial."""

    @pytest.mark.parametrize("kind", ["static", "cross_mix", "shuffle", "random", "wild"])
    @pytest.mark.parametrize("b, num_batches, rounds", [
        *(pytest.param(b, 3, 2, id=str(b)) for b in (1, 63, 64, 65, 256, 300)),
        # two or more stacks of ceil(_STACK / B) batches, the last one partial, a round's end inside one
        pytest.param(1, 70, 2, id="1x140"), pytest.param(3, 25, 2, id="3x50"), pytest.param(63, 3, 3, id="63x9"),
        pytest.param(1, 150, 2, id="1x300"), pytest.param(127, 5, 1, id="127x5"), pytest.param(128, 3, 1, id="128x3")])
    def test_batches_are_sample_batch(self, monkeypatch, kind, b, num_batches, rounds):
        sc = scenario_for(kind, batch_size=b, num_batches=num_batches, rounds=rounds, seed=b,
                          delta=0.5 if kind == "wild" else None)
        bank, real_epilogue, epilogues, stem = bank_for(), stream._epilogue, [], Recorder()
        monkeypatch.setattr(stream, "_epilogue", lambda *args: epilogues.append(args) or real_epilogue(*args))
        streamed = [(batch, result()) for batch, result in iter_batches(sc, bank, stem)]
        monkeypatch.undo()
        # one epilogue per stack, and from one block up one work per stack
        per_stack = -(-_STACK // b)
        assert len(epilogues) == -(-sc.total_batches // per_stack)
        assert len(stem.handed) == (len(epilogues) if b >= 64 else 0)
        assert len(streamed) == sc.total_batches
        for i, (batch, x) in enumerate(streamed):
            assert_same_batch(batch, sample_batch(sc, bank, i))
            assert x is batch.x  # the result is the batch's map at every batch size

    def test_batches_hold_under_fast_thread_switching(self):
        # the worker fills a buffer the caller reads only after the draw's result; switching threads every
        # microsecond must not let the caller see a half-drawn batch
        sc, bank = scenario_for("random", batch_size=64, num_batches=12), bank_for()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = [batch for batch, result in iter_batches(sc, bank, Recorder())]
        finally:
            sys.setswitchinterval(interval)
        assert len(streamed) == sc.total_batches == 6 * -(-_STACK // 64)
        for i, batch in enumerate(streamed):
            assert_same_batch(batch, sample_batch(sc, bank, i))

    def test_only_the_next_batchs_noise_stays_alive(self):
        # with work that allocates nothing, while the caller holds batch i the stream holds batch i+1 and the float64
        # noise of batch i+2 (2 x B x C x H x W), and no second noise draw
        sc, bank = scenario_for("cross_mix", batch_size=256, num_batches=4), bank_for()
        noise, x_bytes = 2 * 256 * 16 * 16 * 8, 256 * 16 * 16 * 4
        tracemalloc.start()
        try:
            batches = iter_batches(sc, bank, lambda x: lambda: None)
            batch, result = next(batches)
            result()
            held = tracemalloc.get_traced_memory()[0]
            batches.close()
        finally:
            tracemalloc.stop()
        assert noise + 2 * x_bytes < held < noise + 3 * x_bytes

    @pytest.mark.parametrize("b, workers", [(1, 0), (63, 0), (64, 1), (300, 1)])
    def test_a_worker_only_from_one_block(self, b, workers):
        before = threading.active_count()
        batches = iter_batches(scenario_for("cross_mix", batch_size=b, num_batches=4), bank_for(), Recorder())
        next(batches)
        assert threading.active_count() == before + workers
        batches.close()
        assert threading.active_count() == before


class TestStacks:
    """A stack holds ceil(`_STACK` / B) batches at every batch size, one from `_STACK` samples up, and `iter_batches`
    is `iter_stacks` batch by batch, each batch a row slice of its stack."""

    @pytest.mark.parametrize("b", [1, 2, 3, 63, 64, 65, 127, 128, 256])
    def test_each_stack_holds_ceil_stack_over_b_batches(self, b):
        # two full stacks and a one-batch third, which is partial below `_STACK` samples
        per_stack = -(-_STACK // b)
        sc = scenario_for("random", batch_size=b, num_batches=2 * per_stack + 1, seed=b)
        bank, stem = bank_for(), Recorder()
        stacks = [(stack, result()) for stack, result in stream.iter_stacks(sc, bank, stem)]
        ranges = stack_ranges(sc)
        assert [len(stack.labels) for stack, _ in stacks] == [b * len(r) for r in ranges]
        assert len(ranges) == 3 and (len(ranges[-1]) < per_stack) == (b < _STACK)
        for k, ((stack, out), indices) in enumerate(zip(stacks, ranges)):
            assert_same_batch(stack, stacked(sc, bank, indices))
            assert out is stack.x if b < 64 else (out[0] == k and out[1].tobytes() == stack.x.tobytes())
        assert [x is stack.x for x, (stack, _) in zip(stem.handed, stacks, strict=True)] if b >= 64 else stem.handed == []

    @pytest.mark.parametrize("b", [64, 65, 127, 128, 256])
    def test_from_one_block_the_worker_runs_one_stem_per_stack(self, b):
        # the stem function is called once per stack, on the calling thread, and its work runs on the worker
        sc, bank, calls = scenario_for("cross_mix", batch_size=b, num_batches=5), bank_for(), []
        stem = Recorder()

        def counting(x):
            calls.append(threading.current_thread())
            return stem(x)

        stacks = list(stream.iter_stacks(sc, bank, counting))
        assert len(stacks) == len(calls) == len(stem.handed) == len(stack_ranges(sc))
        assert calls == [threading.main_thread()] * len(calls)
        assert [result()[0] for _, result in stacks] == list(range(len(stacks)))
        assert threading.main_thread() not in stem.threads.values() and len(stem.threads) == len(stacks)

    @pytest.mark.parametrize("b, num_batches", [(1, 70), (3, 25), (16, 9), (63, 3)])
    def test_below_one_block_each_batch_is_a_row_slice_of_its_stack(self, monkeypatch, b, num_batches):
        # two rounds: a round's end inside a stack, the last stack partial
        sc = scenario_for("random", batch_size=b, num_batches=num_batches, rounds=2, seed=b)
        bank, real, stacks = bank_for(), stream.iter_stacks, []

        def recording(*args):
            for stack, result in real(*args):
                stacks.append((stack, result()))
                yield stack, result

        monkeypatch.setattr(stream, "iter_stacks", recording)
        streamed = list(iter_batches(sc, bank, Recorder()))
        monkeypatch.undo()
        per_stack = -(-_STACK // b)
        assert [len(stack.labels) for stack, _ in stacks] == [
            b * (min(i + per_stack, sc.total_batches) - i) for i in range(0, sc.total_batches, per_stack)]
        assert len(streamed) == sc.total_batches
        for i, (batch, result) in enumerate(streamed):
            (stack, x), rows = stacks[i // per_stack], slice(i % per_stack * b, (i % per_stack + 1) * b)
            assert x is stack.x and result() is batch.x
            for field_name in ("x", "labels", "domain_ids"):
                ours, theirs = getattr(batch, field_name), getattr(stack, field_name)
                assert np.shares_memory(ours, theirs) and ours.tobytes() == theirs[rows].tobytes(), field_name
            assert_same_batch(batch, sample_batch(sc, bank, i))

    @pytest.mark.parametrize("b", [64, 65, 256])
    def test_from_one_block_a_stack_is_a_batch(self, b):
        # from one block up each batch is a row slice of its stack too, and from `_STACK` samples up a stack is one
        # batch; the stack's result is its work's, the batch's its map
        sc, bank = scenario_for("wild", batch_size=b, num_batches=3, rounds=2, seed=b, delta=0.5), bank_for()
        stacks = [(stack, result()) for stack, result in stream.iter_stacks(sc, bank, Recorder())]
        batches = [(batch, result()) for batch, result in iter_batches(sc, bank, Recorder())]
        per_stack = -(-_STACK // b)
        assert len(stacks) == -(-sc.total_batches // per_stack) and len(batches) == sc.total_batches
        assert (per_stack == 1) == (b >= _STACK)
        for i, (batch, x) in enumerate(batches):
            (stack, (j, y)), rows = stacks[i // per_stack], slice(i % per_stack * b, (i % per_stack + 1) * b)
            for field_name in ("x", "labels", "domain_ids"):
                assert getattr(batch, field_name).tobytes() == getattr(stack, field_name)[rows].tobytes(), field_name
            assert i // per_stack == j and x is batch.x and y.tobytes() == stack.x.tobytes()
            assert_same_batch(batch, sample_batch(sc, bank, i))


class TestStreamWithAStem:
    """`iter_stacks` yields (stack, result) pairs: from one block up the worker runs the next stack's work while the
    caller holds this one; below it no work runs, and the result is the stack's map."""

    @pytest.mark.parametrize("b", [1, 63, 64, 65, 256])
    def test_pairs_in_order_one_batch_ahead(self, b):
        sc = scenario_for("cross_mix", batch_size=b, num_batches=3, rounds=2, seed=b)
        bank, stem, ranges = bank_for(), Recorder(), stack_ranges(sc)
        for k, (stack, result) in enumerate(stream.iter_stacks(sc, bank, stem)):
            assert_same_batch(stack, stacked(sc, bank, ranges[k]))
            if b < 64:  # the stem is handed nothing
                assert stem.handed == [] and result() is stack.x
                continue
            assert len(stem.handed) == min(k + 2, len(ranges))  # one stack ahead
            index, x = result()
            assert index == k and np.array_equal(x, stack.x) and stem.handed[k] is stack.x
            assert stem.threads[k] is not threading.main_thread()
        assert len(stem.handed) == (len(ranges) if b >= 64 else 0)

    def test_an_error_in_the_work_reaches_the_caller_at_its_batch(self):
        # at its stack from `iter_stacks`, and at each of that stack's batches from `iter_batches`
        before, sc = threading.active_count(), scenario_for("cross_mix", batch_size=64, num_batches=7)
        stacks = stream.iter_stacks(sc, bank_for(), Recorder(raising=2))
        for stack, result in stacks:
            if result()[0] == 1:
                break
        stack, result = next(stacks)
        with pytest.raises(FloatingPointError, match="batch 2"):
            result()
        stacks.close()
        per_stack = -(-_STACK // 64)
        with closing(iter_batches(sc, bank_for(), Recorder(raising=2))) as batches:
            for i, (batch, result) in enumerate(batches):
                if i // per_stack == 2:
                    with pytest.raises(FloatingPointError, match="batch 2"):
                        result()
                else:
                    assert result() is batch.x
        assert threading.active_count() == before

    def test_what_stays_alive_is_one_batch_and_one_noise_ahead(self):
        # while the caller holds stack i (B 256: one batch) and its work's output, the stream holds stack i+1 and its
        # output and the float64 noise of stack i+2, and no more
        sc, bank = scenario_for("cross_mix", batch_size=256, num_batches=4), bank_for()
        noise, x_bytes = 2 * 256 * 16 * 16 * 8, 256 * 16 * 16 * 4

        def stem(x):
            out = np.empty_like(x)
            return lambda: np.copyto(out, x) or out

        tracemalloc.start()
        try:
            stacks = stream.iter_stacks(sc, bank, stem)
            stack, result = next(stacks)
            result()
            held = tracemalloc.get_traced_memory()[0]
            stacks.close()
        finally:
            tracemalloc.stop()
        assert noise + 4 * x_bytes < held < noise + 5 * x_bytes

    def test_batches_hold_under_fast_thread_switching(self):
        # the worker runs the next stack's work while the caller reads this one's result; switching threads every
        # microsecond must not hand the caller a half-done work, nor the work a half-drawn stack (B 65: two batches,
        # a partial third block)
        sc, bank, stem = scenario_for("cross_mix", batch_size=65, num_batches=12), bank_for(), Recorder()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [result() for stack, result in stream.iter_stacks(sc, bank, stem)]
        finally:
            sys.setswitchinterval(interval)
        ranges = stack_ranges(sc)
        assert len(results) == len(ranges) == sc.total_batches // 2
        for k, (index, x) in enumerate(results):
            assert index == k and x.tobytes() == stacked(sc, bank, ranges[k]).x.tobytes()


def wild_labels(bank, delta, num_samples, seed, batch_size=64):
    """The first `num_samples` labels of a wild stream, batch after batch."""
    sc = scenario_for("wild", m=3, seed=seed, batch_size=batch_size, num_batches=-(-num_samples // batch_size), delta=delta)
    return np.concatenate([b.labels for b in all_batches(sc, bank)])[:num_samples]


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
        for i, batch in enumerate(all_batches(sc, bank)):
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
