"""The array SeedSequence hash against numpy's SeedSequence, word for word,
and block disorder against one sample at a time."""

import numpy as np
import pytest

from tapbound.covariance import CovarianceSeries
from tapbound.errors import DomainError, ResourceBudgetError
from tapbound.hamiltonian import (
    MixedModel,
    sample_disorder,
    sample_disorders,
    stack_disorders,
)
from tapbound.harness.experiments import derive_seed, derive_seeds
from tapbound.seeding import _State, pcg64, spawned_states

from oracles import oracle_sample_disorder

EDGE_MASTERS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 12345, 2 ** 64 - 1]
INDICES = np.concatenate([np.arange(300), [2 ** 31, 2 ** 32 - 2, 2 ** 32 - 1]])


@pytest.mark.parametrize("master", EDGE_MASTERS + [2 ** 64, 2 ** 130 + 7])
@pytest.mark.parametrize("stream", [0, 4, 2 ** 40])
def test_derive_seeds_equal_seed_sequence(master, stream):
    got = derive_seeds(master, stream, INDICES)
    assert got.dtype == np.uint64 and got.shape == INDICES.shape
    assert [int(s) for s in got] == [derive_seed(master, stream, int(r)) for r in INDICES]


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_disorder_states_equal_seed_sequence(p):
    seeds = np.array(EDGE_MASTERS + [derive_seed(5, 0, r) for r in range(100)],
                     dtype=np.uint64)
    states = spawned_states(seeds, (p,), 4)
    assert states.shape == (len(seeds), 4)
    for s, state in zip(seeds, states):
        ref = np.random.SeedSequence(int(s), spawn_key=(p,)).generate_state(4, np.uint64)
        assert np.array_equal(state, ref)
        assert pcg64(state).bit_generator.state == \
            np.random.default_rng(np.random.SeedSequence(int(s), spawn_key=(p,))) \
            .bit_generator.state


def test_entropy_column_hashed_once_for_a_row_of_keys():
    seeds = np.array(EDGE_MASTERS, dtype=np.uint64)
    keys = np.arange(5)
    states = spawned_states(seeds[:, None], (keys,), 4)
    assert states.shape == (len(seeds), len(keys), 4)
    for j, p in enumerate(keys):
        assert np.array_equal(states[:, j], spawned_states(seeds, (int(p),), 4))


def test_states_of_scalar_keys_and_longer_requests():
    for master in EDGE_MASTERS:
        ref = np.random.SeedSequence(master, spawn_key=(3, 9, 2 ** 33))
        assert np.array_equal(spawned_states(master, (3, 9, 2 ** 33), 6),
                              ref.generate_state(6, np.uint64))


@pytest.mark.parametrize("bad", [[2 ** 32], [-1], [0.5]])
def test_index_outside_one_word_raises(bad):
    # numpy hashes an index of 2**32 or more as two words; the array hash
    # refuses it rather than hash it as one
    with pytest.raises(DomainError):
        derive_seeds(1, 0, np.array(bad))


def test_bad_entropy_and_empty_key_raise():
    with pytest.raises(DomainError):
        spawned_states(np.array([-3]), (1,), 4)
    with pytest.raises(DomainError):
        spawned_states(-3, (1,), 4)
    with pytest.raises(DomainError):
        spawned_states(3, (), 4)


def test_fixed_state_answers_only_its_own_request():
    state = spawned_states(7, (2,), 4)[0]
    with pytest.raises(DomainError):
        _State(state).generate_state(4, np.uint32)
    with pytest.raises(DomainError):
        _State(state).generate_state(2, np.uint64)


@pytest.mark.parametrize("coefficients", [(0.3, 0.5, 1.0, 0.25, 0.1), (0.0, 0.0, 1.0)])
def test_sample_disorders_equal_sample_disorder(coefficients):
    # both samplers against the per-degree numpy draw, bit for bit, on a
    # block of 65 seeds that holds the edge masters (degree 0 included)
    model = MixedModel(5, CovarianceSeries(coefficients))
    seeds = EDGE_MASTERS + [derive_seed(9, 0, r) for r in range(59)]
    block = sample_disorders(model, seeds)
    assert block.replicas == len(seeds) == 65
    assert block.seeds.dtype == np.uint64 and [int(s) for s in block.seeds] == seeds
    assert sorted(block.tensors) == list(model.active_degrees)
    for i, s in enumerate(seeds):
        expect = oracle_sample_disorder(model, s)
        one = sample_disorder(model, s)
        assert one.replicas == 1 and one.seeds.tolist() == [s]
        for p in model.active_degrees:
            stacked = block.tensors[p]
            assert stacked.shape == (len(seeds),) + (5,) * p and stacked.flags.c_contiguous
            assert one.tensors[p].shape == (1,) + (5,) * p
            assert stacked[i].tobytes() == np.asarray(expect[p]).tobytes()
            assert one.tensors[p][0].tobytes() == np.asarray(expect[p]).tobytes()


def test_sample_disorders_keep_the_budget_and_degree_checks():
    series = CovarianceSeries((0.0, 0.0, 1.0))
    with pytest.raises(ResourceBudgetError):
        sample_disorders(MixedModel(8, series, tensor_budget_bytes=100), [1, 2])
    # 100 bytes hold the degree-1 tensor (64 bytes) but not the degree-2 one
    model = MixedModel(8, CovarianceSeries((0.0, 1.0, 1.0)), tensor_budget_bytes=100)
    for sample in (lambda: sample_disorder(model, 1),
                   lambda: sample_disorders(model, [1, 2])):
        with pytest.raises(ResourceBudgetError) as err:
            sample()
        assert err.value.required == 8 * 8 ** 2


@pytest.mark.parametrize("coefficients", [(0.3, 0.5, 1.0, 0.25), (0.0, 0.0, 1.0)])
def test_stacked_samples_equal_the_sampled_block(coefficients):
    model = MixedModel(5, CovarianceSeries(coefficients))
    seeds = EDGE_MASTERS + [derive_seed(9, 0, r) for r in range(4)]
    block = stack_disorders(sample_disorder(model, s) for s in seeds)
    expect = sample_disorders(model, seeds)
    assert block.seeds.tolist() == expect.seeds.tolist()
    assert sorted(block.tensors) == sorted(expect.tensors)
    for p, stacked in block.tensors.items():
        assert np.array_equal(stacked, expect.tensors[p])
    # blocks stack as their replicas do, in order
    halves = stack_disorders([sample_disorders(model, seeds[:3]),
                              sample_disorders(model, seeds[3:])])
    assert halves.seeds.tolist() == expect.seeds.tolist()
    for p, stacked in halves.tensors.items():
        assert np.array_equal(stacked, expect.tensors[p])


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_seed_outside_64_bits_raises(seed):
    # a seed of 2**70 would be recorded modulo 2**64, which draws other tensors
    model = MixedModel(4, CovarianceSeries((0.0, 0.0, 1.0)))
    with pytest.raises(DomainError):
        sample_disorder(model, seed)
    with pytest.raises(DomainError):
        sample_disorders(model, [1, seed])


def test_only_samples_of_one_law_stack():
    model = MixedModel(5, CovarianceSeries((0.0, 0.0, 1.0)))
    d = sample_disorder(model, 1)
    # a trailing zero coefficient leaves the law, and so the stack, unchanged
    same = sample_disorder(MixedModel(5, CovarianceSeries((0.0, 0.0, 1.0, 0.0))), 2)
    assert stack_disorders([d, same]).replicas == 2
    for others in ([], [d, sample_disorder(MixedModel(6, model.series), 1)],
                   [d, sample_disorder(MixedModel(5, CovarianceSeries((0.0, 0.0, 2.0))), 1)],
                   [d, sample_disorder(MixedModel(5, CovarianceSeries((0.0, 1.0, 1.0))), 1)]):
        with pytest.raises(DomainError):
            stack_disorders(others)
