"""The array SeedSequence hash against numpy's SeedSequence, word for word,
and block disorder against one sample at a time."""

import numpy as np
import pytest

from tapbound.covariance import CovarianceSeries
from tapbound.errors import DomainError, ResourceBudgetError
from tapbound.hamiltonian import MixedModel, sample_disorder, sample_disorders
from tapbound.harness.experiments import derive_seed, derive_seeds
from tapbound.seeding import _State, pcg64, spawned_states

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
    model = MixedModel(5, CovarianceSeries(coefficients))
    seeds = EDGE_MASTERS + [derive_seed(9, 0, r) for r in range(20)]
    block = sample_disorders(model, seeds)
    assert block.replicas == len(seeds)
    assert [int(s) for s in block.seeds] == seeds
    for p in model.active_degrees:
        stacked = block.tensors[p]
        assert stacked.shape == (len(seeds),) + (5,) * p and stacked.flags.c_contiguous
        for i, s in enumerate(seeds):
            assert np.array_equal(stacked[i], sample_disorder(model, s).tensors[p])


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
