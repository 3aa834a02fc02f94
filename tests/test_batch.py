from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcorr.batch
from qcorr import (bloch_decompose, geometric_discord_closed, geometric_discord_eig, negativity,
                   q_lower_bound, random_density_matrix, s_matrix)
from qcorr.batch import CLOSED_VS_EIG_TOL, MIXED_BOUND_TOL, ORDER_TOL, PURE_IDENTITY_TOL, \
    CampaignResult, _score, run_batch_campaigns


def one_at_a_time_campaigns(n, seed, dims):
    """run_batch_campaigns rebuilt from single draws and single-state measures."""
    children = iter(np.random.SeedSequence(seed).spawn(len(dims) + 2))

    def draw(d, max_rank):
        rng = np.random.default_rng(next(children))
        rhos = [random_density_matrix(2 * d, rank=1 + i % max_rank, seed=rng) for i in range(n)]
        return [(rho, s_matrix(bloch_decompose(rho, d), d)) for rho in rhos]

    def campaign(name, values, tol):
        return CampaignResult(name, n, sum(v > tol for v in values), float(max(values)), tol)

    results = []
    for d in dims:
        samples = draw(d, 2 * d)
        closed = [geometric_discord_closed(s)[0] for _, s in samples]
        results.append(campaign(f"closed_vs_eig[d={d}]",
                                [abs(c - geometric_discord_eig(s))
                                 for c, (_, s) in zip(closed, samples)], CLOSED_VS_EIG_TOL))
        results.append(campaign(f"order_q_le_dg[d={d}]",
                                [q_lower_bound(s) - c for c, (_, s) in zip(closed, samples)],
                                ORDER_TOL))
    mixed = [(negativity(rho) ** 2, geometric_discord_closed(s)[0]) for rho, s in draw(2, 4)]
    results.append(campaign("mixed_dg_ge_nsq", [nsq - dg for nsq, dg in mixed],
                            MIXED_BOUND_TOL))
    pure = [(negativity(rho) ** 2, geometric_discord_closed(s)[0]) for rho, s in draw(2, 1)]
    results.append(campaign("pure_dg_eq_nsq", [abs(dg - nsq) for nsq, dg in pure],
                            PURE_IDENTITY_TOL))
    return results


@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.lists(st.integers(2, 5), min_size=0, max_size=3))
@example(3, 1, [])  # no 2 x d pair: the eigenvalue route and Q run on zero rows
@example(7, 2, [2, 2])  # the pairs share one block with the two-qubit rows
@example(9, 4, [3, 2, 3])  # two blocks of two rows, the d = 2 one not first
@settings(max_examples=20, deadline=None)
def test_block_campaigns_equal_one_at_a_time_draws(n, seed, dims):
    # one block draw per campaign keeps the random stream of per-sample draws, and
    # one stacked call per measure gives each campaign's values bit for bit
    got = run_batch_campaigns(n, seed, dims)
    want = one_at_a_time_campaigns(n, seed, dims)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("name", "samples", "violations", "worst", "tolerance"):
            assert getattr(g, field) == getattr(w, field), (field, g, w)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_campaigns_at_large_d(seed):
    # the Bloch record is read off the qubit blocks with O(d^2) indices, so d = 32 is cheap
    results = run_batch_campaigns(10, seed, dims=(8, 16, 32))
    assert [r.name for r in results[:6]] == [f"{check}[d={d}]" for d in (8, 16, 32)
                                             for check in ("closed_vs_eig", "order_q_le_dg")]
    assert all(r.violations == 0 and np.isfinite(r.worst) for r in results)


@pytest.mark.parametrize("dims", [(), (3,), (2, 3, 4), (5, 2, 2, 8)])
def test_each_measure_runs_once_per_call(monkeypatch, dims):
    # one closed-form pass gives D_G and Q, and the two-qubit stack, which holds pure
    # states, goes straight to the spectral negativity
    calls = dict.fromkeys(("_closed_form", "geometric_discord_eig", "_spectral_negativity"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(qcorr.batch, name, counted(name, getattr(qcorr.batch, name)))
    results = run_batch_campaigns(4, 2, dims)
    assert len(results) == 2 * len(dims) + 2
    assert calls == dict.fromkeys(calls, 1)


def test_nan_sample_counts_as_a_violation():
    # NaN is not within any tolerance, so a NaN worst never comes with 0 violations
    violations, worst = _score(np.array([[0.0, np.nan]]), np.array([1e-9]))
    assert violations[0] == 1 and np.isnan(worst[0])
    assert _score(np.array([[0.0, 1e-9, 2e-9]]), np.array([1e-9]))[0][0] == 1


def report_fields(results):
    return [(r.name, r.samples, r.violations, r.worst.hex(), r.tolerance) for r in results]


@given(st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.lists(st.integers(2, 5), min_size=0, max_size=4))
@example(37, 5, [5, 2, 2, 8])
@settings(max_examples=15, deadline=None)
def test_chunked_reports_equal_one_chunk(n, seed, dims):
    # every campaign keeps its own stream across chunks, and violations and worst
    # accumulate, so the chunk size never shows in a report
    whole = report_fields(run_batch_campaigns(n, seed, dims))
    for entries in (1, 50, 700):
        with mock.patch.object(qcorr.batch, "CHUNK_ENTRIES", entries):
            assert report_fields(run_batch_campaigns(n, seed, dims)) == whole, entries


def test_nan_in_an_early_chunk_stays_a_violation(monkeypatch):
    eig = qcorr.batch.geometric_discord_eig
    calls = []

    def nan_in_first_chunk(s):
        values = eig(s)
        if not calls:
            values[0, 0] = np.nan
        calls.append(values.shape)
        return values

    monkeypatch.setattr(qcorr.batch, "CHUNK_ENTRIES", 200)
    monkeypatch.setattr(qcorr.batch, "geometric_discord_eig", nan_in_first_chunk)
    results = run_batch_campaigns(30, 3, dims=(3,))
    assert len(calls) > 2
    assert np.isnan(results[0].worst) and results[0].violations == 1
    assert all(np.isfinite(r.worst) and r.violations == 0 for r in results[1:])


def test_blocks_stay_within_chunk_entries(monkeypatch):
    # one padded block per dimension and chunk, never more than CHUNK_ENTRIES complex
    # entries unless a single sample is larger (c = 1)
    blocks = []

    def recorded(dim, rank, seed):
        rhos = random_density_matrix(dim, rank, seed)
        blocks.append((rhos.shape, rhos.size))
        return rhos

    dims = (2, 3, 4, 8, 16, 32)
    want = report_fields(run_batch_campaigns(300, 9, dims))
    monkeypatch.setattr(qcorr.batch, "random_density_matrix", recorded)
    assert report_fields(run_batch_campaigns(300, 9, dims)) == want
    assert {shape[-1] for shape, _ in blocks} == {2 * d for d in dims}
    assert sum(shape[1] for shape, _ in blocks if shape[-1] == 64) == 300
    assert all(size <= qcorr.batch.CHUNK_ENTRIES or shape[1] == 1 for shape, size in blocks)
