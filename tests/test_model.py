import hashlib
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from s3ribp import (
    ChainConfig,
    CountMatrix,
    DomainError,
    HyperParams,
    InvariantError,
    LatentState,
    ObservationMask,
    PosteriorSummary,
    binomial_baseline_qq,
    evaluate_folds,
    inclusion_probs,
    levy_exposure_mass,
    make_splits,
    negbin_log_pmf,
    negbin_row_sum_log_pmf,
    poisson_binomial_log_pmf,
    poisson_log_pmf,
    qq_row_nonzeros,
    rca_index,
    rca_transform,
    sample_3p_ibp,
    sample_3r_ibp,
    sample_alpha,
    sample_ibp,
    sample_pi_truncated,
    sample_row_given_sum,
    top_features,
    umass_coherence,
)
from s3ribp.container import canonical_bytes
from s3ribp.model import _VALIDATE_CHUNK, MIN_C_PLUS_SIGMA, SIGMA_CEILING, _whole

from conftest import cells
from test_mcmc import make_summary, tiny_hyper


class TestCountMatrix:
    def test_from_dense_stores_only_positive_cells(self):
        data = CountMatrix.from_dense([[1, 0], [2, 3]])
        assert data.n_nonzero == 3
        assert cells(data) == [[0, 0, 1], [1, 0, 2], [1, 1, 3]]
        for arr in (data.rows, data.cols, data.counts):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[0] = 9

    def test_zero_entries_are_dropped(self):
        data = CountMatrix(2, 2, [0, 1], [0, 1], [5, 0], ("a", "b"), ("x", "y"))
        assert cells(data) == [[0, 0, 5]]
        assert data.counts_at([1, 0], [1, 0]).tolist() == [0, 5]

    def test_cells_are_sorted_row_major(self):
        data = CountMatrix(2, 3, [1, 0, 1, 0], [0, 2, 2, 1], [4, 3, 2.0, 1], ("a", "b"), ("x", "y", "z"))
        assert cells(data) == [[0, 1, 1], [0, 2, 3], [1, 0, 4], [1, 2, 2]]
        assert data.counts_at([[0], [1]], [[0, 1, 2]]).tolist() == [[0, 1, 3], [4, 0, 2]]

    def test_repeated_cell_rejected(self):
        with pytest.raises(DomainError, match=r"cell \(1, 0\) is given more than once"):
            CountMatrix(2, 2, [1, 0, 1], [0, 1, 0], [1, 2, 3], ("a", "b"), ("x", "y"))
        # a repeat is an error even when one of the two counts is zero
        with pytest.raises(DomainError, match="more than once"):
            CountMatrix(2, 2, [0, 0], [1, 1], [0, 2], ("a", "b"), ("x", "y"))

    def test_dense_round_trip(self, rng):
        x = rng.poisson(1.0, size=(6, 4))
        data = CountMatrix.from_dense(x)
        np.testing.assert_array_equal(data.dense, x)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError, match="duplicate row label"):
            CountMatrix(2, 1, [], [], [], ("a", "a"), ("x",))
        with pytest.raises(DomainError, match="duplicate column label"):
            CountMatrix(1, 2, [], [], [], ("a",), ("x", "x"))

    def test_negative_and_fractional_counts_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            CountMatrix(1, 1, [0], [0], [-1], ("a",), ("x",))
        with pytest.raises(DomainError, match="not an integer"):
            CountMatrix(1, 1, [0], [0], [1.5], ("a",), ("x",))
        with pytest.raises(DomainError, match="not an integer"):
            CountMatrix(1, 1, [0], [0], [np.nan], ("a",), ("x",))
        with pytest.raises(DomainError, match="same length"):
            CountMatrix(1, 1, [0], [0], [1, 2], ("a",), ("x",))
        for bad in (1.5, np.nan, np.inf):
            with pytest.raises(DomainError, match="not an integer"):
                CountMatrix.from_dense([[0.0, bad]])

    def test_out_of_bounds_entry_rejected(self):
        with pytest.raises(DomainError, match="outside"):
            CountMatrix(2, 2, [2], [0], [1], ("a", "b"), ("x", "y"))
        with pytest.raises(DomainError, match="outside"):
            CountMatrix(2, 2, [0], [-1], [1], ("a", "b"), ("x", "y"))

    def test_fractional_cells_are_refused(self):
        # integer-valued floats are cells; any other float names its cell
        data = CountMatrix(2, 3, [0.0, 1.0], [2.0, 0.0], [4, 1], ("a", "b"), ("x", "y", "z"))
        assert cells(data) == [[0, 2, 4], [1, 0, 1]]
        with pytest.raises(DomainError, match=r"cell \(1\.0, 0\.5\) has an index that is not an integer"):
            CountMatrix(2, 3, [0, 1], [2, 0.5], [4, 1], ("a", "b"), ("x", "y", "z"))
        with pytest.raises(DomainError, match=r"count 1\.5 is not an integer"):
            CountMatrix(2, 3, [0, 1], [2, 0], [4, 1.5], ("a", "b"), ("x", "y", "z"))

    def test_counts_at_refuses_what_the_constructor_refuses(self):
        data = CountMatrix.from_dense([[1, 0, 2], [0, 3, 0]])
        assert data.counts_at([0.0, 1.0], [2.0, 1.0]).tolist() == [2, 3]
        with pytest.raises(DomainError, match=r"cell \(0\.9, 2\.2\) has an index that is not an integer"):
            data.counts_at([0.9], [2.2])
        with pytest.raises(DomainError, match=r"cell \(1, 3\) outside 2x3"):
            data.counts_at([0, 1], [0, 3])
        with pytest.raises(DomainError, match=r"cell \(-1, 0\) outside 2x3"):
            data.counts_at([[-1], [0]], [[0, 1]])
        with pytest.raises(DomainError, match="not an integer"):
            data.counts_at([np.nan], [0])

    def test_density_and_zero_share(self):
        data = CountMatrix.from_dense([[1, 0], [2, 3]])
        assert data.density == pytest.approx(0.75)
        assert data.zero_share == pytest.approx(0.25)

    def test_digest_sensitive_to_values_and_labels(self):
        a = CountMatrix.from_dense([[1, 0]])
        b = CountMatrix.from_dense([[2, 0]])
        c = CountMatrix.from_dense([[1, 0]], row_labels=("other",))
        assert a.digest() == CountMatrix.from_dense([[1, 0]]).digest()
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()

    def test_digest_payload_is_unchanged(self):
        # checkpoints store this digest, so within a checkpoint schema its
        # payload must not move: the sorted cell arrays, the shape and the
        # labels, in the container's canonical bytes
        data = CountMatrix(2, 3, [1, 0, 1], [2, 1, 0], [4, 2, 7], ("a", "b"), ("x", "y", "z"))
        payload = canonical_bytes(
            {"rows": np.array([0, 1, 1]), "cols": np.array([1, 0, 2]), "counts": np.array([2, 7, 4])},
            {"shape": [2, 3], "rows": ["a", "b"], "cols": ["x", "y", "z"]},
        )
        assert data.digest() == hashlib.sha256(payload).hexdigest()
        # a fixed value, because schema-6 checkpoints store it
        assert data.digest() == "e787754d763f19f1cb6844bf7c542227de190bd5c690a9895ccfa6d78145e2ff"

    def test_needs_at_least_one_row_and_column(self):
        with pytest.raises(DomainError):
            CountMatrix(0, 3, [], [], [], (), ("a", "b", "c"))


class TestObservationMask:
    def test_held_out_array_and_membership(self):
        mask = ObservationMask(frozenset({(0, 1), (1, 0)}), 2, 2)
        np.testing.assert_array_equal(mask.held_out, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(mask.is_held_out([0, 0, 1, 1], [0, 1, 0, 1]), [False, True, True, False])
        assert mask.n_held_out == 2
        assert mask.held_out_sorted() == [(0, 1), (1, 0)]

    def test_any_iterable_of_pairs_is_sorted_and_deduplicated(self):
        for given in ([(1, 0), (0, 1), (1, 0)], np.array([[1, 0], [0, 1]]), iter([(0, 1), (1, 0)])):
            mask = ObservationMask(given, 2, 2)
            assert mask.held_out.tolist() == [[0, 1], [1, 0]]

    def test_constructors(self):
        none = ObservationMask.none_held_out(3, 2)
        every = ObservationMask.all_held_out(3, 2)
        assert none.n_held_out == 0
        assert every.n_held_out == 6
        assert every.is_held_out(*np.divmod(np.arange(6), 2)).all()
        assert not none.is_held_out(*np.divmod(np.arange(6), 2)).any()

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(DomainError, match=r"cell \(3, 0\) outside 2x2"):
            ObservationMask(frozenset({(3, 0)}), 2, 2)

    def test_fractional_cells_are_refused(self):
        assert ObservationMask([(1.0, 2.0)], 2, 3).held_out.tolist() == [[1, 2]]
        with pytest.raises(DomainError, match=r"cell \(0\.5, 1\.7\) has an index that is not an integer"):
            ObservationMask([(0.5, 1.7)], 2, 3)
        mask = ObservationMask([(0, 1)], 2, 3)
        with pytest.raises(DomainError, match=r"cell \(0\.0, 1\.5\) has an index that is not an integer"):
            mask.is_held_out([0.0], [1.5])
        with pytest.raises(DomainError, match=r"cell \(2, 0\) outside 2x3"):
            mask.is_held_out([2], [0])

    def test_digest_depends_on_cells(self):
        a = ObservationMask(frozenset({(0, 0)}), 2, 2)
        b = ObservationMask(frozenset({(0, 1)}), 2, 2)
        assert a.digest() != b.digest()

    def test_cached_cells_and_digest(self, rng):
        cells = {(int(n), int(d)) for n, d in rng.integers(0, 40, size=(300, 2))}
        mask = ObservationMask(frozenset(cells), 40, 40)
        first = mask.held_out_sorted()
        assert first == sorted(cells)
        # each call returns a new list, so a caller's edits stay its own
        first.pop()
        assert mask.held_out_sorted() == sorted(cells)
        np.testing.assert_array_equal(mask.held_out, sorted(cells))
        assert mask.held_out.dtype == np.int64 and mask.held_out.shape == (len(cells), 2)
        with pytest.raises(ValueError):
            mask.held_out[0, 0] = 1
        # the digest is the one computed from the cell set directly
        payload = canonical_bytes({"cells": np.array(sorted(cells))}, {"shape": [40, 40]})
        assert mask.digest() == hashlib.sha256(payload).hexdigest()
        assert mask.digest() == mask.digest()
        empty = ObservationMask.none_held_out(2, 3)
        assert empty.held_out_sorted() == []
        assert empty.held_out.shape == (0, 2)

    def test_digest_payload_is_unchanged(self):
        mask = ObservationMask([(2, 1), (0, 3)], 3, 4)
        payload = canonical_bytes({"cells": np.array([[0, 3], [2, 1]])}, {"shape": [3, 4]})
        assert mask.digest() == hashlib.sha256(payload).hexdigest()
        # a fixed value, because schema-6 checkpoints store it
        assert mask.digest() == "a9d85bce432c282a78ac9f5de0504a60ef95c6c2877f892cd22886838c4a0c80"


class TestHyperParams:
    def test_defaults_match_documented_values(self):
        hp = HyperParams()
        assert hp.burn_in == 30_000
        assert hp.n_samples == 1_000
        assert hp.alpha_b == 0.01
        assert hp.mu_b == 1.0
        assert hp.nb_r == 1.0
        assert hp.nb_p == 0.1
        assert hp.c == 50.0
        assert hp.k_max == 50
        assert hp.sigma == SIGMA_CEILING

    def test_sigma_one_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="sigma=1"):
            hp = HyperParams(sigma=1.0)
        assert hp.sigma == SIGMA_CEILING

    def test_bad_values_rejected(self):
        with pytest.raises(DomainError):
            HyperParams(sigma=1.2)
        with pytest.raises(DomainError):
            HyperParams(sigma=-0.1)
        with pytest.raises(DomainError):
            HyperParams(c=-0.5, sigma=0.25)
        with pytest.raises(DomainError):
            HyperParams(nb_p=1.0)
        with pytest.raises(DomainError):
            HyperParams(alpha_b=0.0)
        with pytest.raises(DomainError):
            HyperParams(k_max=0)
        with pytest.raises(DomainError):
            HyperParams(burn_in=-1)
        with pytest.raises(DomainError):
            HyperParams(eps_trunc=0.0)

    def test_weight_law_is_checked_by_its_one_rule(self):
        # the rule of every member of the prior family, after the sigma = 1 clamp
        for kw, message in (
            ({"sigma": 1.2}, r"sigma must lie in \[0, 1\), got 1\.2"),
            ({"sigma": -0.1}, r"sigma must lie in \[0, 1\), got -0\.1"),
            ({"c": -0.5, "sigma": 0.25}, r"c must exceed -sigma, got c=-0\.5, sigma=0\.25"),
            ({"c": -0.25, "sigma": 0.25}, r"c must exceed -sigma"),
            ({"eps_trunc": 0.0}, r"eps_trunc must lie in \(0, 1\), got 0\.0"),
            ({"eps_trunc": 1.0}, r"eps_trunc must lie in \(0, 1\), got 1\.0"),
            ({"c": float("nan")}, r"c must exceed -sigma"),
        ):
            with pytest.raises(DomainError, match=message):
                HyperParams(**kw)

    def test_c_may_be_negative_within_sigma(self):
        hp = HyperParams(c=-0.2, sigma=0.5)
        assert hp.c == -0.2

    def test_no_exposure_mass_rejected(self):
        # c + sigma near 0: the quadrature fails or misses its tolerance
        for c in (-0.49999, -0.4999999, -0.49999999, MIN_C_PLUS_SIGMA / 2 - 0.5):
            with pytest.raises(DomainError, match="c \\+ sigma"):
                HyperParams(c=c, sigma=0.5)
        # large c with the floor near 1: the mass underflows to zero
        for eps in (0.8, 0.9, 0.99):
            with pytest.raises(DomainError, match="exposure mass"):
                HyperParams(c=500.0, sigma=0.5, eps_trunc=eps)
        assert HyperParams(c=MIN_C_PLUS_SIGMA - 0.5, sigma=0.5).c + 0.5 >= MIN_C_PLUS_SIGMA
        assert HyperParams(c=500.0, sigma=0.5, eps_trunc=0.7).eps_trunc == 0.7

    @settings(max_examples=80, deadline=None)
    @given(
        c_plus_sigma=st.floats(0.0, 600.0),
        sigma=st.floats(0.0, 0.999),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_every_accepted_configuration_has_an_exposure_mass(self, c_plus_sigma, sigma, eps):
        try:
            hp = HyperParams(c=c_plus_sigma - sigma, sigma=sigma, eps_trunc=eps)
        except DomainError:
            return
        mass = levy_exposure_mass(hp.eps_trunc, hp.c, hp.sigma)
        assert np.isfinite(mass) and mass > 0

    def test_dict_round_trip_and_digest(self):
        hp = HyperParams(c=2.0, sigma=0.3, seed=11)
        again = HyperParams.from_dict(hp.to_dict())
        assert again == hp
        assert again.digest() == hp.digest()
        assert hp.replace(seed=12).digest() != hp.digest()
        assert hp.digest() == hashlib.sha256(canonical_bytes({}, hp.to_dict())).hexdigest()

    def test_numbers_take_their_declared_type(self):
        # an integral value is a valid int and any number a valid float, so
        # equal settings have one form and one digest
        assert HyperParams(c=1).digest() == HyperParams(c=1.0).digest()
        hp = HyperParams(c=1, k_max=5.0, seed=np.uint64(7), burn_in=np.int64(3))
        assert hp == HyperParams(c=1.0, k_max=5, seed=7, burn_in=3)
        assert [type(getattr(hp, name)) for name in ("c", "k_max", "seed", "burn_in")] == [float, int, int, int]
        assert HyperParams.from_dict({"c": 1, "thin": 2.0}) == HyperParams(c=1.0, thin=2)

    @pytest.mark.parametrize("name", ["thin", "n_samples", "burn_in", "k_max", "seed"])
    def test_int_fields_refuse_non_integral_values_and_bools(self, name):
        for bad in (1.5, True, False, float("nan"), "2", None):
            with pytest.raises(DomainError, match=f"'{name}' must be int"):
                HyperParams(**{name: bad})

    def test_float_fields_refuse_bools_and_non_numbers(self):
        for bad in (True, "1.0", None):
            with pytest.raises(DomainError, match="'c' must be float"):
                HyperParams(c=bad)

    def test_from_dict_names_unknown_keys(self):
        with pytest.raises(DomainError, match="unknown HyperParams key.*'bogus', 'extra'"):
            HyperParams.from_dict({"seed": 1, "extra": 0, "bogus": 2})


def _tiny_state():
    z = np.array([[1, 0], [1, 1]], dtype=np.int8)
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    pi = np.array([0.5, 0.2])
    aux = {
        (0, 0): np.array([2, 0]),
        (1, 1): np.array([1, 3]),
    }
    return LatentState(z=z, b=b, pi=pi, alpha=1.5, aux=aux)


class TestLatentState:
    def test_validate_against_accepts_consistent_state(self):
        state = _tiny_state()
        data = CountMatrix.from_dense([[2, 0], [0, 4]])
        mask = ObservationMask.none_held_out(2, 2)
        state.validate_against(data, mask, eps_trunc=0.01)

    def test_validate_against_rejects_wrong_aux_sum(self):
        state = _tiny_state()
        data = CountMatrix.from_dense([[3, 0], [0, 4]])
        mask = ObservationMask.none_held_out(2, 2)
        with pytest.raises(InvariantError, match="sum"):
            state.validate_against(data, mask, eps_trunc=0.01)

    def test_validate_against_rejects_support_violation(self):
        state = _tiny_state()
        state.aux[(0, 0)] = np.array([1, 1])  # feature 1 inactive in row 0
        data = CountMatrix.from_dense([[2, 0], [0, 4]])
        mask = ObservationMask.none_held_out(2, 2)
        with pytest.raises(InvariantError, match="inactive"):
            state.validate_against(data, mask, eps_trunc=0.01)

    def test_validate_against_rejects_held_out_and_missing_cells(self):
        data = CountMatrix.from_dense([[2, 0], [0, 4]])
        with pytest.raises(InvariantError, match=r"\(0, 0\) is stored for a held-out cell"):
            _tiny_state().validate_against(data, ObservationMask([(0, 0)], 2, 2), eps_trunc=0.01)
        state = _tiny_state()
        del state.aux[(1, 1)]
        with pytest.raises(InvariantError, match=r"missing aux for observed positive cell \(1, 1\)"):
            state.validate_against(data, ObservationMask.none_held_out(2, 2), eps_trunc=0.01)
        state.aux[(1, 1)] = np.array([1, 3, 0])
        with pytest.raises(InvariantError, match="shape"):
            state.validate_against(data, ObservationMask.none_held_out(2, 2), eps_trunc=0.01)

    def test_validate_against_rejects_pi_outside_support(self):
        state = _tiny_state()
        data = CountMatrix.from_dense([[2, 0], [0, 4]])
        mask = ObservationMask.none_held_out(2, 2)
        with pytest.raises(InvariantError, match="weight"):
            state.validate_against(data, mask, eps_trunc=0.3)

    def test_validate_against_past_the_first_chunk(self):
        # 10,000 cells in row-major order: cell (60, 50) is vector 6050, in
        # the second _VALIDATE_CHUNK of 4096, and (90, 0) is in the third
        assert _VALIDATE_CHUNK < 6050 < 2 * _VALIDATE_CHUNK < 9000
        x = np.arange(10_000).reshape(100, 100) % 7 + 1
        data = CountMatrix.from_dense(x)
        none = ObservationMask.none_held_out(100, 100)
        cell, count = (60, 50), int(x[60, 50])

        def state(changed):
            """A valid state, then each cell of ``changed`` given its vector or, for None, dropped."""
            aux = {(int(r), int(c)): np.array([x[r, c], 0]) for r, c in zip(data.rows, data.cols)}
            for at, vec in changed.items():
                if vec is None:
                    del aux[at]
                else:
                    aux[at] = np.array(vec)
            z = np.ones((100, 2), dtype=np.int8)
            return LatentState(z=z, b=np.ones((2, 100)), pi=np.full(2, 0.5), alpha=1.0, aux=aux)

        state({}).validate_against(data, none, eps_trunc=0.01)
        for changed, mask, message in (
            ({cell: [1, 2, 3]}, none, "shape"),
            ({}, ObservationMask([cell], 100, 100), r"\(60, 50\) is stored for a held-out cell"),
            ({cell: [-1, count + 1]}, none, r"\(60, 50\) is malformed"),
            # the first of two bad cells, in two chunks, is named
            ({cell: [count + 1, 0], (90, 0): [0, 0]}, none, r"\(60, 50\) does not sum"),
            ({cell: None}, none, r"missing aux for observed positive cell \(60, 50\)"),
            # a held-out cell is reported before an earlier malformed one
            ({(0, 0): [-1, 2]}, ObservationMask([cell], 100, 100), r"\(60, 50\) is stored for a held-out cell"),
        ):
            with pytest.raises(InvariantError, match=message):
                state(changed).validate_against(data, mask, eps_trunc=0.01)
        inactive = state({cell: [0, count]})
        inactive.z[60, 1] = 0
        with pytest.raises(InvariantError, match=r"\(60, 50\) allocates mass to an inactive feature"):
            inactive.validate_against(data, none, eps_trunc=0.01)

    def test_non_binary_z_rejected(self):
        with pytest.raises(DomainError):
            LatentState(
                z=np.array([[2]], dtype=np.int8),
                b=np.array([[1.0]]),
                pi=np.array([0.5]),
                alpha=1.0,
                aux={},
            )


class TestPosteriorSummary:
    def _make(self, kplus_trace):
        z = np.zeros((2, 3, 2), dtype=np.int8)
        z[0, 0, 0] = 1
        z[1, :, :] = 1
        b = np.ones((2, 2, 4))
        pi = np.full((2, 2), 0.5)
        return PosteriorSummary(
            z_samples=z,
            b_samples=b,
            pi_samples=pi,
            alpha_samples=np.ones(2),
            kplus_trace=np.asarray(kplus_trace),
            z_mean=z.mean(axis=0),
            b_mean=b.mean(axis=0),
            pi_accept_rate=0.3,
            mh_step_final=0.5,
            hyper=HyperParams(k_max=2),
        )

    def test_counts_and_trace(self):
        summary = self._make([1, 2])
        assert summary.n_samples == 2

    def test_wrong_kplus_trace_rejected(self):
        with pytest.raises(InvariantError, match="K"):
            self._make([2, 2])


class TestPoissonLogPmf:
    def test_known_values(self):
        assert poisson_log_pmf(0, 1.0) == pytest.approx(-1.0)
        assert poisson_log_pmf(0, 0.0) == 0.0
        assert poisson_log_pmf(2, 2.0) == pytest.approx(math.log(2.0) - 2.0)

    def test_zero_rate_point_mass(self):
        assert poisson_log_pmf(3, 0.0) == -np.inf

    def test_matches_scipy(self, rng):
        for _ in range(20):
            x = int(rng.integers(0, 20))
            lam = float(rng.gamma(2.0, 2.0))
            np.testing.assert_allclose(
                poisson_log_pmf(x, lam), scipy.stats.poisson.logpmf(x, lam), rtol=1e-12
            )

    def test_vector_rates(self):
        out = poisson_log_pmf(1, np.array([1.0, 2.0, 0.0]))
        np.testing.assert_allclose(out[:2], scipy.stats.poisson.logpmf(1, [1.0, 2.0]))
        assert out[2] == -np.inf

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_log_pmf(-1, 1.0)
        with pytest.raises(DomainError):
            poisson_log_pmf(1, -0.5)
        with pytest.raises(DomainError):
            poisson_log_pmf(1.5, 1.0)


class TestNegativeBinomial:
    def test_matches_scipy(self, rng):
        for _ in range(20):
            r = float(rng.gamma(2.0, 1.0)) + 0.1
            p = float(rng.uniform(0.05, 0.95))
            s = int(rng.integers(0, 15))
            np.testing.assert_allclose(
                negbin_log_pmf(s, r, p), scipy.stats.nbinom.logpmf(s, r, p), rtol=1e-10
            )

    def test_clamped_row_sum_pmf(self):
        log_f = negbin_row_sum_log_pmf(1.0, 0.5, 4)
        np.testing.assert_allclose(np.exp(log_f), [0.5, 0.25, 0.125, 0.0625, 0.0625], rtol=1e-12)

    def test_clamped_pmf_sums_to_one_and_keeps_support(self, rng):
        for _ in range(10):
            r = float(rng.gamma(2.0, 1.0)) + 0.1
            p = float(rng.uniform(0.05, 0.95))
            k_max = int(rng.integers(1, 12))
            log_f = negbin_row_sum_log_pmf(r, p, k_max)
            assert log_f.shape == (k_max + 1,)
            np.testing.assert_allclose(np.exp(log_f).sum(), 1.0, rtol=1e-10)
            assert np.all(np.isfinite(log_f))

    def test_tail_positive_even_when_head_covers_everything(self):
        # nearly all mass below k_max; the clamp must still leave the top
        # state reachable
        log_f = negbin_row_sum_log_pmf(1.0, 0.999, 10)
        assert np.isfinite(log_f[10])
        assert np.exp(log_f).sum() == pytest.approx(1.0)


class TestRCA:
    def test_known_index_values(self):
        raw = np.array([[2.0, 0.0], [1.0, 1.0]])
        idx = rca_index(raw)
        np.testing.assert_allclose(idx, [[4 / 3, 0.0], [2 / 3, 2.0]], rtol=1e-12)

    def test_round_mode(self):
        raw = np.array([[2.0, 0.0], [1.0, 1.0]])
        data = rca_transform(raw, mode="round")
        assert cells(data) == [[0, 0, 1], [1, 0, 1], [1, 1, 2]]

    def test_binary_mode(self):
        raw = np.array([[2.0, 0.0], [1.0, 1.0]])
        data = rca_transform(raw, mode="binary")
        assert cells(data) == [[0, 0, 1], [1, 1, 1]]

    def test_zero_row_total_rejected_with_label(self):
        raw = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError, match="r0"):
            rca_transform(raw, mode="round")

    def test_zero_col_total_rejected_with_label(self):
        raw = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="c1"):
            rca_transform(raw, mode="binary")

    def test_index_names_the_zero_total_label(self):
        with pytest.raises(DomainError, match="row 'r1' has zero total"):
            rca_index(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DomainError, match="column 'oil' has zero total"):
            rca_index(np.array([[1.0, 0.0]]), row_labels=("fr",), col_labels=("wine", "oil"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError, match="mode"):
            rca_transform(np.ones((2, 2)), mode="sqrt")

    def test_labels_carried_through(self):
        raw = np.array([[2.0, 1.0]])
        data = rca_transform(raw, mode="round", row_labels=("fr",), col_labels=("wine", "oil"))
        assert data.row_labels == ("fr",)
        assert data.col_labels == ("wine", "oil")


# Every count, row sum and size the package takes goes through one
# whole-number rule: an integral float is the int, and a fractional,
# non-finite or out-of-range value is a DomainError naming the argument and
# the value.  Each entry: (argument name, kind, a valid value, the call).
_PI = np.array([0.3, 0.6, 0.2])
_COUNTS = CountMatrix.from_dense([[1, 0, 2], [0, 3, 1], [2, 1, 0], [0, 0, 4]])
_B = np.array([[2.0, 1.0, 0.5], [0.0, 1.0, 3.0]])


def _rng():
    return np.random.default_rng(7)


def _qq_summary():
    z = np.array([[[1, 0], [1, 1], [0, 1], [1, 0]], [[0, 1], [1, 0], [1, 1], [0, 1]]])
    return make_summary(z, np.stack([_B, _B[::-1]]))


def _eval_folds(**kw):
    config = ChainConfig(hyper=tiny_hyper(k_max=2, burn_in=3, n_samples=2))
    return evaluate_folds(_COUNTS, make_splits(_COUNTS, 0.25, 1, 5), config, **kw).to_json()


_WHOLE_NUMBER_ARGUMENTS = {
    "poisson_log_pmf": ("x", "count", 3, lambda v: poisson_log_pmf(v, 1.5)),
    "CountMatrix": ("count", "count", 2, lambda v: CountMatrix(1, 2, [0], [1], [v], ("a",), ("x", "y")).counts),
    "negbin_log_pmf": ("s", "count", 2, lambda v: negbin_log_pmf(v, 1.0, 0.5)),
    "sample_alpha": ("k_plus", "count", 2, lambda v: sample_alpha(v, 1.5, HyperParams(), _rng())),
    "poisson_binomial_log_pmf": ("s", "sum", 2, lambda v: poisson_binomial_log_pmf(_PI, v)),
    "inclusion_probs": ("s", "sum", 2, lambda v: inclusion_probs(_PI, v)),
    "sample_row_given_sum": ("s", "sum", 2, lambda v: sample_row_given_sum(_PI, v, _rng())),
    "sample_row_given_sum-vector": ("s", "sum", 2, lambda v: sample_row_given_sum(_PI, [1, v, 0], _rng())),
    "negbin_row_sum_log_pmf": ("k_max", "size", 3, lambda v: negbin_row_sum_log_pmf(1.0, 0.5, v)),
    "sample_3p_ibp": ("n_rows", "size", 4, lambda v: sample_3p_ibp(2.0, 1.0, 0.25, v, _rng()).z),
    "sample_ibp": ("n_rows", "size", 4, lambda v: sample_ibp(2.0, v, _rng()).z),
    "sample_3r_ibp": ("n_rows", "size", 4, lambda v: sample_3r_ibp(HyperParams(k_max=5), v, _rng()).z),
    "sample_pi_truncated": ("k_max", "size", 3, lambda v: sample_pi_truncated(1.0, 1.0, 0.25, v, 1e-4, _rng())),
    "sample_pi_truncated-beta": ("k_max", "size", 3, lambda v: sample_pi_truncated(1.0, 1.0, 0.0, v, 1e-4, _rng())),
    "top_features": ("top_m", "size", 2, lambda v: top_features(_B, _COUNTS.col_labels, v)),
    "umass_coherence": ("top_m", "size", 2, lambda v: umass_coherence(_B, _COUNTS, v)),
    "qq_row_nonzeros": ("n_draws", "size", 3, lambda v: qq_row_nonzeros(_qq_summary(), _COUNTS, v, _rng())),
    "binomial_baseline_qq": ("n_draws", "size", 3, lambda v: binomial_baseline_qq(_COUNTS, v, _rng())),
    "evaluate_folds-top_m": ("top_m", "size", 2, lambda v: _eval_folds(top_m=v)),
    "evaluate_folds-qq_draws": ("qq_draws", "size", 2, lambda v: _eval_folds(qq_draws=v)),
    "make_splits": ("n_folds", "size", 2, lambda v: [m.held_out for m in make_splits(_COUNTS, 0.25, v, 3)]),
}


@pytest.mark.parametrize("entry", sorted(_WHOLE_NUMBER_ARGUMENTS))
def test_whole_number_rule(entry):
    name, kind, valid, call = _WHOLE_NUMBER_ARGUMENTS[entry]
    np.testing.assert_equal(call(float(valid)), call(valid))
    bad = [1.5, math.inf, math.nan, -1] + {"count": [], "sum": [_PI.shape[0] + 1], "size": [0]}[kind]
    for value in bad:
        with pytest.raises(DomainError) as err:
            call(value)
        assert f"{name} {value} " in str(err.value), (value, str(err.value))


def test_whole_number_rule_messages():
    assert _whole(np.array([2.0, 0.0]), "count").dtype == np.int64
    assert type(_whole(np.float64(3.0), "n_rows", 1)) is int
    for value, least, most, message in (
        (1.5, 0, None, "count 1.5 is not an integer"),
        (-1, 0, None, "count -1 is negative"),
        (0.0, 1, None, "count 0 is less than 1"),
        (4, 0, 3, "count 4 exceeds 3"),
        (2.0**63, 0, None, "count 9.223372036854776e+18 is not an integer"),
    ):
        # the first bad value is named, not a later one
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _whole([least, value, least - 1], "count", least, most)
