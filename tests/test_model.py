"""Model container: grids, coefficient arrays, validation, and the growth
diagnostic."""

import dataclasses

import numpy as np
import pytest

from lqmfg import (LqMfgModel, StructureError, TimeGrid, validate,
                   wellposedness_diagnostic)
from lqmfg.model import COEFFICIENTS, coefficient_shapes


def make_scalar(grid=None, **over):
    grid = grid or TimeGrid(1.0, 10)
    base = dict(A=0.5, B=1.0, Q=1.0, R=1.0, G=0.5, x0=[1.0])
    base.update(over)
    return LqMfgModel.from_constants(grid, **base)


def test_grid_nodes_and_step():
    grid = TimeGrid(2.0, 8)
    assert grid.h == 0.25
    assert grid.node_count == 9
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 2.0
    np.testing.assert_allclose(np.diff(grid.nodes), 0.25, rtol=0, atol=1e-15)


def test_constant_schedule_repeats_matrix():
    model = make_scalar(TimeGrid(1.0, 4), A=np.eye(2), B=[[1.0, 2.0]] * 2,
                        Q=np.eye(2), R=np.eye(2), G=0.0, x0=[0.0, 0.0])
    assert model.B.shape == (5, 2, 2)
    for j in range(5):
        np.testing.assert_array_equal(model.B[j], [[1.0, 2.0]] * 2)


def test_constant_schedule_reads_a_vector_as_one_column():
    # as as_matrix does, so a vector and its (M+1, n, 1) array build one model
    grid = TimeGrid(1.0, 4)
    base = dict(A=np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
                G=np.eye(2), x0=[0.0, 0.0])
    model = LqMfgModel.from_constants(grid, b=[1.0, 2.0], **base)
    per_node = LqMfgModel.from_constants(
        grid, b=np.tile([[1.0], [2.0]], (5, 1, 1)), **base)
    assert model.b.shape == (5, 2, 1)
    np.testing.assert_array_equal(model.b, per_node.b)


def test_schedule_is_read_only():
    model = make_scalar()
    for name in COEFFICIENTS:
        with pytest.raises(ValueError):
            getattr(model, name)[0, 0, 0] = 7.0


def test_every_slot_form_builds_the_same_read_only_arrays():
    # a constant, an (M+1, r, c) array, a direct LqMfgModel(...) and
    # dataclasses.replace all go through one normalization
    grid = TimeGrid(1.0, 4)
    C0 = [[0.1, 0.2], [0.3, 0.4]]
    base = dict(A=np.eye(2), B=[[1.0], [0.0]], Q=np.eye(2), R=1.0,
                G=np.eye(2), x0=[0.0, 0.0])
    const = LqMfgModel.from_constants(grid, C0=C0, **base)
    per_node = np.repeat(np.array(C0)[None], 5, axis=0)
    models = [
        LqMfgModel.from_constants(grid, C0=per_node, **base),
        LqMfgModel(grid=grid, **{name: getattr(const, name)
                                 for name in COEFFICIENTS},
                   G=base["G"], x0=base["x0"]),
        dataclasses.replace(LqMfgModel.from_constants(grid, **base), C0=C0),
    ]
    for model in models:
        for name in COEFFICIENTS:
            X = getattr(model, name)
            assert X.dtype == float and not X.flags.writeable, name
            np.testing.assert_array_equal(X, getattr(const, name))
    with pytest.raises(ValueError):
        models[2].C0[0, 0, 0] = 7.0
    # the model's arrays are copies: the caller's array stays its own
    per_node[0, 0, 0] = 7.0
    assert models[0].C0[0, 0, 0] == 0.1


def test_scalar_coefficients_build_scalar_model():
    model = make_scalar()
    assert model.n == 1 and model.k == 1
    assert model.A.shape == (11, 1, 1)
    assert model.A[0][0, 0] == 0.5


def test_nonzero_scalar_rejected_for_nonsquare_slot():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(StructureError):
        LqMfgModel.from_constants(grid, A=np.eye(2), B=3.0, Q=np.eye(2),
                                  R=1.0, G=np.eye(2), x0=[0.0, 0.0])


def test_zero_scalar_broadcasts_anywhere():
    grid = TimeGrid(1.0, 4)
    model = LqMfgModel.from_constants(grid, A=np.eye(2), B=[[1.0], [0.0]],
                                      Q=np.eye(2), R=1.0, G=0.0,
                                      x0=[0.0, 0.0])
    np.testing.assert_array_equal(model.G, np.zeros((2, 2)))
    np.testing.assert_array_equal(model.D, np.zeros((5, 2, 1)))


def test_nonzero_scalar_message_names_the_slot_shape():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(StructureError, match="a nonzero scalar is only valid "
                       "for 1x1 entries; give a 2x2 matrix"):
        LqMfgModel.from_constants(grid, A=np.eye(2), B=[[1.0], [0.0]],
                                  Q=np.eye(2), R=1.0, G=2.0, x0=[0.0, 0.0])


def test_slot_table_matches_model_fields():
    # __post_init__ checks the slots of the table; a field missing from it
    # would go unchecked
    fields = [f.name for f in dataclasses.fields(LqMfgModel)
              if f.name not in ("grid", "G", "x0", "r_min")]
    assert list(COEFFICIENTS) == fields
    assert coefficient_shapes(3, 2) == {
        "A": (3, 3), "B": (3, 2), "alpha": (3, 3), "b": (3, 1),
        "C": (3, 3), "D": (3, 2), "beta": (3, 3), "sigma": (3, 1),
        "C0": (3, 3), "D0": (3, 2), "beta0": (3, 3), "sigma0": (3, 1),
        "Q": (3, 3), "R": (2, 2)}


def test_control_channel_schedules_with_n_not_k():
    # B, D and D0 are n x k: a time-varying value reads k from its columns
    grid = TimeGrid(1.0, 4)
    rng = np.random.default_rng(3)
    values = {name: rng.uniform(-1.0, 1.0, (5, 3, 2))
              for name in ("B", "D", "D0")}
    model = LqMfgModel.from_constants(grid, A=-np.eye(3), Q=np.eye(3),
                                      R=np.eye(2), G=np.eye(3),
                                      x0=[0.0, 0.0, 0.0], **values)
    assert (model.n, model.k) == (3, 2)
    for name, v in values.items():
        np.testing.assert_array_equal(getattr(model, name), v)
    assert model.R.shape == (5, 2, 2) and model.sigma.shape == (5, 3, 1)


def test_schedule_with_wrong_length_rejected():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(StructureError, match="^Q: schedule has 7 entries, "
                       "grid has 5 nodes$"):
        make_scalar(grid, Q=np.ones((7, 1, 1)))  # grid needs 5 nodes


def test_schedule_with_wrong_matrix_shape_rejected():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(StructureError, match=r"^Q: has shape \(2, 1\), "
                       r"expected \(1, 1\) \(n=1 from A, k=1 from B\)$"):
        make_scalar(grid, Q=np.ones((5, 2, 1)))


def test_non_finite_entry_rejected():
    with pytest.raises(StructureError, match="^A: non-finite entry$"):
        make_scalar(A=np.nan)
    sigma = np.zeros((11, 1, 1))
    sigma[6, 0, 0] = np.inf
    with pytest.raises(StructureError, match=r"^sigma: non-finite schedule "
                       r"entry at node 6, index \(0, 0\)$"):
        make_scalar(sigma=sigma)


def test_validate_passes_clean_model():
    report = validate(make_scalar())
    assert report.all_passed
    assert len(report.checks) == 6
    assert report.failures() == []


def test_validate_flags_asymmetric_Q():
    model = make_scalar(Q=np.array([[1.0, 0.3], [0.0, 1.0]]),
                        A=np.eye(2), B=[[1.0], [1.0]], G=0.0,
                        x0=[0.0, 0.0])
    report = validate(model)
    assert not report.all_passed
    names = [c.name for c in report.failures()]
    assert any("Q" in name and "symmetric" in name for name in names)


def test_validate_flags_indefinite_G():
    model = make_scalar(G=-0.25)
    report = validate(model)
    assert not report.all_passed
    assert any("G" in c.name for c in report.failures())
    assert "[FAIL]" in report.summary()


def test_validate_flags_R_below_floor():
    model = make_scalar(R=1e-12)
    report = validate(model)
    assert any("r_min" in c.name for c in report.failures())


def test_validate_never_raises_on_garbage_weights():
    model = make_scalar(Q=-5.0, G=-1.0)
    report = validate(model)  # reports, does not raise
    assert len(report.failures()) >= 2


# Growth diagnostic: lambda* is the largest eigenvalue of sym(A) over the
# grid; the sufficient contraction inequality is
#   4 lambda* < -2|alpha| - 6|C|^2 - 6|C0|^2 - 5|beta|^2 - 5|beta0|^2.
# Hand-computed reference cases:

def test_diagnostic_holds_for_strongly_stable_drift():
    # A = -10, all couplings zero: lhs = -40, rhs = 0.
    diag = wellposedness_diagnostic(make_scalar(A=-10.0))
    assert diag.lambda_star == -10.0
    assert diag.lhs == -40.0
    assert diag.rhs == 0.0
    assert diag.holds


def test_diagnostic_fails_with_mean_coupling():
    # A = 0, alpha = 1: lhs = 0, rhs = -2.
    diag = wellposedness_diagnostic(make_scalar(A=0.0, alpha=1.0))
    assert diag.lhs == 0.0
    assert diag.rhs == -2.0
    assert not diag.holds


def test_diagnostic_values_on_simulation_example():
    # A=1.5, alpha=1, C=0.6: lambda*=1.5, lhs=6, rhs=-2-6*0.36=-4.16.
    model = make_scalar(A=1.5, B=2.8, alpha=1.0, b=2.0, C=0.6, D=2.5,
                        sigma=0.8, D0=6.0, sigma0=0.3, Q=3.3, R=2.5, G=5.0)
    diag = wellposedness_diagnostic(model)
    assert diag.lambda_star == pytest.approx(1.5, abs=1e-12)
    assert diag.lhs == pytest.approx(6.0, abs=1e-12)
    assert diag.rhs == pytest.approx(-4.16, abs=1e-12)
    assert not diag.holds


def test_diagnostic_uses_sup_over_schedule():
    grid = TimeGrid(1.0, 4)
    A = np.zeros((5, 1, 1))
    A[2, 0, 0] = 3.0  # spike in the middle of the schedule
    diag = wellposedness_diagnostic(make_scalar(grid, A=A))
    assert diag.lambda_star == 3.0


# ------------------------------------------------------------------ errors

def _all_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _all_subclasses(sub)
    return out


def test_every_error_type_survives_pickle():
    # errors raised inside pool workers cross a process boundary by pickle
    import pickle

    import lqmfg
    from lqmfg import errors

    report = validate(make_scalar(Q=-1.0))
    assert not report.all_passed
    instances = [
        errors.StructureError("schedule has 3 entries, grid has 5 nodes"),
        errors.ValidationError(report),
        errors.UsageError("unknown preset"),
        errors.SingularSigmaError(0.25, -0.5, 1e-8),
        errors.DivergenceError("P diverged", node=3, t=0.125,
                               detail="min eigenvalue -1e-3"),
        errors.ConvergenceError(7, 2e-3, 1e-10),
        errors.MonotonicityError(2, 5, -1e-6),
    ]
    assert {type(e) for e in instances} == \
        _all_subclasses(lqmfg.LqmfgError)
    for exc in instances:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
