import numpy as np
import pytest

import moduli_oracle
from parhodge import localsys, moduli, surface
from parhodge.errors import InvalidAngles, InvalidParameter, SamplingFailed, SingularPoint
from parhodge.localsys import quat_angle, quat_from_axis_angle, quat_mul, quat_conj


def test_sample_trivial_torus_point():
    p = moduli.sample_point(1, 0, [], seed=0)
    rel = moduli._quat_word(p.phi_images, surface.presentation(1, 0)[1])
    assert np.abs(rel - np.array([1.0, 0, 0, 0])).max() < 1e-12


def test_sample_one_holed_torus_matches_class():
    for seed in range(5):
        p = moduli.sample_point(1, 1, [2.5], seed=seed)
        assert abs(quat_angle(p.phi_images["c1"]) - 2.5) < 1e-6
        # relation-forced class: the boundary image is the inverse commutator
        a, b = p.phi_images["a1"], p.phi_images["b1"]
        comm = quat_mul(quat_mul(a, b), quat_mul(quat_conj(a), quat_conj(b)))
        assert np.abs(quat_mul(comm, p.phi_images["c1"])
                      - np.array([1.0, 0, 0, 0])).max() < 1e-9


def test_sample_forced_class_succeeds_first_attempt():
    rng = np.random.default_rng(50)
    a = localsys.random_unit_quaternion(rng)
    b = localsys.random_unit_quaternion(rng)
    comm = quat_mul(quat_mul(a, b), quat_mul(quat_conj(a), quat_conj(b)))
    theta = quat_angle(quat_conj(comm))
    p = moduli.sample_point(1, 1, [theta], seed=int(rng.integers(1 << 16)))
    assert p.attempts_used <= 3


def test_sample_pair_of_pants_exact_solve():
    p = moduli.sample_point(0, 3, [1.2, 2.0, 2.5], seed=3)
    assert p.attempts_used == 1
    for j, theta in enumerate([1.2, 2.0, 2.5]):
        assert abs(quat_angle(p.phi_images[f"c{j + 1}"]) - theta) < 1e-9


def test_sample_rejects_bad_angles_and_surfaces():
    with pytest.raises(InvalidAngles):
        moduli.sample_point(0, 3, [0.0, 1.0, 1.0], seed=0)
    with pytest.raises(InvalidAngles):
        moduli.sample_point(1, 1, [7.0], seed=0)
    with pytest.raises(InvalidParameter):
        moduli.sample_point(0, 2, [1.0, 1.0], seed=0)


def test_point_validation():
    with pytest.raises(InvalidParameter):
        moduli.ModuliPoint(g=1, k=1, boundary_classes=[1.0],
                           phi_images={"a1": np.array([1.0, 0, 0, 0])}, seed=0)


def test_tangent_space_one_holed_torus_20_seeds():
    for seed in range(20):
        p = moduli.sample_point(1, 1, [2.2], seed=seed)
        ts = moduli.tangent_space(p)
        assert ts["dim_H1_par"] == 2
        assert ts["omega_rank"] == 2
        assert not ts["reducible_flag"]
        assert ts["expected_dim"] == 2


def test_tangent_space_pair_of_pants_dim_zero():
    for seed in range(5):
        p = moduli.sample_point(0, 3, [1.0, 1.7, 2.3], seed=seed)
        ts = moduli.tangent_space(p)
        assert ts["dim_H1_par"] == 0
        assert ts["expected_dim"] == 0
        assert not ts["reducible_flag"]


def test_trivial_torus_point_is_reducible():
    p = moduli.sample_point(1, 0, [], seed=1)
    ts = moduli.tangent_space(p)
    assert ts["reducible_flag"]
    with pytest.raises(SingularPoint):
        moduli.moduli_acs(p)


def test_acs_compatibility_and_signs():
    p = moduli.sample_point(1, 1, [2.8], seed=9)
    out = moduli.moduli_acs(p)
    res = out["compatibility_residuals"]
    assert res["acs_sq"] < 1e-9
    assert res["goldman_invariance"] < 1e-9
    assert res["taming_min_eigenvalue"] > 0
    rep = out["parastar_report"]
    assert np.array_equal(out["acs"], -rep.j_par)
    assert np.array_equal(out["goldman_omega"], -rep.omega_u)
    # double negation: the taming form is unchanged
    assert res["taming_min_eigenvalue"] == pytest.approx(
        rep.residuals["taming_min_eigenvalue"], rel=1e-12)
    eigs = np.sort(np.linalg.eigvals(out["acs"]).imag)
    assert np.abs(eigs - np.array([-1, 1])).max() < 1e-9


def test_acs_two_metrics_same_goldman_form():
    rng = np.random.default_rng(51)
    p = moduli.sample_point(1, 1, [1.9], seed=13)
    k, h, loops, f = moduli.build_system(p)
    out1 = moduli.moduli_acs(p)
    h2 = surface.perturbed_metric(k, h, rng)
    out2 = moduli.moduli_acs(p, metric=h2)
    assert np.array_equal(out1["goldman_omega"], out2["goldman_omega"])
    assert np.abs(out1["acs"] - out2["acs"]).max() > 1e-8  # metric moved J
    for out in (out1, out2):
        assert out["compatibility_residuals"]["taming_min_eigenvalue"] > 0


def test_conjugation_invariance():
    p = moduli.sample_point(1, 1, [2.4], seed=17)
    g = quat_from_axis_angle([1.0, 2.0, 0.5], 1.1)
    conj_images = {
        name: quat_mul(quat_mul(g, q), quat_conj(g))
        for name, q in p.phi_images.items()
    }
    p2 = moduli.ModuliPoint(g=1, k=1, boundary_classes=[2.4],
                            phi_images=conj_images, seed=17)
    ts1, ts2 = moduli.tangent_space(p), moduli.tangent_space(p2)
    assert ts1["dim_H1_par"] == ts2["dim_H1_par"]
    a1 = moduli.moduli_acs(p)["acs"]
    a2 = moduli.moduli_acs(p2)["acs"]
    assert np.abs(np.sort(np.linalg.eigvals(a1).imag)
                  - np.sort(np.linalg.eigvals(a2).imag)).max() < 1e-9


def test_determinism_per_seed():
    p1 = moduli.sample_point(1, 1, [3.0], seed=99)
    p2 = moduli.sample_point(1, 1, [3.0], seed=99)
    for name in p1.phi_images:
        assert np.array_equal(p1.phi_images[name], p2.phi_images[name])
    r1 = moduli.moduli_acs(p1)["parastar_report"]
    r2 = moduli.moduli_acs(p2)["parastar_report"]
    assert np.array_equal(r1.j_par, r2.j_par)


def test_mesh_independence_of_tangent_dim():
    p = moduli.sample_point(1, 1, [2.6], seed=23)
    dims = []
    for subdiv in (1, 2):
        p_s = moduli.ModuliPoint(g=1, k=1, boundary_classes=[2.6],
                                 phi_images=p.phi_images, seed=23,
                                 subdiv=subdiv)
        dims.append(moduli.tangent_space(p_s)["dim_H1_par"])
    assert dims[0] == dims[1] == 2


def _sample(g, k, angles, seed, max_attempts):
    """A sampled point's image bytes and attempts, or its failure message."""
    try:
        p = moduli.sample_point(g, k, angles, seed, max_attempts=max_attempts)
    except SamplingFailed as exc:
        return str(exc), exc.attempts
    return {n: q.tobytes() for n, q in p.phi_images.items()}, p.attempts_used


# (g, k, class angles, seed, max_attempts); the cap of four makes some fail
_ORACLE_CASES = (
    [(1, 1, [float(a)], seed, 4)
     for seed, a in enumerate(np.random.default_rng(70).uniform(0.2, 6.0, 32))]
    + [(2, 1, [float(a)], seed, 4)
       for seed, a in enumerate(np.random.default_rng(71).uniform(0.2, 6.0, 4))]
    + [(3, 2, [float(a), float(b)], seed, 4)
       for seed, (a, b) in enumerate(np.random.default_rng(72).uniform(0.2, 6.0, (4, 2)))]
)


def test_sampler_matches_the_scalar_bisection_bit_for_bit(monkeypatch):
    new = [_sample(*case) for case in _ORACLE_CASES]
    monkeypatch.setattr(moduli, "_solve_last_bisect", moduli_oracle._solve_last_bisect)
    old = [_sample(*case) for case in _ORACLE_CASES]
    assert new == old
    failed = [isinstance(images, str) for images, _ in old]
    assert any(failed) and not all(failed)
    assert any(n > 1 for images, n in old if not isinstance(images, str))


def _bisect_both(g, k, images, target):
    mine, theirs = dict(images), dict(images)
    q = moduli._solve_last_bisect(g, k, mine, target)
    q_old = moduli_oracle._solve_last_bisect(g, k, theirs, target)
    assert q_old is not None and q.tobytes() == q_old.tobytes()
    assert {n: v.tobytes() for n, v in mine.items()} == \
        {n: v.tobytes() for n, v in theirs.items()}


def _target_at(g, k, images, t):
    """The class angle of the forced image at t, as the oracle computes it,
    so that f(t) = 0 exactly."""
    b_name = f"b{g}"
    scaled = dict(images, **{b_name: moduli_oracle._scaled(images[b_name], t)})
    word = surface.presentation(g, k)[1][:-1]
    return quat_angle(quat_conj(moduli._quat_word(scaled, word)))


@pytest.mark.parametrize("shift", [-0.5, 0.0, 0.5])
def test_bisection_matches_on_a_node_at_the_target(monkeypatch, shift):
    # the last node, t = 1, sits on the target; batched angles that are off
    # by less than the screen margin must not change the bracket
    raw_angles = moduli._ForcedImage.raw_angles
    monkeypatch.setattr(moduli._ForcedImage, "raw_angles", lambda self, ts:
                        raw_angles(self, ts) + shift * moduli._SCAN_MARGIN)
    rng = np.random.default_rng(50)
    images = {"a1": localsys.random_unit_quaternion(rng),
              "b1": localsys.random_unit_quaternion(rng)}
    _bisect_both(1, 1, images, _target_at(1, 1, images, 1.0))


def test_bisection_matches_at_its_step_cap():
    rng = np.random.default_rng(52)
    images = {name: localsys.random_unit_quaternion(rng)
              for name in ("a1", "b1", "a2", "b2")}
    # f(0) = 0: the bracket halves toward t = 0 and stops after 80 steps,
    # far above the float fixed point, at a t that still moves b2
    _bisect_both(2, 1, images, _target_at(2, 1, images, 0.0))
    # with b2 the identity the forced image does not move with t
    images["b2"] = np.array([1.0, 0, 0, 0])
    _bisect_both(2, 1, images, _target_at(2, 1, images, 0.0))


def test_screen_rules_out_only_cells_with_two_sure_ends_of_one_sign():
    # offsets from the target 3: -2, -1, within the margin, 1, 2, near the
    # wrap at 2*pi, 2, -1, -2, NaN
    raw = np.array([1.0, 2.0, 3.0 + 1e-12, 4.0, 5.0, 2.0 * np.pi - 1e-12,
                    5.0, 2.0, 1.0, np.nan])
    assert list(moduli._screen(raw, 3.0)) == [1, 2, 4, 5, 6, 8]


def test_sampler_evaluates_the_scalar_word_only_on_screened_cells(monkeypatch):
    # per attempt: (solved, scalar evaluations, cells the screen kept)
    attempts, count, kept = [], [0], []
    at, raw_angles = moduli._ForcedImage.at, moduli._ForcedImage.raw_angles
    screen, solve = moduli._screen, moduli._solve_last_bisect

    def counting_at(self, t):
        count[0] += 1
        return at(self, t)

    def scan(self, ts):
        before = count[0]
        out = raw_angles(self, ts)
        assert count[0] == before
        return out

    def screening(raw, target):
        cells = screen(raw, target)
        kept.append(len(cells))
        return cells

    def solving(g, k, images, target):
        count[0] = 0
        q = solve(g, k, images, target)
        attempts.append((q is not None, count[0], kept.pop()))
        return q

    monkeypatch.setattr(moduli._ForcedImage, "at", counting_at)
    monkeypatch.setattr(moduli._ForcedImage, "raw_angles", scan)
    monkeypatch.setattr(moduli, "_screen", screening)
    monkeypatch.setattr(moduli, "_solve_last_bisect", solving)
    for case in _ORACLE_CASES:
        _sample(*case)
    for solved, evaluations, cells in attempts:
        # a confirmed cell costs at most its two ends; then 80 steps and
        # the final midpoint
        assert evaluations <= (2 * cells + 81 if solved else 0)
    assert {solved for solved, _, _ in attempts} == {True, False}
