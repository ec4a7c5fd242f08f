import math
import tracemalloc

import numpy as np
import pytest

from qctl import (
    DomainError,
    EnsembleSpec,
    GaussianPacket,
    LowDensityError,
    complex_width,
    current,
    density,
    make_regime,
    packet_center,
    position_densities,
    quad_integrate,
    trajectory_fans,
    velocity,
)
from qctl import ensembles, hydrodynamics


def single_free(packet):
    return EnsembleSpec("pure", packet, packet, wall=False)


def test_current_vanishes_for_real_wavefunction(quantum):
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=0.0, mass=1.0)
    x = np.linspace(-14.0, -6.0, 33)
    flux = current(single_free(packet), quantum, x, 0.0)
    assert np.max(np.abs(flux)) < 1e-10


def test_current_of_linear_phase_packet(quantum, packet_a):
    spec = single_free(packet_a)
    x = np.linspace(-8.0, -2.0, 61)
    flux = np.asarray(current(spec, quantum, x, 0.0))
    rho = np.asarray(position_densities([spec], quantum, x, 0.0)[0])
    expected = (packet_a.p0 / packet_a.mass) * rho
    assert np.max(np.abs(flux - expected)) < 1e-10


def test_current_matches_finite_difference_of_density_matrix(pure_spec, quantum, rng):
    # Oracle: first-index derivative of rho by central differences.
    hb = quantum.hbar_tilde
    step = 1e-6
    for _ in range(12):
        x = rng.uniform(-12.0, -1.0)
        t = rng.uniform(0.5, 8.0)
        numeric = (
            density(pure_spec, quantum, x + step, x, t)
            - density(pure_spec, quantum, x - step, x, t)
        ) / (2.0 * step)
        expected = (hb / 1.0) * np.imag(numeric)
        value = current(pure_spec, quantum, x, t)
        assert value == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_velocity_of_single_packet_at_t0(quantum, packet_a):
    spec = single_free(packet_a)
    x = np.linspace(-8.0, -2.0, 25)
    v = velocity(spec, quantum, x, 0.0)
    assert np.max(np.abs(v - packet_a.p0 / packet_a.mass)) < 1e-9


@pytest.mark.parametrize("epsilon", [1.0, 0.25, 0.01])
def test_velocity_closed_form_for_spreading_packet(epsilon, packet_a):
    # Oracle: differentiating the Gaussian phase gives
    # v = p0/m + (x - xt) * (hb^2 t / 4 m^2 s0^4) / |1 + i hb t / (2 m s0^2)|^2.
    regime = make_regime(epsilon)
    spec = single_free(packet_a)
    t = 2.0
    x = np.linspace(-9.0, -2.5, 40)
    hb = regime.hbar_tilde
    m, s0 = packet_a.mass, packet_a.sigma0
    xt = packet_center(packet_a, t)
    expected = packet_a.p0 / m + (x - xt) * (hb**2 * t / (4.0 * m**2 * s0**4)) / np.abs(
        1.0 + 1j * hb * t / (2.0 * m * s0**2)
    ) ** 2
    v = velocity(spec, regime, x, t)
    assert np.max(np.abs(v - expected)) < 1e-12


def test_velocity_rejects_low_density(pure_spec, quantum):
    with pytest.raises(LowDensityError):
        velocity(pure_spec, quantum, -55.0, 0.0)


def test_velocity_is_current_over_density(mixed_spec, quantum):
    x = np.linspace(-18.0, -2.0, 33)
    t = 3.0
    v = np.asarray(velocity(mixed_spec, quantum, x, t))
    ratio = np.asarray(current(mixed_spec, quantum, x, t)) / np.asarray(
        position_densities([mixed_spec], quantum, x, t)[0]
    )
    assert np.max(np.abs(v - ratio)) < 1e-12


def test_pure_and_mixed_velocities_close_in_classical_regime(
    pure_spec, mixed_spec, nearly_classical
):
    # Agreement is judged on the scale of the packet speed p0/m; the local
    # values at the symmetric midpoint are themselves near zero.
    vp = float(velocity(pure_spec, nearly_classical, -10.0, 2.0))
    vm = float(velocity(mixed_spec, nearly_classical, -10.0, 2.0))
    speed_scale = abs(pure_spec.packet_b.p0) / pure_spec.mass
    assert abs(vp - vm) <= 0.05 * speed_scale


def test_trajectory_matches_dressing_solution(quantum, packet_a):
    # Oracle: the Gaussian velocity field integrates in closed form to
    # x(t) = xt + (x0_seed - x0) |st| / sigma0.
    spec = single_free(packet_a)
    for offset, tol in ((0.0, 1e-4), (1.0, 1e-3)):
        seed = packet_a.x0 + offset
        trajectory = trajectory_fans([(spec, quantum, [seed])], 3.0, 1e-3)[0][0][0]
        widths = np.abs(complex_width(packet_a, quantum, trajectory.times))
        oracle = packet_center(packet_a, trajectory.times) + offset * widths / packet_a.sigma0
        rel = np.max(np.abs(trajectory.positions - oracle) / np.abs(oracle))
        assert rel < tol
        assert trajectory.status == "completed"


def test_dense_samples_follow_dressing_solution(quantum, packet_a):
    # Every sample, most of them interpolated by the dense output between
    # steps of about 0.05, stays within 1e-10 of the closed form: a few
    # hundred local errors of ATOL * sigma0 = 1e-12.
    spec = single_free(packet_a)
    for offset in np.linspace(-2.0, 2.0, 5):
        trajectory = trajectory_fans([(spec, quantum, [packet_a.x0 + offset])], 5.0, 1e-3)[0][0][0]
        widths = np.abs(complex_width(packet_a, quantum, trajectory.times))
        oracle = packet_center(packet_a, trajectory.times) + offset * widths / packet_a.sigma0
        assert trajectory.accepted_steps < 200
        assert np.max(np.abs(trajectory.positions - oracle)) <= 1e-10


def test_trajectory_samples_contract(quantum, mixed_spec):
    trajectory = trajectory_fans([(mixed_spec, quantum, [-6.0])], 1.0, 1e-3)[0][0][0]
    assert trajectory.times[0] == 0.0
    assert trajectory.positions[0] == -6.0
    assert np.all(np.diff(trajectory.times) > 0.0)
    assert np.all(trajectory.positions <= 0.0)
    assert trajectory.times.shape == trajectory.positions.shape
    assert (trajectory.times[0], trajectory.positions[0]) == (0.0, -6.0)


def test_trajectory_input_validation(quantum, mixed_spec):
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [1.0])], 1.0)
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [-5.0])], -1.0)
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [-5.0, -5.0])], 1.0)
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [])], 1.0)


@pytest.mark.parametrize("wall", [True, False], ids=["wall", "free"])
@pytest.mark.parametrize("seeds", [[-6.0, np.nan], [-np.inf, -6.0], [-6.0, np.inf]])
def test_non_finite_seeds_are_rejected(quantum, packet_a, wall, seeds):
    # A NaN seed fails every comparison: without this check it gave NaN steps
    # that never ended the loop without the wall, and a silent stall with it.
    spec = EnsembleSpec("pure", packet_a, packet_a, wall=wall)
    with pytest.raises(DomainError, match="finite"):
        trajectory_fans([(spec, quantum, seeds)], 0.5)


def test_far_tail_seed_stalls_immediately(quantum, mixed_spec):
    trajectory = trajectory_fans([(mixed_spec, quantum, [-55.0])], 1.0, 1e-3)[0][0][0]
    assert trajectory.status == "stalled-low-density"
    assert trajectory.times.size == 1


def test_fan_preserves_ordering(quantum, mixed_spec):
    seeds = np.linspace(-16.0, -4.0, 8)
    fan = trajectory_fans([(mixed_spec, quantum, seeds)], 3.0, 1e-3)[0][0]
    for lower, upper in zip(fan, fan[1:]):
        shared = min(lower.positions.size, upper.positions.size)
        assert np.min(upper.positions[:shared] - lower.positions[:shared]) > -1e-6


def test_sample_spacing_does_not_change_steps(pure_spec, nearly_classical, monkeypatch):
    # dt only sets where the dense output is sampled: the node-rich pure flow
    # takes the same steps, at the same cost, for either spacing.
    calls = {"n": 0}
    evaluate = hydrodynamics.term_fields

    def counted(*args, **kwargs):
        calls["n"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(hydrodynamics, "term_fields", counted)
    seeds = [-12.0, -8.0, -5.0]
    fans, cost = {}, {}
    for dt in (2e-3, 1e-3):
        calls["n"] = 0
        fans[dt] = trajectory_fans([(pure_spec, nearly_classical, seeds)], 3.0, dt)[0][0]
        cost[dt] = calls["n"]
        assert max(tr.evaluations for tr in fans[dt]) == cost[dt]
    assert cost[2e-3] == cost[1e-3]
    for coarse, fine in zip(fans[2e-3], fans[1e-3]):
        assert coarse.positions.size == 1501
        assert np.max(np.abs(coarse.positions - fine.positions[::2])) <= 1e-12


def test_fan_member_equals_single_seed_integration(pure_spec, nearly_classical):
    # Each seed keeps its own steps, so its numbers do not depend on the
    # other seeds in the lockstep cohort.
    fan = trajectory_fans([(pure_spec, nearly_classical, [-16.0, -9.0, -4.0])], 3.0, 1e-3)[0][0]
    single = trajectory_fans([(pure_spec, nearly_classical, [-9.0])], 3.0, 1e-3)[0][0][0]
    assert np.array_equal(fan[1].positions, single.positions)
    assert fan[1].accepted_steps == single.accepted_steps
    assert fan[1].rejected_steps == single.rejected_steps


def test_cohort_of_fans_equals_each_fan_alone(pure_spec, mixed_spec, quantum, nearly_classical):
    # One lockstep loop over pure and mixed fans at two epsilons, plus a fan
    # of narrower packets: every fan's numbers equal its integration alone,
    # bit for bit.  The far-tail seed stalls at t = 0 and leaves the cohort.
    narrow = EnsembleSpec(
        "mixed", GaussianPacket(x0=-6.0, p0=-1.0, sigma0=0.7), GaussianPacket(x0=-12.0, p0=1.5, sigma0=0.7)
    )
    seeds = {"pure": [-16.0, -9.0, -4.0], "mixed": [-55.0, -14.0, -4.5]}
    fans = [
        (spec, regime, seeds[spec.kind])
        for regime in (quantum, nearly_classical)
        for spec in (pure_spec, mixed_spec)
    ] + [(narrow, nearly_classical, [-13.0, -7.0])]
    cohort, loop, positions = trajectory_fans(fans, 3.0, 1e-3)
    assert [len(fan) for fan in cohort] == [3, 3, 3, 3, 2]
    # Each trajectory is a view of its column of the one table, nan past its samples.
    members = [tr for fan in cohort for tr in fan]
    assert positions.shape == (members[0].times.size, len(members))
    for column, member in enumerate(members):
        assert np.shares_memory(member.positions, positions)
        assert np.array_equal(member.positions, positions[: member.positions.size, column])
        assert np.isnan(positions[member.positions.size :, column]).all()
    for (spec, regime, fan_seeds), together in zip(fans, cohort):
        alone = trajectory_fans([(spec, regime, fan_seeds)], 3.0, 1e-3)[0][0]
        for member, single in zip(together, alone):
            assert np.array_equal(member.positions, single.positions)
            assert member.accepted_steps == single.accepted_steps
            assert member.rejected_steps == single.rejected_steps
            assert member.evaluations == single.evaluations
            assert member.status == single.status
    assert cohort[1][0].status == "stalled-low-density"
    # The loop counts: every call includes the longest-running seed,
    # and every seed adds one point to each call it is part of.
    members = [tr for fan in cohort for tr in fan]
    assert loop["evaluator_calls"] == max(tr.evaluations for tr in members)
    assert loop["evaluator_points"] == sum(tr.evaluations for tr in members)
    assert loop["iterations"] == max(tr.accepted_steps + tr.rejected_steps for tr in members)


def test_trajectory_evaluator_equals_field_evaluator(
    pure_spec, mixed_spec, quantum, nearly_classical
):
    # The lockstep loop and the fields share one term kernel, but the loop
    # keeps its own row bookkeeping: which seed owns each packet row (owner),
    # where each component's rows begin (starts), each seed's first component
    # (firsts) and each row's normalization (scale).  Checked against the
    # one-spec field path, bit for bit, at every seed of a cohort that spans
    # ensembles and regimes, also at and beyond the wall and after the cohort
    # has shrunk.
    fans = [
        (spec, regime, np.array([-16.0, -9.0, -4.0]))
        for regime in (quantum, nearly_classical)
        for spec in (pure_spec, mixed_spec)
    ]
    owners = [(spec, regime) for spec, regime, seeds in fans for _ in seeds]
    cohort = hydrodynamics._Cohort(fans)
    rng = np.random.default_rng(5)
    beyond = guided = 0
    shrinking = (range(12), [0, 2, 4, 5, 7, 9, 10, 11], [1, 6, 11], [8])
    for running in map(np.array, shrinking):
        cohort.select(running)
        t = rng.uniform(0.0, 9.0, size=(3, running.size))
        x = rng.uniform(-18.0, -1.0, size=(3, running.size))
        if running.size > 1:
            x[1, :2] = (0.0, 0.5)  # on and beyond the wall, in one stage only
        coefficients = cohort.coefficients(t)
        for stage in range(3):
            v, rho = cohort.evaluate(coefficients, stage, x[stage])
            for j, seed in enumerate(running):
                spec, regime = owners[seed]
                point = (x[stage, j], t[stage, j])
                flux_ref, rho_ref = hydrodynamics._flux_and_density(spec, regime, *point)
                assert rho[j] == rho_ref
                assert v[j] == flux_ref / max(rho_ref, 1e-300)
                if rho_ref >= hydrodynamics.DENSITY_FLOOR:
                    assert v[j] == velocity(spec, regime, *point)
                    guided += 1
                if point[0] >= 0.0:
                    beyond += 1
                    assert rho[j] == 0.0
    assert beyond == 6 and guided > 50


def test_fans_input_validation(pure_spec, quantum, packet_a):
    with pytest.raises(DomainError):
        trajectory_fans([], 1.0)
    with pytest.raises(DomainError):
        trajectory_fans([(pure_spec, quantum, [-6.0]), (single_free(packet_a), quantum, [-6.0])], 1.0)
    with pytest.raises(DomainError):
        trajectory_fans([(pure_spec, quantum, [-6.0]), (pure_spec, quantum, [-5.0, -6.0])], 1.0)


def test_equivariance_mass_left_of_trajectories(pure_spec, nearly_classical):
    # Oracle: the guidance flow transports the density, so the probability
    # to the left of every trajectory is conserved, here past the collision
    # of the two packets near t = 2.5 in the node-rich pure flow.
    seeds = np.linspace(-18.0, -2.0, 12)
    fan = trajectory_fans([(pure_spec, nearly_classical, seeds)], 5.0, 1e-3)[0][0]

    def mass_left(x, t):
        grid = np.linspace(-40.0, x, 40001)
        rho = position_densities([pure_spec], nearly_classical, grid, t)[0]
        return float(quad_integrate(grid, rho))

    for tr in fan:
        assert tr.status == "completed"
        start = mass_left(tr.positions[0], 0.0)
        for k in (3000, 4000, 5000):
            assert abs(mass_left(tr.positions[k], tr.times[k]) - start) <= 1e-6


def test_collapsing_step_stalls_instead_of_hanging(quantum, monkeypatch):
    # Along a trajectory of a spreading free packet the density falls as
    # sigma0 / |s_t|.  A floor at 0.9 of the seed's density is reached at
    # |s_t| = sigma0 / 0.9, where the step shrinks until it drops below H_MIN.
    packet = GaussianPacket(sigma0=1.0, x0=-10.0, p0=1.0, mass=1.0)
    spec = single_free(packet)
    seed = -12.0
    floor = 0.9 * float(position_densities([spec], quantum, seed, 0.0)[0])
    monkeypatch.setattr(hydrodynamics, "DENSITY_FLOOR", floor)
    trajectory = trajectory_fans([(spec, quantum, [seed])], 2.0, 1e-3)[0][0][0]
    t_floor = 2.0 * np.sqrt(1.0 / 0.81 - 1.0)  # |s_t| / sigma0 = 1 / 0.9
    assert trajectory.status == "stalled-low-density"
    assert t_floor - 1e-3 <= trajectory.times[-1] <= t_floor
    assert trajectory.rejected_steps <= 100
    assert trajectory.evaluations <= 1000


def test_non_finite_step_stalls_at_once(quantum, packet_b, monkeypatch):
    # A kick this large overflows the fields, so the first step of the seeds
    # x0 <= -12.9 is not finite.  NaN fails the exit test as well: the seeds
    # leave the loop, which without that test ran on with x = NaN, and their
    # status tells them apart from seeds stopped at a density node.  The
    # seeds nearer packet a, where the velocity is about 1e300, take one
    # finite step of about 1e-302 and stall below H_MIN with no stage density
    # below the floor: a collapsed step, not a node.
    evaluate = hydrodynamics._Cohort.evaluate
    calls = []

    def counted(cohort, *args):
        calls.append(None)
        if len(calls) > 2000:
            raise RuntimeError("the loop did not end")
        return evaluate(cohort, *args)

    monkeypatch.setattr(hydrodynamics._Cohort, "evaluate", counted)
    spec = EnsembleSpec("mixed", GaussianPacket(sigma0=1.0, x0=-5.0, p0=1e300, mass=1.0), packet_b)
    with np.errstate(all="ignore"):
        fan = trajectory_fans([(spec, quantum, np.linspace(-18.0, -2.0, 20))], 15.0)[0][0]
    assert [tr.status for tr in fan] == ["stalled-non-finite"] * 7 + ["stalled-step-collapse"] * 13
    assert all(tr.rejected_steps == 1 for tr in fan[:7])
    # The t = 0 evaluation, the starting step and one step's six stages.
    assert max(tr.evaluations for tr in fan) <= 8
    assert len(calls) <= 8


def _check_attempt_budget(quantum, pure_spec, monkeypatch, budget):
    seeds = [-12.0, -6.0]
    unbudgeted = trajectory_fans([(pure_spec, quantum, seeds)], 1.0, 1e-2)[0][0]
    monkeypatch.setattr(hydrodynamics, "MAX_ATTEMPTS", budget)
    (fan,), loop, _ = trajectory_fans([(pure_spec, quantum, seeds)], 1.0, 1e-2)
    last = "completed" if budget >= 62 else "stalled-work-budget"
    assert [tr.status for tr in fan] == ["stalled-work-budget", last]
    assert fan[0].accepted_steps + fan[0].rejected_steps == budget == loop["iterations"]
    assert fan[0].evaluations == 2 + 6 * budget == loop["evaluator_calls"]
    # The budget cuts the trajectory short and changes none of its samples.
    assert 1 < fan[0].times.size < unbudgeted[0].times.size
    for budgeted, free in zip(fan, unbudgeted):
        assert budgeted.positions.tobytes() == free.positions[: budgeted.times.size].tobytes()
    assert (fan[1].times.size == unbudgeted[1].times.size) == (last == "completed")


def test_a_seed_out_of_attempts_stalls_with_its_own_status(quantum, pure_spec, monkeypatch):
    # A budget of 100 step attempts stops the seed at -12, which takes 326
    # unbudgeted, and not the one at -6, which takes 62 and runs on.
    _check_attempt_budget(quantum, pure_spec, monkeypatch, 100)


@pytest.mark.parametrize("budget", [62, 61])
def test_a_seed_finishing_on_its_last_attempt_completes(quantum, pure_spec, monkeypatch, budget):
    # The seed at -6 takes 62 attempts: it completes on its last allowed
    # attempt, and one attempt fewer stops both seeds.
    _check_attempt_budget(quantum, pure_spec, monkeypatch, budget)


def test_non_finite_density_at_start_stalls_as_non_finite(quantum, mixed_spec, monkeypatch):
    # A seed whose t = 0 density is NaN leaves at once as non-finite; one in
    # the far tail leaves as a low-density stall; the others run on.
    evaluate = hydrodynamics._Cohort.evaluate
    calls = []

    def first_nan(cohort, *args):
        v, rho = evaluate(cohort, *args)
        if not calls:
            rho[1] = np.nan
        calls.append(None)
        return v, rho

    monkeypatch.setattr(hydrodynamics._Cohort, "evaluate", first_nan)
    fan = trajectory_fans([(mixed_spec, quantum, [-55.0, -12.0, -6.0])], 0.1, 1e-2)[0][0]
    assert [tr.status for tr in fan] == ["stalled-low-density", "stalled-non-finite", "completed"]
    assert fan[1].times.size == 1 and fan[1].evaluations == 1


@pytest.mark.parametrize("eps", [1.0, 0.01])
def test_trajectories_keep_their_quantile(eps, pure_spec, mixed_spec):
    # Exact oracle: in 1D the guidance flow transports the density and
    # trajectories do not cross, so F_t(x(t)) = F_0(x0), with F_t the exact
    # cumulative distribution, at every recorded time, past the collision of
    # the two packets near t = 2.5.  It holds for the mixture too, because
    # the summed current and density obey continuity.
    regime = make_regime(eps)
    seeds = np.linspace(-18.0, -2.0, 20)
    fans = trajectory_fans([(pure_spec, regime, seeds), (mixed_spec, regime, seeds)], 3.0, 1e-2)[0]
    for spec, fan in zip((pure_spec, mixed_spec), fans):
        assert {tr.status for tr in fan} == {"completed"}
        positions = np.array([tr.positions for tr in fan])
        start = ensembles.mass_below(spec, regime, 0.0, seeds)
        for t, x in zip(fan[0].times, positions.T):
            assert np.max(np.abs(ensembles.mass_below(spec, regime, t, x) - start)) <= 1e-9


def test_recorded_samples_equal_dense_ones(quantum, monkeypatch):
    # Keeping every 10th sample changes neither the steps nor a kept sample,
    # also for a seed that stalls mid-run (as in the test above), and the
    # last sample stays on t_end = 2.003, which is no multiple of 10 dt.
    spec = single_free(GaussianPacket(sigma0=1.0, x0=-10.0, p0=1.0, mass=1.0))
    floor = 0.9 * float(position_densities([spec], quantum, -12.0, 0.0)[0])
    monkeypatch.setattr(hydrodynamics, "DENSITY_FLOOR", floor)
    dense, kept = (
        trajectory_fans([(spec, quantum, [-12.0, -10.0])], 2.003, 1e-3, record_every=every)[0][0]
        for every in (1, 10)
    )
    keep = np.append(np.arange(0, 2004, 10), 2003)
    assert np.array_equal(hydrodynamics.record_times(2.003, 1e-3, 10), dense[1].times[keep])
    assert [tr.status for tr in kept] == ["stalled-low-density", "completed"]
    for full, sparse in zip(dense, kept):
        recorded = keep[keep < full.positions.size]
        assert sparse.positions.tobytes() == full.positions[recorded].tobytes()
        assert np.array_equal(sparse.times, full.times[recorded])
        assert (sparse.accepted_steps, sparse.rejected_steps, sparse.evaluations) == (
            full.accepted_steps, full.rejected_steps, full.evaluations
        )
    assert kept[1].times[-1] == dense[1].times[-1]
    with pytest.raises(DomainError):
        hydrodynamics.record_times(2.0, 1e-3, 0)


def test_record_count_is_the_length_of_record_times():
    # Step counts that are multiples of record_every and ones that are not,
    # and a record_every above the step count, which keeps 0 and t_end.
    rng = np.random.default_rng(26)
    remainders = set()
    for _ in range(400):
        every = int(rng.integers(1, 300))
        n_steps = every * int(rng.integers(1, 40)) + int(rng.integers(0, 2)) * int(rng.integers(1, 500))
        dt = 10.0 ** rng.uniform(-4.0, 0.0)
        t_end = n_steps * dt
        assert hydrodynamics.step_count(t_end, dt) == n_steps
        times = hydrodynamics.record_times(t_end, dt, every)
        assert hydrodynamics.record_count(t_end, dt, every) == times.size
        assert times[-1] == n_steps * dt and times[1] == min(every, n_steps) * dt
        remainders.add(n_steps % every == 0)
    assert remainders == {True, False}
    assert hydrodynamics.record_times(1.0, 0.25, 10**30).tolist() == [0.0, 1.0]
    assert hydrodynamics.record_count(1.0, 0.25, 10**30) == 2


def test_record_times_allocates_only_the_kept_steps():
    # 15 million steps keep 1,501 times, 12 kB; building every step took 240 MB.
    tracemalloc.start()
    try:
        times = hydrodynamics.record_times(15.0, 1e-6, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.size == 1501 and times[-1] == 15.0
    assert peak < 1_000_000


def test_step_count_is_the_only_check_of_t_end_and_dt(quantum, pure_spec):
    # At most 2^53 steps, past which k * dt is not exact; positive t_end and dt.
    assert hydrodynamics.step_count(2.0**53, 1.0) == 2**53
    for t_end, dt in ((2.0**54, 1.0), (15.0, 1e-299), (1e300, 1e-300), (0.0, 1e-3), (1.0, 0.0),
                      (-1.0, -1e-3), (1.0, -1e-3), (math.nan, 1e-3), (1.0005, 1e-3)):
        with pytest.raises(DomainError):
            hydrodynamics.step_count(t_end, dt)
        with pytest.raises(DomainError):
            trajectory_fans([(pure_spec, quantum, [-5.0])], t_end, dt)


def test_collision_reversal_of_rear_seed(nearly_classical, mixed_spec):
    # Non-crossing makes the seed launched behind the right-moving packet
    # turn around at the packet-packet collision and recede from the wall.
    trajectory = trajectory_fans([(mixed_spec, nearly_classical, [-14.0])], 12.0, 1e-3)[0][0][0]
    assert trajectory.status == "completed"
    peak_index = int(np.argmax(trajectory.positions))
    assert 1.5 < trajectory.times[peak_index] < 3.5
    assert trajectory.positions[-1] < trajectory.positions[peak_index] - 5.0


def test_wall_reversal_of_seed_starting_near_wall(nearly_classical, mixed_spec):
    # Seeds in the packet closer to the wall carry the reflected lump: they
    # reverse at the wall near the classical collision time m|x0|/p0 = 7.5.
    trajectory = trajectory_fans([(mixed_spec, nearly_classical, [-4.5])], 12.0, 1e-3)[0][0][0]
    assert trajectory.status == "completed"
    peak_index = int(np.argmax(trajectory.positions))
    assert 6.5 < trajectory.times[peak_index] < 8.5
    assert trajectory.positions[peak_index] > -1.0
    assert trajectory.positions[-1] < trajectory.positions[peak_index] - 3.0


def test_fan_localizes_toward_classical_regime(pure_spec, quantum, nearly_classical):
    # Seeds within one packet: terminal spread shrinks as epsilon decreases.
    seeds = np.linspace(-16.5, -13.5, 10)
    spreads = {}
    for name, regime in (("quantum", quantum), ("classical", nearly_classical)):
        fan = trajectory_fans([(pure_spec, regime, seeds)], 4.0, 1e-3)[0][0]
        finals = np.array([tr.positions[-1] for tr in fan if tr.status == "completed"])
        assert finals.size == seeds.size
        spreads[name] = finals.max() - finals.min()
    assert spreads["classical"] < spreads["quantum"]


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_batch_evaluation_equals_pointwise(kind, pure_spec, mixed_spec, nearly_classical):
    # Lockstep fan integration relies on each seed's numbers not depending on
    # the cohort it is evaluated with.
    spec = pure_spec if kind == "pure" else mixed_spec
    x = np.linspace(-18.0, -2.0, 20)
    t = 3.3
    flux = current(spec, nearly_classical, x, t)
    rho = position_densities([spec], nearly_classical, x, t)[0]
    for i, x_i in enumerate(x):
        assert current(spec, nearly_classical, x_i, t) == flux[i]
        assert position_densities([spec], nearly_classical, x_i, t)[0] == rho[i]


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_time_array_evaluation_equals_scalar_times(kind, pure_spec, mixed_spec, quantum):
    spec = pure_spec if kind == "pure" else mixed_spec
    times = np.linspace(0.0, 12.0, 25)
    flux = current(spec, quantum, -6.0, times)
    rho = position_densities([spec], quantum, -6.0, times)[0]
    for i, t in enumerate(times):
        assert current(spec, quantum, -6.0, t) == flux[i]
        assert position_densities([spec], quantum, -6.0, t)[0] == rho[i]


def test_t_end_must_be_whole_multiple_of_dt(quantum, mixed_spec):
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [-6.0])], 1.0005, 1e-3)
    with pytest.raises(DomainError):
        trajectory_fans([(mixed_spec, quantum, [-6.0])], 0.0005, 1e-3)
