from portalbench.capture import TrialsCall, Unit
from portalbench.check import check_units


def _unit(outcomes, seed=1, reliabilities=(0.5,)):
    call = TrialsCall(
        label="cfg",
        task=None,
        seed=seed,
        workers=1,
        wall_s=1.0,
        outcomes=list(outcomes),
        trial_seconds=[0.1] * len(outcomes),
    )
    return Unit(
        seed=seed,
        planned_passes=len(outcomes),
        calls=[call],
        reliabilities=list(reliabilities),
    )


def _check(units, oracle, sample=100):
    # Captured outcomes are already keys; the key applies to oracle output.
    return check_units(
        units,
        key=lambda outcome: outcome,
        oracles={"scalar": oracle},
        sample=sample,
        seed=7,
    )


def test_agreeing_oracle_fails_nothing():
    report = _check([_unit([10, 11, 12, 13])], lambda call, t: call.outcomes[t])
    assert (report.attempted, report.failed, report.problems) == (4, 0, [])
    assert report.failed_frac == 0.0


def test_oracle_mismatch_counts_toward_failed_frac():
    units = [_unit([10, 11, 12, 13]), _unit([20, 21, 22, 23])]

    def oracle(call, trial):
        wrong = call.outcomes[0] == 20 and trial == 2
        return -1 if wrong else call.outcomes[trial]

    report = _check(units, oracle)
    assert report.attempted == 8
    assert report.failed == 1
    assert report.failed_frac == 1 / 8
    assert "trial 2" in report.problems[0]


def test_raising_oracle_counts_as_a_mismatch():
    def oracle(call, trial):
        raise RuntimeError("scalar path broke")

    report = _check([_unit([1, 2])], oracle)
    assert report.failed == 2
    assert "RuntimeError" in report.problems[0]


def test_only_sampled_passes_are_rerun():
    calls = []

    def oracle(call, trial):
        calls.append(trial)
        return call.outcomes[trial]

    _check([_unit(list(range(20)))], oracle, sample=3)
    assert len(calls) == 3


def test_unit_that_raised_fails_every_planned_pass():
    broken = Unit(seed=1, planned_passes=6, error="Traceback ...")
    report = _check([_unit([1, 2]), broken], lambda call, t: call.outcomes[t])
    assert report.attempted == 8
    assert report.failed == 6


def test_reliability_outside_unit_interval_fails_the_unit():
    units = [_unit([1, 2, 3], reliabilities=[0.9]), _unit([4, 5], reliabilities=[1.5])]
    report = _check(units, lambda call, t: call.outcomes[t])
    assert report.failed == 2


def test_key_is_applied_to_oracle_outcomes():
    report = check_units(
        [_unit([[1, 2]])],
        key=sorted,
        oracles={"scalar": lambda call, t: {2, 1}},
        sample=1,
        seed=0,
    )
    assert report.failed == 0
