"""How the runner counts failures and combines job times."""

from perfbench import oracle, run
from perfbench.workloads import Instance


def _instance(group, job, check=lambda result: None):
    return Instance(group=group, label=group, seeds={}, run=job, check=check)


def test_a_raising_job_and_a_failed_check_both_count_as_failed():
    def boom():
        raise ValueError("boom")

    def reject(result):
        raise oracle.CheckFailed("wrong")

    record = run.Record([_instance("a", boom), _instance("b", int, reject), _instance("c", int)])
    run.one_pass(record.instances, record)
    assert (record.attempted, record.failed) == (3, 2)
    jobs = record.to_json()
    assert jobs[0]["errors"] == ["ValueError: boom"]
    assert jobs[1]["errors"] == ["CheckFailed: wrong"]
    assert jobs[2]["ok"] == [True]


def test_instance_time_is_the_median_repeat_at_the_reference_speed():
    record = run.Record([_instance("g", int), _instance("g", int), _instance("h", int)])
    for i, times in enumerate([[3.0, 1.0, 2.0], [2.0, 5.0, 6.0], [4.0]]):
        for seconds in times:
            record.add(i, run.Job(0.0, seconds, seconds, None, ref_s=seconds / 2))
    assert record.instance_times() == [1.0, 2.5, 2.0]
    assert record.instance_times(lambda jobs: min(j.seconds for j in jobs)) == [1.0, 2.0, 4.0]
