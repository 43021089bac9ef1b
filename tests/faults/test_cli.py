"""``repro-faults`` command wiring: argument parsing, exit status and
the verdict line, on the smallest workload.  The sweep's coverage is
tested in ``test_sweep.py``; this only pins that the CLI drives it."""

from repro.faults import cli


def test_list_prints_the_plan_and_its_size(capsys):
    assert cli.main(["list", "--workload", "queued", "--stride", "20"]) == 0
    out, err = capsys.readouterr()
    ids = out.splitlines()
    assert ids and all(point_id.startswith("queued:") for point_id in ids)
    assert err == f"{len(ids)} points\n"


def test_sweep_runs_the_sampled_points_and_reports_ok(capsys):
    argv = [
        "sweep", "--workload", "queued", "--message-stride", "8",
        "--stride", "20",
    ]
    assert cli.main(argv) == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("5 points swept in ")
    assert verdict.endswith("s: ok")
