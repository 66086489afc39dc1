"""The verification runner and the command-line front end."""

import collections
import dataclasses
import json
import re
import xml.etree.ElementTree as ET

import pytest

from scideals import cli, verify
from scideals.verify import junit_xml, overall_status, run_all, run_suite


# ----------------------------------------------------------------------
# verification runner


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_fast_suites_pass(pinned):
    for name in ("ideal-bound", "chvatal", "even-d-conjecture"):
        report = run_suite(name)
        assert report.status == "pass", (name, report.hard_failures)
        assert report.counts["fail"] == 0
        assert report.seconds >= 0
        pinned(report)


def test_suite_records_are_json_ready():
    report = run_suite("ideal-bound")
    record = report.to_record()
    json.dumps(record)  # must not raise
    assert record["suite"] == "ideal-bound"
    assert record["status"] == "pass"
    assert record["counts"] == {"pass": len(record["checks"]), "fail": 0}


def test_wrong_closed_form_is_a_recorded_failure(monkeypatch):
    monkeypatch.setattr(verify, "tssc_diameter_value", lambda r: -1)
    report = run_suite("tssc")
    assert report.status == overall_status([report]) == "fail"
    assert any("closed form" in c.name for c in report.hard_failures)
    root = ET.fromstring(junit_xml([report]))
    messages = [f.get("message") for f in root.iter("failure")]
    assert messages and all(m.startswith("mismatch: ") for m in messages)


def test_a_violated_conjecture_is_reported_but_passes(
    monkeypatch, capsys, tmp_path
):
    real = verify.metric_report

    def one_more(enum):  # every radius one above the conjectured ceiling
        report = real(enum)
        return dataclasses.replace(report, radius=report.radius + 1)

    monkeypatch.setattr(verify, "metric_report", one_more)
    report = run_suite("even-d-conjecture")
    assert report.status == overall_status([report]) == "conjecture-violated"
    assert not report.hard_failures
    assert len(report.conjecture_violations) == 5
    junit = tmp_path / "report.xml"
    code, out, _ = _run(capsys, ["verify", "--suite", "even-d-conjecture",
                                 "--quiet", "--junit", str(junit)])
    assert code == 0
    assert json.loads(out)["status"] == "conjecture-violated"
    messages = [f.get("message") for f in ET.parse(junit).iter("failure")]
    assert len(messages) == 5
    assert all(m.startswith("conjecture violated: ") for m in messages)


def test_wrong_shell_is_a_recorded_failure(monkeypatch):
    real = verify.shell_ideal

    def short(k, r):
        shell = real(k, r)
        if (k, r) == (1, 2):  # S_(1,4) loses one member
            return dataclasses.replace(shell, members=shell.members[1:])
        return shell

    monkeypatch.setattr(verify, "shell_ideal", short)
    report = run_suite("cssc")
    assert report.status == "fail"
    assert [c.name for c in report.hard_failures] == [
        "r=2: furthest = furthest core + shell, composing back",
        "r=2: the (core, shell) tree rule",
        "r=3: furthest = furthest core + shell, composing back",
    ]


def _count_enumerations(monkeypatch) -> collections.Counter:
    calls = collections.Counter()
    real = verify.enumerate_ideals

    def counted(dims, cls, **kwargs):
        calls[dims, cls] += 1
        return real(dims, cls, **kwargs)

    monkeypatch.setattr(verify, "enumerate_ideals", counted)
    return calls


def test_each_run_suite_call_enumerates_afresh(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    run_suite("cssc")
    first = dict(calls)
    run_suite("cssc")
    assert first
    assert calls == {key: 2 * n for key, n in first.items()}


def test_suites_of_one_run_share_enumerations(monkeypatch):
    calls = _count_enumerations(monkeypatch)
    reports = run_all(["cssc", "cssc"])
    assert [r.status for r in reports] == ["pass", "pass"]
    assert calls and set(calls.values()) == {1}


def test_junit_xml_is_well_formed():
    reports = [run_suite("ideal-bound"), run_suite("chvatal")]
    root = ET.fromstring(junit_xml(reports))
    assert root.tag == "testsuites"
    suites = list(root)
    assert [s.get("name") for s in suites] == ["ideal-bound", "chvatal"]
    for s in suites:
        assert int(s.get("failures")) == 0
        assert s.get("skipped") is None
    assert overall_status(reports) == "pass"


# ----------------------------------------------------------------------
# CLI


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_json(capsys):
    code, out, _ = _run(capsys, ["count", "--dims", "2,3,4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 18
    assert payload["meta"]["method"] == "closed-form"
    assert payload["meta"]["dims"] == [2, 3, 4]
    assert payload["meta"]["class"] == "sc"


def test_count_text(capsys):
    code, out, _ = _run(capsys, ["count", "--dims", "2,3,4",
                                 "--format", "text"])
    assert code == 0 and out == "18\n"


def test_count_falls_back_to_closure_for_high_d(capsys):
    code, out, _ = _run(capsys, ["count", "--dims", "2,2,2,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 12
    assert payload["meta"]["method"] == "flip-closure"


def test_guard_trips_exit_one(capsys):
    code, _, err = _run(capsys, ["count", "--dims", "2,2,2,2,2,2"])
    assert code == 1
    assert "error" in err


def test_guard_override(capsys):
    code, out, _ = _run(capsys, ["count", "--dims", "2,2,2,2,2,2",
                                 "--force"])
    assert code == 0
    assert json.loads(out)["count"] == 2646


def test_enumerate_members(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--dims", "4,4",
                                 "--class", "sc"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert len(payload["vertices"]) == 6
    assert all(v["dims"] == [4, 4] for v in payload["vertices"])


def test_enumerate_heights_needs_three_dims(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--dims", "2,2", "--format", "heights"])
    assert exc.value.code == 2


def test_enumerate_checks_the_format_before_the_work(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the usage check")

    monkeypatch.setattr(cli, "enumerate_ideals", refuse)
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--dims", "2,2,2,2,2,2", "--format", "heights"])
    assert exc.value.code == 2


def test_bad_dims_usage_error(capsys):
    for bad in ("2,x", "0,4", ""):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--dims", bad])
        assert exc.value.code == 2


def test_stats_text(capsys):
    code, out, _ = _run(capsys, ["stats", "--dims", "4,4",
                                 "--format", "text"])
    assert code == 0
    assert "diameter  4" in out
    assert "radius    2" in out


def test_stats_json(capsys):
    code, out, _ = _run(capsys, ["stats", "--dims", "4,4,4",
                                 "--class", "tssc"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] == 1 and payload["radius"] == 1
    assert payload["n_vertices"] == 2


def test_graph_formats(capsys, tmp_path):
    code, out, _ = _run(capsys, ["graph", "--dims", "4,4,4",
                                 "--class", "cssc", "--format", "dot"])
    assert code == 0 and out.count(" -- ") == 3
    code, out, _ = _run(capsys, ["graph", "--dims", "4,4,4",
                                 "--class", "cssc", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "vertex_id,eccentricity"
    path = tmp_path / "g.json"
    code, out, _ = _run(capsys, ["graph", "--dims", "4,4,4",
                                 "--class", "cssc", "--format", "json",
                                 "--output", str(path)])
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert len(payload["edges"]) == 3


def test_graph_csv_builds_no_graph(capsys, monkeypatch):
    def refuse(enum):
        raise AssertionError("csv prints no edges")

    monkeypatch.setattr(cli, "build_graph", refuse)
    code, out, _ = _run(capsys, ["graph", "--dims", "4,4,4",
                                 "--class", "cssc", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["0,2", "1,1", "2,2", "3,2"]  # hub 1


def test_extremal_staircase_heights(capsys):
    code, out, _ = _run(capsys, ["extremal", "--name", "c2r", "--r", "2",
                                 "--format", "heights"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ideals"][0]["heights"] == [
        [4, 4, 3, 2], [4, 3, 2, 1], [3, 2, 1, 0], [2, 1, 0, 0]]


def test_extremal_shell_and_pair(capsys):
    code, out, _ = _run(capsys, ["extremal", "--name", "shell",
                                 "--r", "2", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ideals"][0]["note"].startswith("boundary member set")
    code, out, _ = _run(capsys, ["extremal", "--name", "tssc-extremes",
                                 "--r", "3"])
    assert code == 0
    assert len(json.loads(out)["ideals"]) == 2


def test_extremal_halfspace_axis_is_one_based(capsys):
    code, out, _ = _run(capsys, ["extremal", "--name", "halfspace",
                                 "--dims", "2,3,4", "--axis", "3",
                                 "--format", "heights"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ideals"][0]["heights"] == [[2, 2, 2]] * 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["extremal", "--name", "halfspace",
                  "--dims", "2,3,4", "--axis", "4"])
    assert exc.value.code == 2


def test_extremal_tssc_extremes_refuses_r_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["extremal", "--name", "tssc-extremes", "--r", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "r must be >= 1" in err and "dimensions" not in err


def test_extremal_refuses_an_option_its_construction_does_not_take(capsys):
    # c2r lives on [2r]^3: a --dims beside it used to be echoed in meta
    for argv, flag in (
        (["--name", "c2r", "--r", "2", "--dims", "2,2"], "--dims"),
        (["--name", "pyramid", "--r", "2", "--k", "1"], "--k"),
        (["--name", "majority", "--dims", "2,4,6", "--axis", "1"], "--axis"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["extremal", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"does not take {flag}" in err, argv


def test_extremal_axis_without_dims_names_the_missing_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["extremal", "--name", "halfspace", "--axis", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--axis needs --dims" in err
    assert "1..0" not in err


def test_enumerate_cap_bounds_the_closure(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--dims", "2,3,4",
                                 "--cap", "18"])
    assert code == 0 and json.loads(out)["count"] == 18
    code, _, err = _run(capsys, ["enumerate", "--dims", "2,3,4",
                                 "--cap", "0"])
    assert code == 1 and "exceeded cap=0" in err


def test_enumerate_refuses_a_negative_cap_before_the_work(
    capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the usage check")

    monkeypatch.setattr(cli, "enumerate_ideals", refuse)
    for bad in ("-1", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "--dims", "2,3,4", "--cap", bad])
        assert exc.value.code == 2
    assert "--cap must be non-negative" in capsys.readouterr().err


def test_extremal_heights_needs_a_three_dimensional_ideal(capsys):
    for argv, message in (
        (["--name", "shell", "--r", "2", "--k", "1"],
         "'shell' is a member set"),
        (["--name", "halfspace", "--dims", "2,2", "--axis", "1"],
         "only defined for three dimensions"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(["extremal", *argv, "--format", "heights"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_extremal_missing_params_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["extremal", "--name", "shell", "--r", "3"])
    assert exc.value.code == 2


def test_verify_single_suite(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    junit_path = tmp_path / "report.xml"
    code, out, err = _run(capsys, [
        "verify", "--suite", "ideal-bound", "--quiet",
        "--output", str(out_path), "--junit", str(junit_path)])
    assert code == 0
    assert out == "" and err == ""
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "pass"
    assert [s["suite"] for s in payload["suites"]] == ["ideal-bound"]
    root = ET.fromstring(junit_path.read_text())
    assert root.tag == "testsuites"


def test_verify_progress_on_stderr(capsys):
    code, out, err = _run(capsys, ["verify", "--suite", "chvatal"])
    assert code == 0
    assert re.search(r"suite chvatal: pass \(\d+ pass, 0 fail; [\d.]+s\)", err)
    assert json.loads(out)["status"] == "pass"


def test_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["enumerate", "--dims", "2,3,4",
                         "--output", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_odd_volume_is_a_clean_error(capsys):
    code, _, err = _run(capsys, ["enumerate", "--dims", "3,3,5"])
    assert code == 1
    assert "no sc ideals" in err
