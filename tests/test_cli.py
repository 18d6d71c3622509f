import json
import os

import pytest

from cumulift.cli import cli_main
from cumulift.fixtures import FIXTURE_FILES, FIXTURE_SM


@pytest.fixture
def sm_path(tmp_path):
    path = tmp_path / "fixture.sm"
    path.write_text(FIXTURE_SM)
    return str(path)


def run_cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfer:
    def test_json_report_on_stdout(self, capsys, sm_path):
        code, out, err = run_cli(capsys, ["infer", sm_path, "--format", "psplib-sm"])
        assert code == 0
        doc = json.loads(out)
        assert doc["searchless_lb"] == 3
        assert "inference finished" in err

    def test_format_detection_from_extension(self, capsys, sm_path):
        code, out, _ = run_cli(capsys, ["infer", sm_path])
        assert code == 0
        assert json.loads(out)["instance"] == "fixture"

    def test_out_file(self, capsys, sm_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["infer", sm_path, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["searchless_lb"] == 3

    def test_text_format(self, capsys, sm_path):
        code, out, _ = run_cli(capsys, ["infer", sm_path, "--report-format", "text"])
        assert code == 0
        assert "New bound" in out

    def test_deterministic_output(self, capsys, sm_path):
        _, first, _ = run_cli(capsys, ["infer", sm_path])
        _, second, _ = run_cli(capsys, ["infer", sm_path])
        assert first == second

    def test_unknown_flag_is_usage_error(self, capsys, sm_path):
        code, _, err = run_cli(capsys, ["infer", sm_path, "--bogus"])
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_subcommand(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1

    @pytest.mark.parametrize(
        "command, filename, content",
        [
            ("infer", "broken.sm", b"this is not an instance"),
            ("infer", "latin1.sm", "Vorgang \u00c4".encode("latin-1")),
            ("infer", "task.json", json.dumps({"tasks": [5]}).encode()),
            ("infer", "resource.json", json.dumps({"resources": [5]}).encode()),
            ("infer", "precedence.json", json.dumps({"precedences": ["x"]}).encode()),
            ("check", "report.json", json.dumps({
                "schema": "cumulift-report/1",
                "constraints": [{"capacity": 1}],
                "searchless_lb": 0,
            }).encode()),
            ("infer", "many.rcp", b"99999999999 1\n5\n0 0 0\n"),
            ("infer", "many.sm", FIXTURE_SM.replace(
                "sink ):  6", "sink ):  99999999999").encode()),
            ("infer", "huge.json", json.dumps({
                "tasks": [{"duration": 1, "demands": [1]}],
                "resources": [{"capacity": 99999999999999999999999}],
            }).encode()),
            ("infer --report-format text", "named.json", json.dumps({
                "name": 5,
                "tasks": [{"duration": 1, "demands": [1]}],
                "resources": [{"capacity": 1}],
            }).encode()),
            ("check", "report.json", json.dumps({
                "schema": "cumulift-report/1",
                "constraints": [{
                    "usages": [[1, 10**23], [2, 1]], "capacity": 10**23,
                    "capacity_bound": "1", "capacity_lb": 1,
                    "source_cover": [1, 2], "rule": "binary",
                }],
                "searchless_lb": 0,
            }).encode()),
        ],
        ids=["garbage-sm", "non-utf8", "task-not-object", "resource-not-object",
             "precedence-not-object", "report-without-usages", "rcp-job-count",
             "sm-job-count", "huge-capacity", "name-not-string", "huge-usage"],
    )
    def test_malformed_input_maps_to_2(self, capsys, tmp_path, sm_path,
                                       command, filename, content):
        # ``command`` holds the CLI words that go before the file.
        path = tmp_path / filename
        path.write_bytes(content)
        argv = command.split() + [str(path)]
        if argv[0] == "check":
            argv += ["--instance", sm_path]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_maps_to_2(self, capsys):
        code, _, _ = run_cli(capsys, ["infer", "/nonexistent/file.sm"])
        assert code == 2

    def test_infeasible_instance_maps_to_3(self, capsys, tmp_path):
        doc = {
            "name": "overload",
            "kind": "RCPSP",
            "tasks": [{"duration": 1, "demands": [9]}],
            "resources": [{"capacity": 7}],
            "precedences": [],
        }
        path = tmp_path / "overload.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 3


class TestOtherCommands:
    def test_bound(self, capsys, sm_path):
        code, out, _ = run_cli(capsys, ["bound", sm_path])
        assert code == 0
        assert "searchless_lb: 3" in out
        assert "precedence_lb: 2" in out

    def test_graph(self, capsys, sm_path):
        code, out, _ = run_cli(capsys, ["graph", sm_path])
        assert code == 0
        assert out.startswith("graph parallelism {")
        assert "t2 -- t3" in out

    def test_emit_without_report_runs_pipeline(self, capsys, sm_path):
        code, out, _ = run_cli(capsys, ["emit", sm_path])
        assert code == 0
        assert "constraint cumulative(start, [0, 1, 1, 1, 2, 0]," in out

    def test_emit_from_report(self, capsys, sm_path, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, ["infer", sm_path, "--out", str(report_path)])
        code, out, _ = run_cli(
            capsys, ["emit", sm_path, "--report", str(report_path)]
        )
        assert code == 0
        assert out.count("constraint cumulative(") == out.count("\n")
        _, rerun, _ = run_cli(capsys, ["emit", sm_path])
        assert out == rerun

    def test_emit_rejects_negative_report_usage(self, capsys, sm_path, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, ["infer", sm_path, "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        doc["constraints"][0]["usages"][0][1] = -3
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["emit", sm_path, "--report", str(report_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_check_accepts_valid_report(self, capsys, sm_path, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, ["infer", sm_path, "--out", str(report_path)])
        code, out, _ = run_cli(
            capsys, ["check", str(report_path), "--instance", sm_path]
        )
        assert code == 0
        assert "valid" in out

    def test_check_rejects_tampered_report(self, capsys, sm_path, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, ["infer", sm_path, "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        # Tighten (1,1,1,1) <= 2 to capacity 1: well-formed but invalid.
        four = next(c for c in doc["constraints"] if len(c["usages"]) == 4)
        four["capacity"] = 1
        report_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, ["check", str(report_path), "--instance", sm_path]
        )
        assert code == 4
        assert "VIOLATED" in out

    def test_check_rejects_malformed_constraint(self, capsys, sm_path, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, ["infer", sm_path, "--out", str(report_path)])
        doc = json.loads(report_path.read_text())
        doc["constraints"][0]["capacity"] = 0  # below its own usages
        report_path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, ["check", str(report_path), "--instance", sm_path]
        )
        assert code == 2
        assert "may not exceed" in err

    def test_seed_fixtures(self, capsys, tmp_path):
        target = tmp_path / "seeded"
        code, _, err = run_cli(capsys, ["--seed-fixtures", str(target)])
        assert code == 0
        assert sorted(os.listdir(target)) == sorted(FIXTURE_FILES)
        code, out, _ = run_cli(capsys, ["infer", str(target / "fixture.rcp")])
        assert code == 0
        assert json.loads(out)["searchless_lb"] == 3
