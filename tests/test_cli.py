import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdtds import CyclicSubgroup, ball_enumerate, ball_size, circle, cli
from mdtds.circle import PeriodicSetVerdict
from mdtds.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBall:
    def test_row_counts(self, capsys):
        code, out, err = run(capsys, "ball", "--s", "2", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 5
        assert lines[0] == "word,length,parent,letter"
        assert "5 words" in err

    def test_radius_zero(self, capsys):
        code, out, _ = run(capsys, "ball", "--s", "2", "--n", "0")
        assert code == 0
        assert out.strip().splitlines()[1:] == ["e,0,,"]

    def test_three_generators(self, capsys):
        code, out, _ = run(capsys, "ball", "--s", "3", "--n", "2")
        assert code == 0
        # (6 * 5^2 - 2) / 4 = 37 words
        assert len(out.strip().splitlines()) == 1 + 37

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "ball", "--s", "2", "--n", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [row["word"] for row in payload] == \
            ["e", "s1", "s1^-1", "s2", "s2^-1"]

    @pytest.mark.parametrize("n_gens", [1, 2, 3])
    def test_rows_match_the_enumerated_nodes(self, capsys, n_gens):
        for radius in range(6):
            rows = [[str(node.word), node.word.length,
                     "" if node.parent is None else str(node.parent),
                     "" if node.letter is None else str(node.letter)]
                    for node in ball_enumerate(radius, n_gens)]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [["word", "length", "parent", "letter"]] + rows)
            argv = ["ball", "--s", str(n_gens), "--n", str(radius)]
            assert run(capsys, *argv) == (0, buf.getvalue(), f"{len(rows)} words\n")
            payload = [{"word": w, "length": n, "parent": p or None,
                        "letter": s or None} for w, n, p, s in rows]
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")


class TestOrbit:
    def test_bank_values(self, capsys):
        code, out, _ = run(capsys, "orbit", "--model", "bank", "--q", "2,3",
                           "--x", "1", "--n", "1")
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert rows == {"e": "1", "s1": "2", "s1^-1": "1/2",
                        "s2": "3", "s2^-1": "1/3"}

    def test_circle_values(self, capsys):
        code, out, _ = run(capsys, "orbit", "--model", "circle",
                           "--theta", "1/2,1/3", "--x", "0", "--n", "1")
        assert code == 0
        values = sorted(line.split(",")[1]
                        for line in out.strip().splitlines()[1:])
        assert values == sorted(["0", "1/2", "1/2", "1/3", "2/3"])

    def test_identity_constant_column(self, capsys):
        code, out, _ = run(capsys, "orbit", "--model", "identity", "--s", "2",
                           "--x", "3/7", "--n", "2")
        assert code == 0
        values = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
        assert values == {"3/7"}


class TestCesaro:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "cesaro", "--model", "bank", "--q", "2,3",
                           "--x", "1", "--nmax", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,ball_size,ball_sum,C_n"
        assert lines[1] == "0,1,1,1"
        assert lines[2] == "1,5,41/6,41/30"

    def test_threads_flag_identical_output(self, capsys):
        _, base, _ = run(capsys, "cesaro", "--model", "bank", "--q", "2,3",
                         "--x", "1", "--nmax", "6")
        _, threaded, _ = run(capsys, "cesaro", "--model", "bank", "--q", "2,3",
                             "--x", "1", "--nmax", "6", "--threads", "8")
        assert base == threaded

    def test_large_radius_runs_by_recurrence(self, capsys):
        code, out, _ = run(capsys, "cesaro", "--model", "bank", "--q", "2,3",
                           "--x", "1", "--nmax", "1000")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("1000,")

    def test_radius_past_the_int_text_limit(self, capsys):
        # exact sums past 4,300 digits print in full; the process-wide
        # int-to-text limit stays as it was
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        code, out, _ = run(capsys, "cesaro", "--model", "bank", "--q", "2,3",
                           "--x", "1", "--nmax", "3000")
        assert code == 0
        assert out.splitlines()[-1].startswith("3000,")
        assert limit() == before


class TestVerdicts:
    def test_fixed_set_circle(self, capsys):
        code, out, _ = run(capsys, "fixed", "--model", "circle",
                           "--theta", "1,2")
        assert code == 0
        assert json.loads(out)["set"]["kind"] == "full"

    def test_fixed_point_residual(self, capsys):
        code, out, _ = run(capsys, "fixed", "--model", "bank", "--q", "2,3",
                           "--x", "1")
        payload = json.loads(out)
        assert code == 0 and payload["fixed"] is False
        assert payload["residual"] == "2"

    def test_h_fixed_verdict(self, capsys):
        code, out, _ = run(capsys, "fixed", "--model", "circle",
                           "--theta", "1/2,1/3", "--subgroup", "cyclic:s1^2",
                           "--x", "1/5", "--depth", "4")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"]["type"] == "verified_up_to"

    def test_periodic_set_bank(self, capsys):
        code, out, _ = run(capsys, "periodic", "--model", "bank", "--q", "2,3",
                           "--subgroup", "bal:", "--depth", "3")
        payload = json.loads(out)
        assert code == 0 and payload["set"]["kind"] == "all_positive_reals"

    def test_periodic_point_verdict_round_trips(self, capsys):
        code, out, _ = run(capsys, "periodic", "--model", "circle",
                           "--theta", "1/2,1/3", "--subgroup", "cyclic:s1",
                           "--x", "1/5", "--depth-t", "3", "--depth-r", "3")
        payload = json.loads(out)
        assert code == 0
        verdict = payload["verdict"]
        assert verdict["type"] == "counterexample"
        assert json.loads(json.dumps(verdict)) == verdict


# Exact stdout of verdict commands: key order, indentation, rationals as
# ``p/q`` text and floats as their shortest round-trip ``repr``.
VERDICT_JSON = [
    ("fixed --model circle --theta 1/2,1/3", """\
{
  "model": "circle",
  "set": {
    "kind": "empty",
    "witness_index": 1,
    "certified": true
  }
}
"""),
    ("fixed --model bank --q 2,3", """\
{
  "model": "bank",
  "set": {
    "kind": "empty",
    "reason": "all rates exceed 1"
  }
}
"""),
    ("fixed --model bank --q 2,3 --x 1", """\
{
  "model": "bank",
  "point": "1",
  "residual": "2",
  "fixed": false
}
"""),
    ("fixed --model circle --theta 1/3,1/5 --subgroup even:1,2 --x 1/7 --depth 5", """\
{
  "model": "circle",
  "point": "1/7",
  "subgroup": "even:1,2",
  "verdict": {
    "type": "counterexample",
    "t": "e",
    "r": "s1^2",
    "lhs": "1/7",
    "rhs": "17/21"
  }
}
"""),
    ("fixed --model circle --theta 0.2,0.3:approx --x 0.1 --subgroup cyclic:s1 "
     "--depth 2", """\
{
  "model": "circle",
  "point": "0.1",
  "subgroup": "cyclic:s1",
  "verdict": {
    "type": "counterexample",
    "t": "e",
    "r": "s1",
    "lhs": "0.1",
    "rhs": "0.30000000000000004"
  }
}
"""),
    ("periodic --model bank --q 2,3 --subgroup even:1,2 --depth 5", """\
{
  "model": "bank",
  "subgroup": "even:1,2",
  "set": {
    "kind": "empty",
    "witness": "s1^2",
    "multiplier": "4",
    "depth": null
  }
}
"""),
    ("periodic --model circle --theta 0.5,0.3:approx --subgroup cyclic:s1^2 --depth 3", """\
{
  "model": "circle",
  "subgroup": "cyclic:s1^2",
  "set": {
    "kind": "undecided",
    "witness": null,
    "rotation": null,
    "certified": false,
    "note": "generator rotation is integral at tolerance only"
  }
}
"""),
    ("periodic --model circle --theta 0.5,0.3:approx --subgroup cyclic:s1 --depth 3", """\
{
  "model": "circle",
  "subgroup": "cyclic:s1",
  "set": {
    "kind": "empty",
    "witness": "s1",
    "rotation": "0.5",
    "certified": false,
    "note": ""
  }
}
"""),
    ("periodic --model circle --theta 1/2,1/3 --subgroup cyclic:s1 --x 1/5 "
     "--depth-t 3 --depth-r 3", """\
{
  "model": "circle",
  "subgroup": "cyclic:s1",
  "point": "1/5",
  "verdict": {
    "type": "counterexample",
    "t": "e",
    "r": "s1",
    "lhs": "1/5",
    "rhs": "7/10"
  }
}
"""),
]


@pytest.mark.parametrize("command, expected", VERDICT_JSON)
def test_verdict_json_bytes(capsys, command, expected):
    assert run(capsys, *command.split())[:2] == (0, expected)


class TestPaper:
    def test_single_item(self, capsys):
        code, out, _ = run(capsys, "paper", "--item", "thm6.1")
        assert code == 0
        assert out.startswith("PASS [thm6.1]")

    def test_sign_item_with_parameters(self, capsys):
        code, out, _ = run(capsys, "paper", "--item", "ex3.9", "--q", "4",
                           "--nmax", "8")
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("q", ["5", "2", "-4"])
    def test_sign_study_refuses_a_degree_that_is_not_even_and_at_least_4(
            self, capsys, q):
        code, out, err = run(capsys, "paper", "--item", "ex3.9", "--q", q)
        assert code == 1 and out == ""
        assert err.count("error: ") == 1
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_sign_study_refuses_a_radius_below_one(self, n_max):
        from mdtds import repro
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            repro.run_item("ex3.9", n_max=n_max)

    def test_sign_study_at_radius_one(self):
        from mdtds import repro
        assert repro.run_item("ex3.9", n_max=1).passed

    @pytest.mark.parametrize("argv", [
        ("--item", "thm6.1", "--q", "5"),
        ("--item", "ex3.9", "--theta", "1/3"),
        ("--item", "thm6.2", "--q", "2,3"),
        ("--item", "prop5.1", "--nmax", "3"),
        ("--item", "ex4.4", "--q", "2,3"),
        ("--item", "all", "--q", "4"),
    ])
    def test_refuses_an_option_the_item_does_not_read(self, capsys, argv):
        code, out, err = run(capsys, "paper", *argv)
        assert code == 1 and out == ""
        assert err.count("error: ") == 1 and err.startswith("error: ")

    def test_fixed_set_item_reads_the_angles(self, capsys):
        code, out, _ = run(capsys, "paper", "--item", "thm6.1", "--theta", "1,1/3")
        assert code == 0 and out.startswith("PASS")
        assert "non-integer angle (index 2)" in out

    @pytest.mark.parametrize("theta", ["1/3,1/4", "1,2", "1/4", "2/3,1/5,1/7"])
    @pytest.mark.parametrize("item", ["thm6.1", "thm6.2", "thm6.3"])
    def test_rotation_items_check_the_given_angles(self, capsys, item, theta):
        code, out, err = run(capsys, "paper", "--item", item, "--theta", theta)
        assert (code, err) == (0, "")
        assert out.startswith(f"PASS [{item}]") and "BAD" not in out

    @pytest.mark.parametrize("theta", [(), ("--theta", "1/3,1/4"),
                                       ("--theta", "1,2")])
    @pytest.mark.parametrize("item, name, wrong", [
        # every verdict flipped between full and empty
        ("thm6.2", "periodic_set", lambda answer: lambda *args: PeriodicSetVerdict(
            "empty" if answer(*args).kind == "full" else "full")),
        # s1^(2m): still fully periodic, but not the generator the theory names
        ("thm6.3", "rational_period_subgroup", lambda answer: lambda family, gen:
            CyclicSubgroup(answer(family, gen).generator_word ** 2)),
    ])
    def test_rotation_items_fail_on_a_wrong_library_answer(
            self, capsys, monkeypatch, item, name, wrong, theta):
        monkeypatch.setattr(circle, name, wrong(getattr(circle, name)))
        code, out, err = run(capsys, "paper", "--item", item, *theta)
        assert code == 0 and out.startswith(f"FAIL [{item}]")
        assert f"failing items: {item}" in err

    def test_all_items_pass(self, capsys):
        code, out, _ = run(capsys, "paper")
        assert code == 0
        statuses = [line.split()[0] for line in out.splitlines()
                    if line and not line.startswith(" ")]
        assert statuses and set(statuses) == {"PASS"}


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "orbit", "--model", "bank", "--x", "1",
                           "--n", "1")
        assert code == 1 and "error" in err

    def test_bad_word_text(self, capsys):
        code, _, _ = run(capsys, "periodic", "--model", "bank", "--q", "2,3",
                         "--subgroup", "cyclic:zz", "--depth", "2")
        assert code == 1

    def test_node_cap(self, capsys):
        # refused up front, so the message names the whole ball's size
        for command in (["ball", "--s", "2"],
                        ["orbit", "--model", "bank", "--q", "2,3", "--x", "1"]):
            code, out, err = run(capsys, *command, "--n", "10", "--node-cap", "100")
            assert code == 2 and "cap" in err and out == ""
            assert f"needs {ball_size(10, 2)} nodes" in err
            # |V_10000| has 4,772 digits: the message bounds it instead
            code, out, err = run(capsys, *command, "--n", "10000", "--node-cap", "100")
            assert code == 2 and out == ""
            assert f"needs more than {2 ** 64} nodes, cap is 100" in err

    def test_domain_violation(self, capsys):
        code, _, _ = run(capsys, "orbit", "--model", "bank", "--q", "2,3",
                         "--x", "-1", "--n", "1")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("ball", "--s", "2", "--n", "-1"),
        ("orbit", "--model", "bank", "--q", "2,3", "--x", "1", "--n", "-2"),
        ("cesaro", "--model", "bank", "--q", "2,3", "--x", "1",
         "--nmax", "-1"),
        ("fixed", "--model", "bank", "--q", "2,3", "--x", "1",
         "--subgroup", "even:1,2", "--depth", "-1"),
        ("periodic", "--model", "bank", "--q", "2,3",
         "--subgroup", "even:1,2", "--depth", "0"),
        ("periodic", "--model", "bank", "--q", "2,3", "--x", "1",
         "--subgroup", "even:1,2", "--depth-r", "0"),
        ("paper", "--item", "ex3.9", "--nmax", "0"),
        ("ball", "--s", "0", "--n", "1"),
        ("ball", "--s", "2", "--n", "1", "--node-cap", "0"),
        ("cesaro", "--model", "bank", "--q", "2,3", "--x", "1",
         "--nmax", "1", "--node-cap", "-1"),
    ])
    def test_out_of_range_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines()[-1].startswith("error: argument --")

    @pytest.mark.parametrize("theta, x, expected", [
        ("0.4,0.6:approx", "nan", 3),
        ("0.4,0.6:approx", "inf", 3),
        ("nan,0.6:approx", "0.1", 1),
        ("inf:approx", "0.1", 1),
    ])
    def test_non_finite_inputs(self, capsys, theta, x, expected):
        code, _, err = run(capsys, "cesaro", "--model", "circle",
                           "--theta", theta, "--x", x, "--nmax", "3")
        assert code == expected and err.startswith("error: ")

    def test_info(self, capsys):
        code, out, _ = run(capsys, "info")
        payload = json.loads(out)
        assert code == 0 and set(payload) == {"version", "kernel_backend"}
        assert payload["kernel_backend"] == "python"


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "ball.csv"
        code, out, _ = run(capsys, "ball", "--s", "2", "--n", "1",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().strip().splitlines()) == 6

    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "ball.csv"
        code, out, err = run(capsys, "ball", "--s", "2", "--n", "1",
                             "--output", str(target))
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            [f"error: cannot write {target}: No such file or directory"]
        assert "Traceback" not in err


class TestClosedStdout:
    """A reader that stops early (``mdtds paper | head -1``) ends the
    command quietly with exit 0, whether the lost output was written during
    the command or was still buffered when it returned."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ("info",),
        ("paper", "--item", "thm6.1"),
        ("ball", "--s", "2", "--n", "1"),
    ])
    def test_exit_zero_without_a_traceback(self, argv, unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # buffered, the output is lost at the flush after the command;
        # unbuffered, at the write inside it
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "mdtds.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 0, err
        assert "Traceback" not in err and "Exception ignored" not in err


class TestRepeatedCalls:
    """Several ``main`` calls in one process share one parser."""

    def test_usage_error_then_a_valid_command(self, capsys):
        code, out, err = run(capsys, "ball", "--s", "2")
        assert code == 1 and out == "" and "error" in err
        code, out, err = run(capsys, "ball", "--s", "2", "--n", "1")
        assert code == 0 and len(out.splitlines()) == 6 and "5 words" in err

    def test_output_file_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "ball.csv"
        code, out, _ = run(capsys, "ball", "--s", "2", "--n", "1",
                           "--output", str(target))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "ball", "--s", "2", "--n", "1")
        assert code == 0 and out == target.read_text()

    def test_output_matches_a_fresh_parser(self, capsys):
        commands = [
            ["ball", "--s", "2", "--n", "2"],
            ["orbit", "--model", "circle", "--theta", "1/3,2/7", "--x", "1/5",
             "--n", "2"],
        ]
        shared = [run(capsys, *argv)[:2] for argv in commands]
        fresh = []
        for argv in commands:
            args = build_parser().parse_args(argv)
            code = args.func(args)
            fresh.append((code, capsys.readouterr().out))
        assert shared == fresh

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = cli._Parser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)
        monkeypatch.setattr(cli._Parser, "parse_args", spy)
        run(capsys, "info")
        run(capsys, "ball", "--s", "1", "--n", "1")
        run(capsys, "orbit", "--model", "bank", "--x", "1", "--n", "1")
        assert len(parsers) == 3
        assert all(p is parsers[0] for p in parsers)
        assert build_parser() is not build_parser()
