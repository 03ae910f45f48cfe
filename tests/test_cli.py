import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tameapprox import arithmetic, cli
from tameapprox.arithmetic import Certificate, certify
from tameapprox.cli import main
from tameapprox.finite_groups import builtin_group
from tameapprox.zmod_linalg import NotInSpanError, QuotientPresentation

from random_modules import sweep_modules

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "certificate.schema.json"
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
REPO_DIR = Path(__file__).resolve().parent.parent
# command printouts pinned byte for byte: file under tests/golden -> argv; the
# A5 group file is named relative to the repository root, as in CI
CLI_GOLDENS = {
    "h1_klein4_aug.json": ["h1", "--group", "builtin:klein4", "--module", "aug"],
    "h1_q8_aug.json": ["h1", "--group", "builtin:q8", "--module", "aug"],
    "h1_zlxzln_2_3_ring.json": ["h1", "--group", "builtin:zlxzln:2:3", "--module", "ring"],
    "h1_s3_trivial_6.json": ["h1", "--group", "builtin:s3", "--module", "trivial:6"],
    "h1_a5_aug.json": ["h1", "--group", "tests/golden/a5.json", "--module", "aug"],
    "h1_klein4_aug.txt": ["h1", "--group", "builtin:klein4", "--module", "aug",
                          "--format", "table"],
    "sha_cyc_q8_aug.json": ["sha-cyc", "--group", "builtin:q8", "--module", "aug"],
    "sha_cyc_z8_aug.json": ["sha-cyc", "--group", "builtin:z8", "--module", "aug"],
    "verify_lemma_z2xz4.json": ["verify-lemma", "--group", "builtin:z2xz4"],
    "verify_lemma_z8.json": ["verify-lemma", "--group", "builtin:z8"],
    "dimension_shift_s3_all.json": ["dimension-shift", "--group", "builtin:s3",
                                    "--all-subgroups"],
    "sigma0_3_17.json": ["sigma0", "--a", "3", "--b", "17"],
    "sigma0_3_17.txt": ["sigma0", "--a", "3", "--b", "17", "--format", "table"],
    "certify_2_1_3.txt": ["certify", "--ell", "2", "--n", "1", "--p", "3", "--format", "table"],
    "certify_2_1_2147483647.json": ["certify", "--ell", "2", "--n", "1", "--p", "2147483647"],
    "sigma0_2147483647_41.json": ["sigma0", "--a", "2147483647", "--b", "41"],
    "find_params_3_1.json": ["find-params", "--ell", "3", "--n", "1"],
}


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCertifyCommand:
    def test_flagship_json(self, capsys):
        status, out, _ = run_cli(capsys, "certify", "--ell", "2", "--n", "1", "--p", "3")
        assert status == 0
        report = json.loads(out)
        assert report["parameters"]["q"] == "17"
        assert report["sigma0"]["labels"] == ["3", "17"]
        assert report["sha"]["sigma0"] == ["2"]
        assert report["sha"]["full"] == []
        assert report["conclusion"] == "certified"

    def test_schema_validates(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for argv in (
            ["certify", "--ell", "2", "--n", "1", "--p", "3"],
            ["certify", "--ell", "3", "--n", "1", "--p", "7"],
            ["certify", "--ell", "2", "--n", "1", "--p", "3", "--q", "15"],
        ):
            _, out, _ = run_cli(capsys, *argv)
            jsonschema.validate(json.loads(out), schema)

    def test_order_25(self, capsys):
        status, out, _ = run_cli(capsys, "certify", "--ell", "5", "--n", "1", "--p", "11")
        assert status == 0
        report = json.loads(out)
        assert report["conclusion"] == "certified"
        assert report["sha"]["cyc"] == ["5"]

    def test_refuted_exit_code(self, capsys):
        status, out, _ = run_cli(capsys, "certify", "--ell", "2", "--n", "1",
                                 "--p", "3", "--q", "15")
        assert status == 1
        assert json.loads(out)["conclusion"] == "refuted: q_prime"

    def test_late_refutation(self, capsys, monkeypatch):
        # every hypothesis holds, and then a cohomology check fails: the one
        # refutation that comes after the place model, still a verification
        # (exit 1) with a certificate that meets the schema
        from tameapprox.zmod_linalg import AbGroupStructure
        shift = arithmetic.dimension_shift_check

        def broken_shift(group):
            first, *rest = shift(group)
            return [first._replace(ring_h1=AbGroupStructure([2])), *rest]

        monkeypatch.setattr(arithmetic, "dimension_shift_check", broken_shift)
        status, out, err = run_cli(capsys, "certify", "--ell", "2", "--n", "1", "--p", "3")
        assert (status, err) == (1, "")
        report = json.loads(out)
        assert report["conclusion"] == "refuted: dimension_shift"
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["dimension_shift"]
        assert report["sha"]["sigma0"] == ["2"]  # the later checks still ran
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))

    def test_prime_above_64_bits_is_an_input_error(self, capsys):
        big = str(2 ** 64 + 13)  # the least prime above 2**64
        for argv in (["certify", "--ell", "2", "--n", "1", "--p", big],
                     ["certify", "--ell", "2", "--n", "1", "--p", "3", "--q", big],
                     ["certify", "--ell", big, "--n", "1", "--p", "3"],
                     ["find-params", "--ell", "2", "--n", "1", "--p", big]):
            status, out, err = run_cli(capsys, *argv)
            assert (status, out) == (2, ""), argv
            assert err == "error: is_prime is only deterministic up to 2**64\n", argv

    def test_negative_ell_is_refuted(self, capsys):
        status, out, _ = run_cli(capsys, "certify", "--ell", "-3", "--n", "1", "--p", "7")
        assert status == 1
        assert json.loads(out)["conclusion"] == "refuted: ell_prime"

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "certify", "--ell", "2", "--n", "1", "--p", "5")
        _, second, _ = run_cli(capsys, "certify", "--ell", "2", "--n", "1", "--p", "5")
        assert first == second

    def test_golden_certificates(self, capsys):
        # the canonical JSON is pinned: stdout must equal the committed files
        goldens = sorted(GOLDEN_DIR.glob("certify_*_*_*.json"))
        assert len(goldens) == 3
        for path in goldens:
            ell, n, p = path.stem.split("_")[1:]
            status, out, _ = run_cli(capsys, "certify", "--ell", ell, "--n", n, "--p", p)
            assert status == 0
            assert out.encode() == path.read_bytes(), path.name

    def test_to_json_dict_is_the_printed_certificate(self, capsys):
        for path in sorted(GOLDEN_DIR.glob("certify_*_*_*.json")):
            ell, n, p = map(int, path.stem.split("_")[1:])
            _, out, _ = run_cli(capsys, "certify", "--ell", str(ell), "--n", str(n), "--p", str(p))
            assert certify(ell, n, p).to_json_dict() == json.loads(out), path.name

    def test_json_is_written_in_one_pass(self, capsys, monkeypatch):
        # the CLI writes a certificate straight from its native values: no
        # stdlib encoder, and no dict form of the certificate on the way
        def refuse(*args, **kwargs):
            raise AssertionError("the CLI must not take this path")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
        monkeypatch.setattr(Certificate, "to_json_dict", refuse)
        assert not hasattr(arithmetic, "_jsonify") and not hasattr(cli, "_jsonify")
        argv = ["certify", "--ell", "2", "--n", "1", "--p", "3"]
        for golden, extra in ((GOLDEN_DIR / "certify_2_1_3.json", []),
                              (REPO_DIR / "tests" / "golden" / "certify_2_1_3.txt",
                               ["--format", "table"])):
            status, out, err = run_cli(capsys, *argv, *extra)
            assert (status, err) == (0, ""), golden.name
            assert out.encode() == golden.read_bytes(), golden.name

    def test_golden_command_outputs(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_DIR)
        golden_dir = REPO_DIR / "tests" / "golden"
        # every golden but the demo printouts, the A5 group file and the
        # elimination work counts is a command's
        assert sorted(p.name for p in golden_dir.iterdir()
                      if not p.name.startswith("demo_")
                      and p.name not in ("a5.json", "work_counts.json")) == \
            sorted(CLI_GOLDENS)
        for name, argv in CLI_GOLDENS.items():
            status, out, err = run_cli(capsys, *argv)
            assert (status, err) == (0, ""), name
            assert out.encode() == (golden_dir / name).read_bytes(), name

    def test_table_marks_a_partial_sigma0_only_with_its_statement(self, capsys):
        # ell = 4 is refuted before the place model runs, so there is no statement
        status, out, _ = run_cli(capsys, "certify", "--ell", "4", "--n", "1", "--p", "5",
                                 "--format", "table")
        assert status == 1
        assert "\nSigma_0: {}\n" in out and "partial" not in out
        status, out, _ = run_cli(capsys, "certify", "--ell", "3", "--n", "1", "--p", "7",
                                 "--format", "table")
        assert status == 0
        assert "\nSigma_0: {over-7-1, over-7-2}  (partial: Sigma_0 contains all 2 places" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        status, out, _ = run_cli(capsys, "certify", "--ell", "2", "--n", "1",
                                 "--p", "3", "--output", str(target))
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text())["conclusion"] == "certified"


class TestVerificationCommands:
    def test_verify_lemma_s3(self, capsys):
        status, out, _ = run_cli(capsys, "verify-lemma", "--group", "builtin:s3")
        assert status == 0
        report = json.loads(out)
        assert report["computed"] == [] == report["expected"]
        assert report["pass"] is True

    def test_verify_lemma_table(self, capsys):
        status, out, _ = run_cli(capsys, "verify-lemma", "--group", "builtin:q8",
                                 "--format", "table")
        assert status == 0
        assert "computed Sha^1_cyc(G, I): Z/2" in out
        assert out.strip().endswith("PASS")

    def test_h1_klein_aug(self, capsys):
        status, out, _ = run_cli(capsys, "h1", "--group", "builtin:klein4",
                                 "--module", "aug")
        assert status == 0
        report = json.loads(out)
        assert report["structure"] == ["4"]
        assert len(report["cocycles"]) == 1
        values = report["cocycles"][0]["values"]
        assert set(values) == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}

    def test_sha_cyc_command(self, capsys):
        status, out, _ = run_cli(capsys, "sha-cyc", "--group", "builtin:z2xz2xz2",
                                 "--module", "aug")
        assert status == 0
        assert json.loads(out)["structure"] == ["4"]

    @pytest.mark.parametrize("argv", [["sha-cyc", "--group", "builtin:z8", "--module", "aug"],
                                      ["verify-lemma", "--group", "builtin:z8"]])
    def test_a_cyclic_group_solves_nothing(self, argv):
        # Z/8 is one of its own cyclic subgroups, so Sha^1_cyc is 0 by
        # res_G = id; a fresh process, as no H^1 may come from a cache
        code = (
            "import io, sys, contextlib\n"
            "from tameapprox import zmod_linalg\n"
            "from tameapprox.cli import main\n"
            "built = []\n"
            "init = zmod_linalg.QuotientPresentation.__init__\n"
            "def counted(self, *args):\n"
            "    built.append(args)\n"
            "    init(self, *args)\n"
            "zmod_linalg.QuotientPresentation.__init__ = counted\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(len(built))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "0\n"

    def test_dimension_shift_all_subgroups(self, capsys):
        status, out, _ = run_cli(capsys, "dimension-shift", "--group", "builtin:z2xz4",
                                 "--all-subgroups")
        assert status == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert len(report["subgroups"]) == 8

    def test_dimension_shift_default_family(self, capsys):
        # the cyclic subgroups plus G, as dimension_shift_check chooses them
        for name, orders in (("z2xz4", ["1", "2", "2", "2", "4", "4", "8"]),
                             ("z8", ["1", "2", "4", "8"])):
            status, out, _ = run_cli(capsys, "dimension-shift", "--group", f"builtin:{name}")
            assert status == 0
            assert [r["order"] for r in json.loads(out)["subgroups"]] == orders

    def test_dimension_shift_extra_subgroup(self, capsys):
        status, out, _ = run_cli(capsys, "dimension-shift", "--group", "builtin:q8",
                                 "--subgroup", "1")
        assert status == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("flags", [["--subgroup", ","], ["--subgroup", "1"],
                                       ["--all-subgroups", "--subgroup", "1", "--subgroup", "0,1"]])
    def test_dimension_shift_reports_each_subgroup_once(self, capsys, flags):
        status, out, _ = run_cli(capsys, "dimension-shift", "--group", "builtin:z4", *flags)
        assert status == 0
        assert [r["order"] for r in json.loads(out)["subgroups"]] == ["1", "2", "4"]

    def test_sigma0_command(self, capsys):
        status, out, _ = run_cli(capsys, "sigma0", "--a", "3", "--b", "17")
        assert status == 0
        report = json.loads(out)
        assert report["sigma0"] == ["3", "17"]
        assert {p["place"] for p in report["places"]} == {"2", "3", "17"}

    def test_find_params(self, capsys):
        status, out, _ = run_cli(capsys, "find-params", "--ell", "2", "--n", "1")
        assert status == 0
        report = json.loads(out)
        assert (report["p"], report["q"]) == ("3", "17")

    @pytest.mark.parametrize("ell, n, p, err", [
        ("2", "2", "7", "error: --p 7 fails p == 1 (mod 2^2 = 4)\n"),
        ("3", "2", "7", "error: --p 7 fails p == 1 (mod 3^2 = 9)\n"),
        ("2", "0", "3", "error: n must be >= 1\n"),
    ])
    def test_find_params_refuses_p_outside_the_progression(self, capsys, ell, n, p, err):
        # certify would refute each pair at p_congruence or n_positive
        assert run_cli(capsys, "find-params", "--ell", ell, "--n", n, "--p", p) == (2, "", err)

    def test_find_params_given_p_is_certified(self, capsys):
        for ell, n, p in (("2", "2", "5"), ("3", "1", "7")):
            status, out, _ = run_cli(capsys, "find-params", "--ell", ell, "--n", n, "--p", p)
            assert status == 0 and json.loads(out)["p"] == p
            q = json.loads(out)["q"]
            status, out, _ = run_cli(capsys, "certify", "--ell", ell, "--n", n, "--p", p, "--q", q)
            assert (status, json.loads(out)["conclusion"]) == (0, "certified"), (ell, n, p, q)


class TestGroupSources:
    def test_group_json_file(self, capsys, tmp_path):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"permutations": [[1, 2, 0], [1, 0, 2]]}))
        status, out, _ = run_cli(capsys, "verify-lemma", "--group", str(path))
        assert status == 0
        assert json.loads(out)["computed"] == []

    def test_module_json_file(self, capsys, tmp_path):
        gpath = tmp_path / "group.json"
        gpath.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
        mpath = tmp_path / "module.json"
        mpath.write_text(json.dumps(
            {"modulus": 3, "rank": 1, "action": {"0": [[1]], "1": [[2]]}}))
        status, out, _ = run_cli(capsys, "h1", "--group", str(gpath),
                                 "--module", str(mpath))
        assert status == 0
        assert json.loads(out)["structure"] == []

    def test_trivial_module_spec(self, capsys):
        status, out, _ = run_cli(capsys, "h1", "--group", "builtin:z2",
                                 "--module", "trivial:2")
        assert status == 0
        assert json.loads(out)["structure"] == ["2"]


class TestErrorHandling:
    def test_unknown_builtin_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "verify-lemma", "--group", "builtin:e8")
        assert status == 2
        assert "unknown builtin" in err

    def test_missing_file_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "h1", "--group", "/no/such/file.json")
        assert status == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", [
        ["h1", "--group", "builtin:z4", "--module", "trivial:3", "--modulus", "5"],
        ["sha-cyc", "--group", "builtin:z4", "--module", "module.json", "--modulus", "7"],
    ])
    def test_modulus_is_refused_where_it_does_not_apply(self, capsys, tmp_path, monkeypatch, argv):
        # each module names its own modulus, 3 or the file's 4
        monkeypatch.chdir(tmp_path)
        Path("module.json").write_text(json.dumps(
            {"modulus": 4, "rank": 1, "action": {str(g): [[1]] for g in range(4)}}))
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (2, "")
        assert err == "error: --modulus applies only to --module aug and ring\n"

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        status, out, err = run_cli(capsys, "h1", "--group", "builtin:z2",
                                   "--output", str(target))
        assert (status, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_bad_subgroup_spec(self, capsys):
        status, _, err = run_cli(capsys, "dimension-shift", "--group", "builtin:z4",
                                 "--subgroup", "a,b")
        assert status == 2
        assert "subgroup" in err

    def test_search_exhaustion_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "certify", "--ell", "2", "--n", "1",
                                 "--p", "3", "--search-bound", "10")
        assert status == 2
        assert "no admissible q" in err

    @pytest.mark.parametrize("exc", [NotInSpanError("lost a generator"),
                                     AssertionError("lost a generator")])
    def test_internal_error_exits_3(self, capsys, monkeypatch, exc):
        def broken(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "sha-cyc", cli._COMMANDS["sha-cyc"]._replace(run=broken))
        status, out, err = run_cli(capsys, "sha-cyc", "--group", "builtin:z2")
        assert status == 3
        assert out == ""
        assert err == "internal error: lost a generator\n"

    def test_failed_invariant_is_reported_once(self, capsys, monkeypatch):
        # h1 checks each class on the relator rows of its presentation; only
        # the generator columns fail, so the check of B inside ker A passes
        in_kernel = QuotientPresentation._in_kernel

        def generators_fail(self, vec):
            return vec not in getattr(self, "generator_columns", ()) and in_kernel(self, vec)

        monkeypatch.setattr(QuotientPresentation, "_in_kernel", generators_fail)
        status, out, err = run_cli(capsys, "h1", "--group", "builtin:z2", "--module", "trivial:2")
        assert status == 3 and out == ""
        assert err == "internal error: lifted representative is not a normalized cocycle\n"

    def test_failed_kernel_check_is_reported_once(self, capsys, monkeypatch):
        # every vector fails, so the constructor's check of B inside ker A
        # stops the presentation before h1 sees it
        monkeypatch.setattr(QuotientPresentation, "_in_kernel", lambda self, vec: False)
        status, out, err = run_cli(capsys, "h1", "--group", "builtin:z2", "--module", "trivial:2")
        assert status == 3 and out == ""
        assert err == "internal error: a column of B is not in ker A mod 2\n"

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["sha-cyc", "--group", "builtin:z8", "--modulus", "0"], "modulus must be >= 2"),
        (["h1", "--group", "builtin:z4", "--module", "ring", "--modulus", "0"],
         "modulus must be >= 2"),
        (["sha-cyc", "--group", "builtin:zlxzln:2:0"], "n must be >= 1"),
        (["sha-cyc", "--group", "builtin:zlxzln:1:3"], "ell must be >= 2"),
        (["dimension-shift", "--group", "builtin:z8", "--subgroup", "99"],
         "subgroup generator 99 is not an element index in 0..7"),
        (["dimension-shift", "--group", "builtin:z8", "--subgroup", "1,-1"],
         "subgroup generator -1 is not an element index in 0..7"),
        (["h1", "--group", "builtin:z4", "--module", "trivial:1"], "modulus must be >= 2"),
        (["h1", "--group", "builtin:z4", "--module", "trivial:0"], "modulus must be >= 2"),
        (["h1", "--group", "broken.json"], "group file 'broken.json' is not valid JSON"),
        (["h1", "--group", "builtin:z2", "--module", "trivial:x"], "bad trivial module spec"),
        (["sha-cyc", "--group", "builtin:zlxzln:2"], "expected zlxzln:<ell>:<n>"),
        (["sha-cyc", "--group", "builtin:zlxzln:a:b"], "non-integer parameters"),
        (["verify-lemma", "--group", "z3.json", "--limit", "2"],
         "group order 3 exceeds the limit 2"),
    ])
    def test_bad_input_names_its_parameter(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        Path("broken.json").write_text('{"table": [[0, 1], [1, 0]]')
        Path("z3.json").write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith("error: ") and message in err, err

    @pytest.mark.parametrize("argv", [
        ["verify-lemma"],
        ["h1", "--module", "aug"],
        ["h1", "--module", "ring"],
        ["sha-cyc", "--module", "aug"],
        ["dimension-shift"],
    ])
    def test_order_1_is_refused_where_the_modulus_defaults_to_it(
            self, capsys, tmp_path, monkeypatch, argv):
        # the user gave no modulus: the message names the group's order
        monkeypatch.chdir(tmp_path)
        Path("one.json").write_text('{"table": [[0]]}')
        assert run_cli(capsys, argv[0], "--group", "one.json", *argv[1:]) == (
            2, "", "error: the group has order 1, and the default modulus |G| must be >= 2\n")

    def test_order_1_with_its_own_modulus_is_solved(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("one.json").write_text('{"table": [[0]]}')
        status, out, err = run_cli(capsys, "h1", "--group", "one.json", "--module", "trivial:5")
        assert (status, err) == (0, "")
        assert json.loads(out)["structure"] == []

    def test_unknown_option_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert words(err).startswith("usage: tameapprox certify ")
        assert err.endswith("tameapprox certify: error: unrecognized arguments: --bogus\n")

    def test_group_limit_flag(self, capsys):
        status, _, err = run_cli(capsys, "verify-lemma", "--group", "builtin:z3xz3",
                                 "--limit", "4")
        assert status == 2
        assert "limit" in err

    def test_no_environment_variable_sets_the_limit(self, capsys, monkeypatch):
        # --limit is the one override; the variable the CLI once read does nothing
        monkeypatch.setenv("TAMEAPPROX_GROUP_LIMIT", "4")
        status, out, err = run_cli(capsys, "verify-lemma", "--group", "builtin:q8")
        assert (status, err) == (0, "")
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("argv, extra", [
        (["sigma0", "--a", "3", "--b", "17", "--limit", "4"], "--limit 4"),
        (["certify", "--ell", "2", "--n", "1", "--p", "3", "--hensel-precision", "9"],
         "--hensel-precision 9"),
    ])
    def test_removed_options_are_unrecognized(self, capsys, argv, extra):
        # sigma0 builds no group of a chosen order, and certify's precision is fixed
        assert cli._fast_parse(argv[0], argv[1:]) is None
        status, out, err = exits(capsys, lambda: main(argv))
        assert (status, out) == (2, "")
        assert err.endswith(f"tameapprox {argv[0]}: error: unrecognized arguments: {extra}\n")

    def test_limit_is_declared_where_a_group_is_built(self):
        with_limit = {name for name in cli._COMMANDS if "--limit" in declared_flags(name)}
        assert with_limit == {"h1", "sha-cyc", "verify-lemma", "dimension-shift", "certify"}


PARSE_CASES = {
    "h1": [["--group", "builtin:z2"],
           ["--group=builtin:q8", "--module", "ring", "--modulus=4", "--format", "table",
            "--output=-"],
           ["--limit", "16", "--group", "builtin:z4", "--module", "trivial:3"]],
    "sha-cyc": [["--group", "builtin:z8"],
                ["--module=aug", "--group", "builtin:q8", "--limit=9"]],
    "verify-lemma": [["--group", "builtin:s3"], ["--group=builtin:q8", "--format=table"]],
    "dimension-shift": [["--group", "builtin:z8"],
                        ["--group", "builtin:z8", "--all-subgroups"],
                        ["--group", "builtin:q8", "--subgroup", "1", "--subgroup=2,3",
                         "--all-subgroups"]],
    "sigma0": [["--a", "3", "--b", "17"], ["--b=-1", "--a=5", "--format", "table"]],
    "find-params": [[], ["--ell", "2", "--n", "1", "--start=10", "--search-bound", "100"]],
    "certify": [["--ell", "2", "--n", "1", "--p", "3"],
                ["--ell=3", "--n=1", "--p=7", "--q", "13", "--limit=27",
                 "--search-bound=99", "--output", "out.json"]],
}


def words(text):
    """`text` with its whitespace runs as single spaces: help wraps at the terminal width."""
    return " ".join(text.split())


def exits(capsys, parse):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestCommandParsers:
    """`main` reads a named command's arguments with the fast parse, and
    leaves what it declines (help, usage errors, abbreviations) to
    `build_parser`, the one argparse parser."""

    def test_cases_cover_every_command(self):
        assert list(PARSE_CASES) == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv", [[name] + args for name, cases in PARSE_CASES.items()
                                      for args in cases])
    def test_same_namespace(self, argv):
        args = cli._fast_parse(argv[0], argv[1:])
        assert vars(args) == vars(cli.build_parser().parse_args(argv))
        assert args.command == argv[0]

    @pytest.mark.parametrize("name", list(PARSE_CASES))
    def test_same_help(self, capsys, name):
        full = exits(capsys, lambda: cli.build_parser().parse_args([name, "-h"]))
        assert full == exits(capsys, lambda: main([name, "-h"]))
        assert full == exits(capsys, lambda: main([name, "--help"]))
        assert full[0] == 0 and words(full[1]).startswith(f"usage: tameapprox {name} [-h]")

    @pytest.mark.parametrize("argv", [["certify", "--ell", "x"], ["h1"], ["sigma0", "--a", "1"],
                                      ["h1", "--group", "builtin:z2", "--format", "xml"]])
    def test_same_usage_errors(self, capsys, argv):
        status, out, err = exits(capsys, lambda: main(argv))
        assert (status, out, err) == exits(capsys, lambda: cli.build_parser().parse_args(argv))
        assert status == 2 and words(err).startswith(f"usage: tameapprox {argv[0]} ")

    def test_known_command_builds_its_parser_only(self, capsys, monkeypatch):
        # the fast parse reads the declarations: no argparse parser is built
        argv = ["sha-cyc", "--group", "builtin:z2", "--module", "trivial:2"]
        monkeypatch.setattr(cli, "build_parser", None)
        monkeypatch.setattr(sys, "argv", ["tameapprox"] + argv)
        assert main() == 0  # argv=None reads sys.argv
        out = capsys.readouterr().out
        assert json.loads(out)["structure"] == []
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_top_level_help_lists_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
        for argv in (["-h"], ["--help"]):
            status, out, err = exits(capsys, lambda: main(argv))
            assert (status, err) == (0, "")
            text = words(out)
            assert text.startswith("usage: tameapprox [-h]")
            assert "Certified counterexamples to tame approximation" in text
            for name, command in cli._COMMANDS.items():
                assert f" {name} {command.help}" in text

    @pytest.mark.parametrize("argv, message", [
        ([], "tameapprox: error: the following arguments are required: command\n"),
        (["bogus"], "tameapprox: error: argument command: invalid choice: 'bogus'"),
        (["--format", "json", "certify"], "tameapprox: error: argument command: invalid choice"),
    ])
    def test_top_level_usage_errors(self, capsys, argv, message):
        status, out, err = exits(capsys, lambda: main(argv))
        assert (status, out) == (2, "")
        assert words(err).startswith("usage: tameapprox [-h]") and words(message) in words(err)
        assert (status, out, err) == exits(capsys, lambda: cli.build_parser().parse_args(argv))

    def test_abbreviations_fall_back_to_argparse(self, capsys):
        # argparse expands --search and --lim; the fast parse reads --flag=value
        golden = (GOLDEN_DIR / "certify_2_1_3.json").read_text()
        fallback = ["certify", "--ell", "2", "--n", "1", "--p", "3",
                    "--search", "4294967296", "--lim", "512"]
        fast = ["certify", "--ell=2", "--n=1", "--p=3"]
        assert cli._fast_parse(fallback[0], fallback[1:]) is None
        assert cli._fast_parse(fast[0], fast[1:]) is not None
        for argv in (fallback, fast):
            assert run_cli(capsys, *argv) == (0, golden, ""), argv

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["tameapprox"])
        assert exits(capsys, main) == exits(capsys, lambda: main([]))
        monkeypatch.setattr(sys, "argv", ["tameapprox", "bogus"])
        assert exits(capsys, main) == exits(capsys, lambda: main(["bogus"]))


# Argvs at the edge of the fast parse's grammar, each after a command's first
# PARSE_CASES argv (so its required options are there) and alone.
EDGE_CASES = [
    ["--format", "table", "--format", "json"], ["--limit", "9", "--limit=16"],
    ["--subgroup", "1", "--subgroup", "2,3"], ["--all-subgroups", "--all-subgroups"],
    ["--output", "-"], ["--b", "-1"], ["--b=-1"], ["--group="], ["--group=a=b"],
    ["--group", ""], ["--output", "a b"], ["--output=--"], ["--group=--"],
    ["--search", "99"], ["--lim", "8"], ["--all-subgroups=1"], ["--all-subgroups="],
    ["--limit"], ["--"], ["-h"], ["--help"], ["--limit", "x"], ["--format", "xml"],
    ["--b", "1"], ["--limit", " 7 "], ["--n", "1_0"], ["stray"],
]

# Outside the grammar: the fast parse must leave these to argparse.
DECLINED = [
    ["certify", "--ell", "2", "--n", "1", "--p", "3", "--search", "99"],
    ["certify", "--ell", "2", "--n", "1", "--p", "3", "--lim", "8"],
    ["certify", "--ell", "x"], ["certify", "--ell"], ["certify", "--ell", "-2"],
    ["certify", "--", "--ell", "2"], ["certify", "-h"], ["certify", "--help"],
    ["sigma0", "--b", "1"], ["sigma0", "--a", "1", "--b", "-1"],
    ["h1", "--group", "builtin:z2", "--format", "xml"], ["h1", "--group", "builtin:z2", "x"],
    ["dimension-shift", "--group", "builtin:z2", "--all-subgroups=1"],
    ["sha-cyc"], ["sha-cyc", "--group", "-"],
]


def declared_flags(name):
    declared = cli._Declared()
    cli._COMMANDS[name].add_options(declared)
    return declared


def declared_argvs():
    """Every command with the PARSE_CASES argvs, the EDGE_CASES argvs,
    `--flag=--` and `--flag --` for each declared flag, and seeded random
    argvs: mostly its exact flags, some prefixes and strays, and values that
    are good, odd or flag-like."""
    rng = random.Random(0xA59)
    values = ["1", "7", "json", "table", "builtin:z2", "2,3", "-1", "x", "", "-", "a=b", "=",
              "--", "-x", "--a", " 2"]
    for name, cases in PARSE_CASES.items():
        flags = list(declared_flags(name))
        noise = [f[:-1] for f in flags if len(f) > 3] + ["-h", "--", "--x", "x"]
        argvs = cases + [cases[0] + edge for edge in EDGE_CASES] + EDGE_CASES
        argvs += [cases[0] + dashed for flag in flags
                  for dashed in ([f"{flag}=--"], [flag, "--"])]
        for _ in range(300):
            argv = list(cases[0]) if rng.random() < 0.5 else []
            for _ in range(rng.randrange(1, 4)):
                flag = rng.choice(flags) if rng.random() < 0.9 else rng.choice(noise)
                value = rng.choice(values[:6] if rng.random() < 0.5 else values)
                if rng.random() < 0.3:
                    argv.append(f"{flag}={value}")
                else:
                    argv += [flag] + ([value] if rng.random() < 0.9 else [])
            argvs.append(argv)
        for argv in argvs:
            yield name, argv


def load_reference():
    """perfbench/reference.py, loaded from its path."""
    import importlib.util

    path = GOLDEN_DIR.parent / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFastParse:
    """`main` reads a known command's arguments from its declarations; for
    every argv it accepts, the namespace is the one argparse gives."""

    def test_same_vars_as_argparse_or_declined(self):
        parser = cli.build_parser()
        accepted = declined = 0
        for name, argv in declared_argvs():
            fast = cli._fast_parse(name, argv)
            if fast is None:
                declined += 1
                continue
            accepted += 1
            assert vars(fast) == vars(parser.parse_args([name, *argv])), (name, argv)
        assert accepted > 100 and declined > 100

    @pytest.mark.parametrize("argv", DECLINED)
    def test_declines_outside_its_grammar(self, argv):
        assert cli._fast_parse(argv[0], argv[1:]) is None

    def test_parse_cases_and_benchmark_argvs_take_the_fast_path(self):
        reference = load_reference()
        argvs = [[name] + args for name, cases in PARSE_CASES.items() for args in cases]
        argvs += [reference.certify_argv(ell, n, p)
                  for ell, n, p in ((2, 1, 3), (2, 2, 5), (3, 1, 7))]
        argvs += [["sha-cyc", "--group", f"builtin:{g}", "--module", "aug"]
                  for g in ("z8", "q8", "z3xz3", "z2xz2xz2", "zlxzln:2:3")]
        for argv in argvs:
            assert cli._fast_parse(argv[0], argv[1:]) is not None, argv

    def test_declarations_use_only_what_the_fast_parse_reads(self):
        for name in cli._COMMANDS:
            for flag, spec in declared_flags(name).items():
                assert flag.startswith("--") and "=" not in flag, (name, flag)
                assert set(spec) <= {"action", "type", "choices", "default", "required",
                                     "help", "metavar"}, (name, flag)
                assert spec.get("action") in (None, "store_true", "append"), (name, flag)
                # argparse passes a string default through `type`; the fast parse does not
                assert not ("type" in spec and isinstance(spec.get("default"), str)), (name, flag)

    def test_commands_load_no_argparse(self):
        # -I -S: no site-packages and no user site, so nothing imports argparse for us
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import io, sys, contextlib\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "from tameapprox.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['sha-cyc', '--group', 'builtin:z8']) == 0\n"
            "    assert main(['certify', '--ell', '2', '--n', '1', '--p', '3']) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        out = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"


class TestDashDashValue:
    """A value `--`, which argparse reads differently on each Python, is the
    usage error for a missing value; no argv ends in a traceback."""

    @pytest.mark.parametrize("argv, flag", [
        (["h1", "--group", "builtin:z2", "--output=--"], "--output"),
        (["h1", "--group=--"], "--group"),
        (["certify", "--ell=--", "--n", "1", "--p", "3"], "--ell"),
    ])
    def test_is_a_usage_error_as_a_process(self, tmp_path, argv, flag):
        env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
        proc = subprocess.run([sys.executable, "-m", "tameapprox.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert f"argument {flag}: " in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "--").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["dimension-shift", "--group", "builtin:s3", "--subgroup=--"], "--subgroup"),
        (["h1", "--group", "builtin:z2", "--out=--"], "--out"),  # named as typed
    ])
    def test_is_refused_before_either_parser(self, capsys, tmp_path, monkeypatch, argv, flag):
        # an append option and an abbreviation: neither parser is reached
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_fast_parse", None)
        monkeypatch.setattr(cli, "build_parser", None)
        assert run_cli(capsys, *argv) == (2, "", f"error: argument {flag}: expected one argument\n")
        assert not (tmp_path / "--").exists()

    def test_main_exits_0_1_or_2_on_every_declared_argv(self, capsys, tmp_path, monkeypatch):
        # in tmp_path, where what one argv writes a later one may read as its group
        monkeypatch.chdir(tmp_path)
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)  # one build, not one per argv
        for name, argv in declared_argvs():
            try:
                status = main([name, *argv])
            except SystemExit as exc:  # argparse's own help and usage errors
                status = exc.code
                assert status in (0, 2), (name, argv)
            assert status in (0, 1, 2), (name, argv, capsys.readouterr().err)
            capsys.readouterr()
        assert not (tmp_path / "--").exists()


class TestLargeModuli:
    def test_large_prime_modulus_is_fast(self, capsys):
        start = time.perf_counter()
        status, out, _ = run_cli(capsys, "sha-cyc", "--group", "builtin:z2",
                                 "--module", "trivial:2305843009213693951")
        assert time.perf_counter() - start < 1
        assert status == 0 and json.loads(out)["structure"] == []

    def test_power_of_two_beyond_64_bits(self, capsys):
        # the small factors are stripped before any primality test
        status, out, _ = run_cli(capsys, "h1", "--group", "builtin:z2",
                                 "--module", f"trivial:{2 ** 70}")
        assert status == 0 and json.loads(out)["structure"] == ["2"]

    def test_cofactor_beyond_64_bits_is_an_input_error(self, capsys):
        m = (2 ** 61 - 1) * (2 ** 31 - 1)
        status, out, err = run_cli(capsys, "h1", "--group", "builtin:z2",
                                   "--module", f"trivial:{m}")
        assert status == 2 and out == ""
        assert err.startswith("error: cannot factor") and "2**64" in err


def malformed_groups(rng, group):
    """Seeded group JSON objects that are wrong in type, shape or keys."""
    table = [list(row) for row in group.table]
    names = list(group.names)
    n = len(table)
    i, j = rng.randrange(n), rng.randrange(n)

    def with_row(row):
        return {"table": table[:i] + [row] + table[i + 1:], "names": names}

    def with_entry(value):
        return with_row(table[i][:j] + [value] + table[i][j + 1:])

    cases = [
        {"table": table, "names": 5},
        {"table": table, "names": "e"},
        {"table": table, "names": {"0": "e"}},
        {"table": table, "names": names[:j] + [rng.randrange(9)] + names[j + 1:]},
        {"table": table, "names": names + ["extra"]},
        {"table": rng.choice([5, "table", {"0": [0]}, None, []]), "names": names},
        with_row(rng.choice([5, "row", None, {"0": 0}])),
        with_row(table[i][:-1]),
        with_row(table[i] + [0]),
        with_entry(rng.choice(["x", 1.5, None, True, [0]])),
        {"table": table + [table[i]], "names": names},
        {"names": names},
        {},
        [table],
        {"permutations": rng.choice([5, "p", None, {"0": [0]}])},
        {"permutations": [[1, 0], rng.choice([5, None, "10"])]},
        {"permutations": [[1, 0], [0]]},
        {"permutations": [[1, 0], [rng.choice(["a", 0.5, None, False]), 1]]},
    ]
    return cases


def malformed_modules(rng, module):
    """Seeded module JSON objects that are wrong in type, shape or keys."""
    m, r = module.modulus, module.rank
    action = {str(g): [list(row) for row in module.act_matrix(g)]
              for g in range(module.group.order)}
    valid = {"modulus": m, "rank": r, "action": action}
    g = str(rng.randrange(len(action)))
    mat = action[g]
    i = rng.randrange(r)

    def with_matrix(value):
        return dict(valid, action=dict(action, **{g: value}))

    def with_row(row):
        return with_matrix(mat[:i] + [row] + mat[i + 1:])

    cases = [{key: value for key, value in valid.items() if key != missing}
             for missing in ("modulus", "rank", "action")]
    cases += [
        dict(valid, modulus=rng.choice(["abc", [m], None, 1.5, True, {"m": m}])),
        dict(valid, rank=rng.choice(["r", [r], None, 2.0, {"r": r}])),
        dict(valid, action=rng.choice([5, "action", None, list(action.values())])),
        {"modulus": m, "rank": r, "action": {k: v for k, v in action.items() if k != g}},
        with_matrix(rng.choice([5, "matrix", None, {"0": [1]}])),
        with_matrix(mat + [mat[i]]),
        with_row(rng.choice([5, "row", None, {"0": 1}])),
        with_row(mat[i][:-1]),
        with_row(mat[i] + [0]),
        with_row(mat[i][:-1] + [rng.choice(["x", 1.5, None, True, [1]])]),
        [valid],
    ]
    return cases


# values a mutation writes in place of a JSON node: wrong types, bools, a
# float, huge and negative integers, null, and empty lists and objects
JUNK = [True, False, None, 1.5, -1, 0, 2 ** 70, "x", [], {}, [[]]]


def intercalate_swap(rng, table):
    """Swap an intercalate a b / b a of a Cayley table (rows and columns 0
    kept): still a loop with identity 0, but in general not associative."""
    n = len(table)
    found = [(i, k, j, col) for i in range(1, n) for k in range(i + 1, n)
             for j in range(1, n) for col in range(j + 1, n)
             if table[i][j] == table[k][col] and table[i][col] == table[k][j]]
    if found:
        i, k, j, col = rng.choice(found)
        for row in (table[i], table[k]):
            row[j], row[col] = row[col], row[j]


def mutated(rng, value):
    """A deep copy of a JSON value with one to three seeded mutations: a node
    set to JUNK, a key or an entry deleted, an integer moved out of range,
    or (in a group table) an intercalate swapped."""
    def junk():
        return json.loads(json.dumps(rng.choice(JUNK)))  # a fresh copy, never shared

    value = json.loads(json.dumps(value))
    for _ in range(rng.randint(1, 3)):
        if isinstance(value, dict) and isinstance(value.get("table"), list) \
                and rng.random() < 0.2:
            if all(isinstance(row, list) and len(row) == len(value["table"])
                   for row in value["table"]):
                intercalate_swap(rng, value["table"])
            continue
        # a random walk down from the root that stops at each level below it
        # with probability 1/2, so half the mutations hit a top-level key
        parent, key, node = None, None, value
        while isinstance(node, (dict, list)) and node and (key is None or rng.random() < 0.5):
            parent, key = node, rng.choice(list(node) if isinstance(node, dict)
                                           else range(len(node)))
            node = parent[key]
        if parent is None:
            break
        kind = rng.randrange(3)
        if kind == 1:
            del parent[key]
        elif kind == 2 and type(node) is int:
            parent[key] = rng.choice([node + 1, -node - 1, node + 64, len(parent)])
        else:
            parent[key] = junk()
    return value


def mutation_seeds():
    """Valid (group JSON, module JSON or None) pairs: groups given as a table
    (with and without names) and as permutations, and modules over them."""
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    klein4 = [[a ^ b for b in range(4)] for a in range(4)]
    q8 = builtin_group("q8")
    return [
        ({"table": z4, "names": ["e", "a", "a2", "a3"]},
         {"modulus": 4, "rank": 1, "action": {"0": [[1]], "1": [[3]], "2": [[1]], "3": [[3]]}}),
        ({"table": klein4},
         {"modulus": 2, "rank": 2, "action": {str(g): [[1, 0], [0, 1]] if g % 2 == 0
                                              else [[0, 1], [1, 0]] for g in range(4)}}),
        ({"permutations": [[1, 2, 0], [1, 0, 2]]}, None),
        ({"table": [list(row) for row in q8.table], "names": list(q8.names)}, None),
    ]


class TestJsonMutations:
    """Seeded mutations of valid group and module JSON, run through `main`
    on the commands that read them: every case ends in exit 0, 1 or 2, with
    exit 1 only from a command that ran a verification, and never in an
    internal error or an uncaught exception."""

    COUNT = 100  # mutants of each group and of each module

    def check(self, capsys, argv):
        argv = [*argv, "--limit", "64"]
        try:
            status = main(argv)
        except Exception as exc:  # the failure this harness looks for
            pytest.fail(f"{argv}: uncaught {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        verifies = argv[0] in ("verify-lemma", "dimension-shift")
        assert status in ((0, 1, 2) if verifies else (0, 2)), (argv, status, err)
        if status == 2:
            assert out == "" and err.startswith("error: "), (argv, err)
        else:
            assert err == "" and json.loads(out)["command"] == argv[0], (argv, err)
        return status

    def test_seeded_mutations(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = random.Random(0x15A)
        statuses = []
        for group, module in mutation_seeds():
            for _ in range(self.COUNT):
                Path("group.json").write_text(json.dumps(mutated(rng, group)))
                for command in ("h1", "sha-cyc", "verify-lemma", "dimension-shift"):
                    statuses.append(self.check(capsys, [command, "--group", "group.json"]))
            if module is None:
                continue
            Path("group.json").write_text(json.dumps(group))
            for _ in range(self.COUNT):
                Path("module.json").write_text(json.dumps(mutated(rng, module)))
                for command in ("h1", "sha-cyc"):
                    statuses.append(self.check(capsys, [command, "--group", "group.json",
                                                        "--module", "module.json"]))
        # the mutants reach both outcomes: some still load, most are refused
        assert statuses.count(0) > 20 and statuses.count(2) > len(statuses) // 2


class TestMalformedJson:
    """Malformed group and module JSON exits 2 with an `error:` line, never a traceback."""

    def check(self, capsys, *argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2, (argv, err)
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, err

    def test_group_files(self, capsys, tmp_path):
        rng = random.Random(0x6A0)
        path = tmp_path / "group.json"
        for group, _ in sweep_modules()[::8]:
            for obj in malformed_groups(rng, group):
                path.write_text(json.dumps(obj))
                self.check(capsys, "h1", "--group", str(path), "--module", "trivial:2")

    def test_module_files(self, capsys, tmp_path):
        rng = random.Random(0x30D)
        gpath, mpath = tmp_path / "group.json", tmp_path / "module.json"
        for group, module in sweep_modules()[::3]:
            gpath.write_text(json.dumps({"table": [list(row) for row in group.table]}))
            for obj in malformed_modules(rng, module):
                mpath.write_text(json.dumps(obj))
                self.check(capsys, "h1", "--group", str(gpath), "--module", str(mpath))

    def test_duplicate_element_names(self, capsys, tmp_path):
        # names key the printed cocycle values, so z(e) = 0 would be lost
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "names": ["a", "a"]}))
        status, out, err = run_cli(capsys, "h1", "--group", str(path), "--module", "aug")
        assert (status, out, err) == (2, "", "error: element names are not distinct\n")

    def test_action_key_that_names_no_element(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"modulus": 4, "rank": 1,
                                    "action": {"0": [[1]], "1": [[3]], "7": [[1]]}}))
        status, out, err = run_cli(capsys, "h1", "--group", "builtin:z2", "--module", str(path))
        assert (status, out) == (2, "")
        assert err == "error: module JSON 'action' key '7' names no element\n"

    def test_valid_files_still_load(self, capsys, tmp_path):
        gpath, mpath = tmp_path / "group.json", tmp_path / "module.json"
        for group, module in sweep_modules()[::3]:
            gpath.write_text(json.dumps({"table": [list(row) for row in group.table],
                                         "names": list(group.names)}))
            mpath.write_text(json.dumps({
                "modulus": module.modulus, "rank": str(module.rank),
                "action": {str(g): [list(row) for row in module.act_matrix(g)]
                           for g in range(module.group.order)}}))
            status, _, err = run_cli(capsys, "h1", "--group", str(gpath), "--module", str(mpath))
            assert status == 0, err
