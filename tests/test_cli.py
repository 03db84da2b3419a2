"""Tests for the command line front end."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tpg import classify, cli, dihedral
from tpg.axial import cert_to_dict, obstruct
from tpg.classify import EXCLUDED_TYPE_NAMES
from tpg.fpgrp import Word
from tpg.permgrp import Perm, generate
from tpg.qlin import rat_str


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_unknown_group_rejected(self, capsys):
        code, _, err = run_cli(capsys, "normals", "G12")
        assert code == 2
        assert "unknown group" in err

    def test_unknown_catalog_filter_rejected(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--only", "H1")
        assert code == 2
        assert "unknown group" in err

    def test_unknown_obstruction_type_rejected(self, capsys):
        code, _, err = run_cli(capsys, "obstruct", "S4")
        assert code == 2
        assert "unknown excluded type" in err

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_jobs_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "--jobs", "2", "catalog", "--only", "G1")
        assert code == 2
        assert "usage" in err

    def test_missing_certificate_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2
        assert "no such file" in err


class TestCatalog:
    def test_only_g3(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--only", "G3")
        assert code == 0
        assert "160" in out
        row = next(line for line in out.splitlines() if "G3" in line)
        assert row.rstrip().endswith("| 0 |")  # zero index>12 normals

    def test_json_lists_all_eleven(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog")
        assert code == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == [f"G{i}" for i in range(1, 12)]
        assert rows[10]["order"] == 17496


@pytest.mark.parametrize("argv, built", [
    (["obstruct", "(2^4:(S3xS3))x2"], "G9"),
    (["catalog", "--only", "G3"], "G3"),
    (["normals", "G1"], "G1"),
    (["normals", "G10"], "G10"),
])
def test_command_builds_one_catalog_entry(tmp_path, argv, built):
    # in a fresh process: one cached entry, and it is the named one
    code = (
        "import sys\n"
        "from tpg import classify, cli\n"
        "assert cli.run(sys.argv[2:]) == 0\n"
        "before = classify.entry.cache_info()\n"
        "classify.entry(sys.argv[1])\n"
        "print(before.currsize, classify.entry.cache_info().hits - before.hits)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, built, "--out", str(tmp_path), *argv],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["1", "1"]


class TestNormals:
    def test_g4_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "normals", "G4")
        assert code == 0
        body = [l for l in out.splitlines() if l.startswith("|")][2:]
        assert len(body) == 1
        assert "| 2 |" in body[0]
        assert "S5" in body[0]

    def test_g3_empty(self, capsys):
        code, out, _ = run_cli(capsys, "normals", "G3")
        assert code == 0
        assert "no normal subgroups of index > 12" in out

    def test_g1_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "normals", "G1")
        assert code == 0
        rows = json.loads(out)
        assert sorted(r["subgroup_order"] for r in rows) == [2, 4, 4, 4]
        assert all(r["triangle_point"] for r in rows)


class TestDihedral:
    def test_verify_all_types(self, capsys):
        code, out, _ = run_cli(capsys, "dihedral", "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert all("ok" in l and "gram psd" in l for l in lines)

    def test_verify_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "dihedral", "verify")
        assert code == 0
        results = json.loads(out)
        assert [r["type"] for r in results] == [
            "1A", "2A", "2B", "3A", "3C", "4A", "4B", "5A", "6A"]
        assert all(r["gram_psd"] and not r["failures"] for r in results)

    def test_failures_keep_the_check_order(self, capsys, monkeypatch):
        # 3A with u_rho^2 shifted by the 1/32-eigenvector a_1 - a_-1 of
        # ad(a_0): every axis keeps its spectrum, and M1, the fusion rules and
        # tau all fail.  The report lists them check by check, axis by axis.
        alg = dihedral.build("3A")
        i = alg.index("u_rho")
        mult = [list(row) for row in alg.mult]
        mult[i][i] = mult[i][i] + (
            alg.basis_vector("a_1") - alg.basis_vector("a_-1")) * Fraction(1, 4)
        bad = dihedral.DihedralAlgebra(
            type="3A", basis=alg.basis, mult=tuple(map(tuple, mult)), gram=alg.gram)
        monkeypatch.setattr(
            cli, "build", lambda t: bad if t == "3A" else dihedral.build(t))
        code, out, _ = run_cli(capsys, "--format", "json", "dihedral", "verify")
        assert code == 1
        failures = {r["type"]: r["failures"] for r in json.loads(out)}
        m1, fusion, miyamoto = (dihedral.check_m1(bad), dihedral.check_fusion(bad),
                                dihedral.check_miyamoto(bad))
        assert (len(m1), len(fusion), len(miyamoto)) == (4, 19, 9)
        assert failures["3A"] == m1 + fusion + miyamoto
        assert fusion[0] == "3A/a_-1: (0,0) product has a 1-component"
        assert miyamoto[-1] == "3A/a_1: tau is not multiplicative on a (1/4,1/4) pair"
        assert not any(failures[t] for t in failures if t != "3A")


class TestEnumerate:
    def test_g11_presentation(self, capsys, tmp_path):
        src = tmp_path / "g11.pres"
        src.write_text(
            "# largest maximal group over its 2^3 subgroup\n"
            "mnp: 6 6 6\n"
            "r: 6 6 6 - 3\n"
            "subgroup: a\n"
            "subgroup: b\n"
            "subgroup: bacacacbacacacbacacac\n")
        code, out, _ = run_cli(capsys, "enumerate", str(src))
        assert code == 0
        assert "cosets: 2187" in out

    def test_extra_relator(self, capsys, tmp_path):
        src = tmp_path / "collapse.pres"
        src.write_text("mnp: 6 6 6\nr: 6 6 6 1 -\n")
        code, out, _ = run_cli(capsys, "enumerate", str(src))
        assert code == 0
        assert "cosets: 12" in out

    def test_capacity_exhaustion(self, capsys, tmp_path):
        src = tmp_path / "g11.pres"
        src.write_text("mnp: 6 6 6\nr: 6 6 6 - 3\n")
        code, _, err = run_cli(
            capsys, "--coset-capacity", "100", "enumerate", str(src))
        assert code == 1
        assert "aborted" in err

    def test_g9_capacity_boundary(self, capsys, tmp_path):
        # G9's enumeration defines 14,735 cosets before it closes on 1,152
        src = tmp_path / "G9.txt"
        src.write_text("mnp: 6 6 6\nr: 4 6 6 - -\n")
        code, _, err = run_cli(
            capsys, "--coset-capacity", "14734", "enumerate", str(src))
        assert code == 1
        assert "enumeration aborted" in err
        code, out, _ = run_cli(
            capsys, "--coset-capacity", "14735", "enumerate", str(src))
        assert code == 0
        assert "cosets: 1152" in out

    def test_malformed_file(self, capsys, tmp_path):
        src = tmp_path / "bad.pres"
        src.write_text("mnp: 6 6\n")
        code, _, err = run_cli(capsys, "enumerate", str(src))
        assert code == 2
        assert "three integers" in err


    @pytest.mark.parametrize("exponent", ["99999999999999999999", "1000001"])
    def test_huge_exponent_is_a_usage_error(self, capsys, tmp_path,
                                            monkeypatch, exponent):
        # the exponent is rejected before a word of that length is built
        monkeypatch.setattr(Word, "__pow__", lambda w, n: pytest.fail(
            f"power {n} was built"))
        src = tmp_path / "huge.pres"
        src.write_text(f"mnp: 6 6 6\nrelator: a^{exponent}\n")
        code, _, err = run_cli(capsys, "enumerate", str(src))
        assert code == 2
        assert f"exponent {exponent} exceeds" in err

    def test_python_m_tpg(self, tmp_path):
        # the package runs as a module, like the tpg script
        src = tmp_path / "G1.txt"
        src.write_text("mnp: 4 4 4\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tpg", "--format", "json", "enumerate",
             str(src)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"cosets": 64}


class TestCapacity:
    """--coset-capacity bounds the catalog entries' enumerations too: G1's
    cross-check enumeration defines 81 cosets."""

    @pytest.mark.parametrize("argv", [
        ["catalog", "--only", "G1"], ["normals", "G1"], ["classify"]])
    def test_too_small_aborts(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, "--out", str(tmp_path),
                                 "--coset-capacity", "80", *argv)
        assert code == 1
        assert err == ("tpg: enumeration aborted: coset table capacity 80 "
                       "exhausted; the presented group may be infinite or "
                       "the bound too small\n")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["catalog", "--only", "G1"], ["normals", "G1"]])
    def test_boundary_passes(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--coset-capacity", "81", *argv)
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]

    def test_entry_cache_key_is_normalised(self):
        # one build per (name, capacity), however the call is spelled
        e = classify.entry("G1", 81)
        assert classify.entry("G1", capacity=81) is e
        assert classify.entry(name="G1", capacity=81) is e
        assert classify.entry("G1") is classify.entry("G1", 10**6)

    def test_entry_reuses_the_least_capacity_build(self, capsys):
        e = classify.entry("G1", 81)
        assert classify.entry("G1", 500) is e
        assert classify.entry("G1") is e
        # a smaller capacity than any build still enumerates, and fails
        assert run_cli(capsys, "--coset-capacity", "80", "catalog",
                       "--only", "G1")[0] == 1

    def test_target_reuses_a_smaller_capacity_entry(self):
        # in a fresh process: the G9 target is the entry built at 20,000,
        # not a second build at the default capacity
        code = (
            "from tpg import classify\n"
            "e = classify.entry('G9', 20000)\n"
            "G = classify.obstruction_target('(2^4:(S3xS3))x2')\n"
            "print(G is e.group, classify.entry.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "1"]

    def test_target_reuses_a_larger_capacity_entry(self):
        # in a fresh process: the G9 target, which asks for the default
        # capacity, is the entry built at 2,000,000, whose enumerations
        # defined fewer cosets than the default allows
        code = (
            "from tpg import classify\n"
            "e = classify.entry('G9', 2_000_000)\n"
            "G = classify.obstruction_target('(2^4:(S3xS3))x2')\n"
            "print(G is e.group, classify.entry.cache_info().currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "1"]

    @pytest.mark.parametrize("change, message", [
        ("order=65", "G1: generated order 64, catalog says 65"),
        ("extra=('ac',)", "G1: relator ac fails"),
    ])
    def test_refused_row_is_a_verified_discrepancy(self, change, message):
        # in a fresh process, with the G1 row patched before anything is built
        code = (
            "import dataclasses, sys\n"
            "from tpg import classify, cli\n"
            "classify._SPECS = tuple(\n"
            f"    dataclasses.replace(s, {change}) if s.name == 'G1' else s\n"
            "    for s in classify._SPECS)\n"
            "sys.exit(cli.run(['catalog', '--only', 'G1']))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"tpg: verified discrepancy: {message}\n"
        assert proc.stdout == ""


class TestObstructAndVerify:
    def test_s6_round_trip_in_fresh_processes(self, tmp_path):
        env_cmd = [sys.executable, "-m", "tpg.cli", "--out", str(tmp_path)]
        emit = subprocess.run(
            env_cmd + ["obstruct", "S6"], capture_output=True, text=True)
        assert emit.returncode == 0, emit.stderr
        cert_path = tmp_path / "S6.cert.json"
        assert cert_path.is_file()
        check = subprocess.run(
            [sys.executable, "-m", "tpg.cli", "verify", str(cert_path)],
            capture_output=True, text=True)
        assert check.returncode == 0, check.stderr
        assert "verified" in check.stdout
        # the located witness is the Klein subgroup on three disjoint 2-cycles
        payload = json.loads(cert_path.read_text())
        gens = [Perm.parse(s, 6) for s in payload["certificate"]["generators"]]
        wanted = generate(6, [Perm.parse(s, 6) for s in ("(1,2)", "(3,4)", "(5,6)")])
        assert generate(6, gens).element_key_set() == wanted.element_key_set()

    @pytest.mark.parametrize("target, cert_name", [
        ("S6", "S6.cert.json"),            # klein
        ("2^4:S5", "2_4_S5.cert.json"),    # m1-audit
    ])
    def test_obstruct_identical_across_hash_seeds(self, tmp_path, target,
                                                  cert_name):
        outputs = []
        for seed in ("1", "12345"):
            out = tmp_path / seed
            proc = subprocess.run(
                [sys.executable, "-m", "tpg.cli", "--format", "json",
                 "--out", str(out), "obstruct", target],
                capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, (out / cert_name).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_verify_identical_across_hash_seeds(self, tmp_path):
        path = tmp_path / "S6.cert.json"
        path.write_text(_payload("S6"))
        pres = tmp_path / "G1.txt"
        pres.write_text("mnp: 4 4 4\n")
        for argv in (["dihedral", "verify"], ["verify", str(path)],
                     ["normals", "G6"], ["catalog", "--only", "G10"],
                     ["enumerate", str(pres)]):
            outputs = []
            for seed in ("1", "12345"):
                proc = subprocess.run(
                    [sys.executable, "-m", "tpg.cli", "--format", "json", *argv],
                    capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], argv

    @pytest.mark.parametrize("field, value", [
        ("member", "(1,99999999999999999999)"),
        ("member", "(1,2)()"),
        ("member", "(1,x)"),
        ("member", "(1,7)"),
        ("degree", 65536),
    ])
    def test_hostile_member_rejected_in_a_fresh_process(self, tmp_path, field, value):
        payload = json.loads(_payload("S6"))
        if field == "member":
            payload["certificate"]["members"][0][0] = value
        else:
            payload["certificate"]["degree"] = value
        path = tmp_path / "S6.cert.json"
        path.write_text(json.dumps(payload))
        proc = subprocess.run([sys.executable, "-m", "tpg.cli", "verify", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "REJECTED" in proc.stdout

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not-utf8", "deeply-nested"])
    def test_unreadable_certificate_is_a_usage_error(self, tmp_path, data):
        path = tmp_path / "bad.cert.json"
        path.write_bytes(data)
        proc = subprocess.run([sys.executable, "-m", "tpg.cli", "verify", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"tpg: error: {path}: invalid JSON (")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", [["obstruct", "S6"], ["classify"]])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, command, under):
        blocker = tmp_path / "F"
        blocker.write_text("x")
        out = blocker / under
        proc = subprocess.run(
            [sys.executable, "-m", "tpg.cli", "--out", str(out), *command],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"tpg: error: --out {out}: cannot create")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "x"

    def test_obstruct_destination_that_is_a_directory(self, tmp_path):
        taken = tmp_path / "S6.cert.json"
        taken.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "tpg.cli", "--out", str(tmp_path),
             "obstruct", "S6"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == (f"tpg: error: --out {tmp_path}: cannot write "
                               f"S6.cert.json (Is a directory)\n")
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    def test_classify_destination_that_is_a_directory(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(classify, "classify_all",
                            lambda *args: pytest.fail("the pipeline ran"))
        for name in classify.OUTPUT_FILES:
            (tmp_path / name).mkdir()
            code, out, err = run_cli(capsys, "--out", str(tmp_path), "classify")
            assert (code, out) == (2, "")
            assert err == (f"tpg: error: --out {tmp_path}: cannot write "
                           f"{name} (Is a directory)\n")
            (tmp_path / name).rmdir()

    def test_classify_checks_out_before_the_pipeline(self, capsys, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(classify, "classify_all",
                            lambda *args: pytest.fail("the pipeline ran"))
        (tmp_path / "F").write_text("x")
        code, out, err = run_cli(capsys, "--out", str(tmp_path / "F"), "classify")
        assert (code, out) == (2, "")
        assert "--out" in err

    def test_verify_flag_rechecks_before_writing(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "--verify", "obstruct", "S3xS3xS3")
        assert code == 0
        assert "klein witness" in out
        assert (tmp_path / "S3xS3xS3.cert.json").is_file()

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        # the good certificate is verified first: the configuration is then
        # cached, and the tampered one must still be rejected
        code, _, _ = run_cli(capsys, "--out", str(tmp_path), "obstruct", "S6")
        assert code == 0
        path = tmp_path / "S6.cert.json"
        good = path.read_text()
        assert run_cli(capsys, "verify", str(path))[0] == 0
        payload = json.loads(good)
        payload["certificate"]["generators"] = ["(1,2)", "(3,4)", "(1,2)(3,4)"]
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "REJECTED" in out
        path.write_text(good)
        assert run_cli(capsys, "verify", str(path))[0] == 0

    def test_wrong_schema_rejected(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"schema": "something/9"}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "schema" in err

    def test_non_object_top_level_rejected(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1,2]")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "expected a JSON object" in err

    def test_certificate_of_wrong_type_rejected(self, capsys, tmp_path):
        path = tmp_path / "list-cert.json"
        path.write_text(json.dumps(
            {"schema": "tpg.certificate/1", "type": "S6", "certificate": []}))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "malformed certificate" in err

    def test_null_degree_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "--out", str(tmp_path), "obstruct", "S6")
        assert code == 0
        path = tmp_path / "S6.cert.json"
        payload = json.loads(path.read_text())
        assert payload["certificate"]["kind"] == "klein"
        payload["certificate"]["degree"] = None
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert "malformed certificate" in err

    def test_non_integer_degree_rejected(self, capsys, tmp_path):
        payload = json.loads(_payload("S6"))
        path = tmp_path / "S6.cert.json"
        for degree in (float("inf"), 6.0, True):
            payload["certificate"]["degree"] = degree
            path.write_text(json.dumps(payload))
            code, _, err = run_cli(capsys, "verify", str(path))
            assert code == 2
            assert "malformed certificate" in err

    def test_m1_audit_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--out", str(tmp_path), "obstruct", "2^4:S5")
        assert code == 0
        assert "m1-audit witness triple" in out
        assert "-3/256" in out
        payload = json.loads((tmp_path / "2_4_S5.cert.json").read_text())
        assert payload["certificate"]["kind"] == "m1-audit"

    def test_hostile_generators_rejected(self, capsys, tmp_path):
        # a generator outside the group, and members of it that generate all
        # of it: both are rejected before a large closure is built
        code, _, _ = run_cli(
            capsys, "--out", str(tmp_path), "obstruct", "2^4:S5")
        assert code == 0
        path = tmp_path / "2_4_S5.cert.json"
        payload = json.loads(path.read_text())
        long_cycle = "(" + ",".join(str(i) for i in range(1, 17)) + ")"
        target = classify.obstruction_target("2^4:S5")
        for gens in (["(1,2)", long_cycle], [str(g) for g in target.generators]):
            payload["certificate"]["generators"] = gens
            path.write_text(json.dumps(payload))
            code, out, _ = run_cli(capsys, "verify", str(path))
            assert code == 1
            assert "REJECTED" in out

    @pytest.mark.parametrize("field", ["lhs", "rhs"])
    @pytest.mark.parametrize("value", ["1/0", "1e999999999", "nan", "inf"])
    def test_hostile_rational_rejected(self, capsys, tmp_path, field, value):
        # Fraction("1/0") raises ZeroDivisionError; Fraction("1e999999999")
        # builds 10**999999999
        payload = json.loads(_payload("2^4:S5"))
        payload["certificate"][field] = value
        path = tmp_path / "2_4_S5.cert.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "REJECTED" in out

    @pytest.mark.parametrize("field", ["lhs", "rhs"])
    def test_missing_rational_rejected(self, capsys, tmp_path, field):
        payload = json.loads(_payload("2^4:S5"))
        del payload["certificate"][field]
        path = tmp_path / "2_4_S5.cert.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1
        assert "REJECTED" in out


class TestOneProcess:
    """Targets and the parser are built once per process; verdicts are not."""

    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        assert cli._parser() is cli._parser()
        code, out, _ = run_cli(
            capsys, "--format", "json", "--out", str(tmp_path), "obstruct", "S6")
        assert code == 0
        assert json.loads(out)["type"] == "S6"
        code, out, _ = run_cli(capsys, "verify", str(tmp_path / "S6.cert.json"))
        assert code == 0
        assert out.startswith("S6: verified (klein witness")
        assert run_cli(capsys, )[0] == 2
        assert run_cli(capsys, "normals", "G12")[0] == 2
        assert run_cli(capsys, "--jobs", "2", "catalog", "--only", "G1")[0] == 2
        assert run_cli(capsys, "--coset-capacity", "0", "catalog")[0] == 2

    def test_cached_target_is_not_rebuilt(self, capsys, tmp_path, monkeypatch):
        cfg = classify.target_config("2xS3xS3")

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a cached target was built again")

        monkeypatch.setattr(classify, "todd_coxeter", no_rebuild)
        monkeypatch.setattr(classify, "t_closure", no_rebuild)
        assert classify.target_config("2xS3xS3") is cfg
        assert classify.obstruction_target("2xS3xS3") is cfg.group
        code, _, _ = run_cli(capsys, "--out", str(tmp_path), "--verify",
                             "obstruct", "2xS3xS3")
        assert code == 0
        code, out, _ = run_cli(capsys, "verify",
                               str(tmp_path / "2xS3xS3.cert.json"))
        assert code == 0
        assert "verified" in out

    def test_certificates_match_a_fresh_process(self, capsys, tmp_path,
                                                classification_report):
        # classify_all has run in this process (the fixture), and the
        # 1944 reference group is built before either obstruct call
        names = ("2^4:S5", "(3^2:2):(3^{1+2}:2^2)")
        fresh = tmp_path / "fresh"
        for name in names:
            proc = subprocess.run(
                [sys.executable, "-m", "tpg.cli", "--out", str(fresh),
                 "obstruct", name], capture_output=True)
            assert proc.returncode == 0, proc.stderr
        classify._references(1944)
        for name in names:
            cert_name = f"{cli._safe_name(name)}.cert.json"
            assert run_cli(capsys, "--out", str(tmp_path), "obstruct", name)[0] == 0
            assert run_cli(capsys, "verify", str(tmp_path / cert_name))[0] == 0
            want = (fresh / cert_name).read_bytes()
            assert (tmp_path / cert_name).read_bytes() == want, name
            assert cert_to_dict(classification_report.certificates[name]) \
                == json.loads(want)["certificate"]


@functools.cache
def _payload(name: str) -> str:
    cert = obstruct(classify.target_config(name))
    return json.dumps({"schema": cli.CERT_SCHEMA, "type": name,
                       "certificate": cert_to_dict(cert)})


_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9),
                          st.floats(), st.text(max_size=8))
_perm_texts = st.one_of(
    st.permutations(range(6)).map(lambda img: str(Perm(img))),
    st.text(alphabet="(),0123456789- ", max_size=16))
_word_texts = st.text(alphabet="abc()^*1- 0123456789", max_size=24)
_mutations = st.one_of(
    st.tuples(st.just("degree"), _json_scalars),
    st.tuples(st.just("group_order"), _json_scalars),
    st.tuples(st.just("generators"),
              st.one_of(_json_scalars, st.lists(_perm_texts, max_size=5))),
    st.tuples(st.just("members"), st.one_of(_json_scalars, st.lists(
        st.one_of(_json_scalars, st.lists(st.one_of(_perm_texts, _word_texts),
                                          max_size=3)),
        max_size=8))),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_mutations, max_size=3), st.data())
def test_fuzzed_certificate_ends_in_an_exit_code(mutations, data):
    payload = json.loads(_payload("S6"))
    cert = payload["certificate"]
    if data.draw(st.booleans()):  # a reordered or partial set of real members
        cert["members"] = data.draw(st.lists(st.sampled_from(cert["members"]),
                                             max_size=8))
    for field, value in mutations:
        cert[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(payload))
        assert cli.run(["verify", str(path)]) in (0, 1, 2)


_m1_perm_texts = st.one_of(
    st.permutations(range(16)).map(lambda img: str(Perm(img))),
    st.text(alphabet="(),0123456789- ", max_size=16))
_rat_texts = st.one_of(
    st.fractions().map(rat_str),
    st.sampled_from(["1/0", "1e999999999", "nan", "inf", "-0", " 1/256"]),
    st.text(alphabet="0123456789/-+.eEnaif ", max_size=12))
_m1_mutations = st.one_of(
    st.tuples(st.just("basis"),
              st.one_of(_json_scalars, st.lists(_m1_perm_texts, max_size=12))),
    st.tuples(st.just("triple"),
              st.one_of(_json_scalars, st.lists(_m1_perm_texts, max_size=4))),
    st.tuples(st.sampled_from(["lhs", "rhs"]), st.one_of(_json_scalars, _rat_texts)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_m1_mutations, max_size=3), st.data())
def test_fuzzed_m1_certificate_ends_in_an_exit_code(mutations, data):
    payload = json.loads(_payload("2^4:S5"))
    cert = payload["certificate"]
    members = st.sampled_from(cert["basis"])
    for field, size in (("basis", 12), ("triple", 4)):
        if data.draw(st.booleans()):  # real members, reordered or repeated
            cert[field] = data.draw(st.lists(members, max_size=size))
    for field, value in mutations:
        cert[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(json.dumps(payload))
        assert cli.run(["verify", str(path)]) in (0, 1, 2)


_PRES_LINES = ("mnp: 6 6 6", "mnp: 3 3 3", "r: 6 6 6 - 3", "r: 2 - - 1 -",
               "relator: (a * b^(cabc))^2", "subgroup: a", "subgroup: b^(ca)")
_pres_numbers = st.lists(st.sampled_from(
    ["0", "1", "2", "3", "6", "7", "-", "-1", "x", "2.5", "", "²"]), max_size=6).map(" ".join)
# small exponents keep every word short, and the coset capacity bounds each enumeration
_pres_words = st.lists(st.sampled_from(
    ["a", "b", "c", "1", "ab", "(", ")", "^", "^2", "^3", "^-1", "^0", "^(c)",
     "*", " ", "#", ":", "x"]), max_size=10).map("".join)
_pres_keys = st.sampled_from(["mnp", "r", "relator", "subgroup", "", "gens", "mnp r"])
_pres_mutant = st.tuples(_pres_keys, st.sampled_from([": ", ":", " ", "::"]),
                        st.one_of(_pres_numbers, _pres_words)).map("".join)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_PRES_LINES), max_size=5),
       st.lists(st.tuples(st.integers(0, 5), _pres_mutant), max_size=2))
def test_fuzzed_presentation_ends_in_an_exit_code(lines, mutants):
    for at, line in mutants:
        lines.insert(at, line)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pres"
        path.write_text("\n".join(lines) + "\n")
        code = cli.run(["--coset-capacity", "200", "enumerate", str(path)])
    assert code in (0, 1, 2)


class TestClassify:
    def test_exit_code_flags_verified_discrepancies(self, cli_classify):
        assert cli_classify.code1 == 1
        assert cli_classify.code2 == 1

    def test_artifacts_written(self, cli_classify):
        data = json.loads((cli_classify.out1 / "classification.json").read_text())
        assert data["schema"] == "tpg.classification/1"
        assert len(data["types"]) == 36
        assert {e["name"] for e in data["excluded"]} == set(EXCLUDED_TYPE_NAMES)
        tables = (cli_classify.out1 / "tables.md").read_text()
        assert "## Reconciliation" in tables

    def test_byte_identical_reruns(self, cli_classify):
        for name in ("classification.json", "tables.md"):
            first = (cli_classify.out1 / name).read_bytes()
            second = (cli_classify.out2 / name).read_bytes()
            assert first == second, name

    def test_output_baseline(self, cli_classify):
        # the JSON embeds all ten certificates, so this pins them too
        wanted = {
            "classification.json":
                "398accb4b06309b63a0dc46c416b940be5739086b6e30185082d699e882ad4e4",
            "tables.md":
                "98b90335ab30caf62e675223aae588da82871b9df7746f1d7b9a64f0543136d8",
        }
        for name, digest in wanted.items():
            data = (cli_classify.out1 / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
