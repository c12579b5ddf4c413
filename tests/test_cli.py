"""Command-line interface: subcommands, exit codes, deterministic output."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "lkwb", *args],
                          capture_output=True, text=True, env=env)
    if expect is not None:
        assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


class TestRelations:
    def test_symbolic_n3(self):
        proc = run_cli("relations", "--n", "3", "--symbolic")
        obj = json.loads(proc.stdout)
        assert obj["all_passed"] is True
        assert obj["seed"] == 0

    def test_point_mode_with_convention(self):
        proc = run_cli("relations", "--n", "4", "--r", "2/1", "--l", "5/1", "--convention")
        obj = json.loads(proc.stdout)
        assert obj["all_passed"] is True
        assert obj["convention"]["rescale_factor"] == "r"

    def test_missing_l_is_invalid(self):
        run_cli("relations", "--n", "4", "--r", "2/1", expect=2)

    def test_export_matrices(self, tmp_path):
        from lkwb.lkrep import LKParams, build_rep
        from lkwb.scalars import QQ

        out = tmp_path / "mats"
        proc = run_cli("relations", "--n", "3", "--r", "2/1", "--l", "5/1",
                       "--export-matrices", str(out))
        obj = json.loads(proc.stdout)
        names = ["g1.mat", "e1.mat", "g2.mat", "e2.mat"]
        assert obj["exported"] == [str(out / name) for name in names]
        rep = build_rep(LKParams(3, 5, 2, QQ))
        mats = [rep.g[0], rep.e[0], rep.g[1], rep.e[1]]
        for name, mat in zip(names, mats):
            assert (out / name).read_text() == mat.to_text()

    # sha256 of `relations` reports over Q(l,r), Q and Q[x]/(f), recorded when
    # the gate compared whole matrices built for each relation
    GOLDEN_RELATIONS = {
        ("--n", "3", "--symbolic", "--convention"):
            "1d45858b0a9ec32d9427281988046afef2cafd0dbfdb22acbb5da65c6c278f1c",
        ("--n", "4", "--symbolic", "--convention"):
            "e3ce5b81cf404f725a006c4fb972b2528093b71cd816578a22dff3b1c1dabb9a",
        ("--n", "5", "--symbolic", "--convention"):
            "be9cf602d68da9a01c239ff3835b66afac8f2fc041dc788397f47fa4318a86cd",
        ("--n", "7", "--r", "2/1", "--l", "5/1"):
            "262de338ed763bb3f6a3c3aa3ae1bb7789433a6b5c493fdedbd0791dd1b7f728",
        ("--n", "6", "--r", "cyclotomic:phi24", "--l", "2/1"):
            "eb3e2b4e0844f78c2f483644d6bb40f93cd49ae4c077712a2b23abea8e4636ca",
    }

    @pytest.mark.parametrize("args", sorted(GOLDEN_RELATIONS))
    def test_golden_relations_reports(self, args):
        proc = run_cli("relations", *args)
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_RELATIONS[args]


class TestDet:
    def test_locus_substituted(self):
        proc = run_cli("det", "--n", "4", "--locus", "l=r", "--mode", "substituted")
        obj = json.loads(proc.stdout)
        assert obj["verdict"] == "identically_zero"

    def test_generic_sampled(self):
        proc = run_cli("det", "--n", "4", "--locus", "generic", "--mode", "sampled", "--seed", "9")
        obj = json.loads(proc.stdout)
        assert obj["verdict"] == "nonzero"

    def test_infeasible_mode_is_error(self):
        proc = run_cli("det", "--n", "8", "--locus", "l=r", "--mode", "substituted", expect=1)
        assert "InfeasibleMode" in proc.stderr

    @pytest.mark.parametrize("mode", ["substituted", "symbolic"])
    def test_custom_locus_needs_sampled_mode(self, mode):
        proc = run_cli("det", "--n", "4", "--locus", "custom", "--l", "5/1", "--mode", mode,
                       expect=1)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: InfeasibleMode: ")
        assert "--mode sampled" in proc.stderr
        assert "Traceback" not in proc.stderr

    # sha256 of the reports of `det --n 6 --locus L --mode substituted --seed 29`,
    # recorded before the kernel-vector witness replaced most of the point ranks
    GOLDEN_N6 = {
        "l=r": "6c4ba516e6c5b4e83a5c19884efc81bbcf6bdc9e0fe331608f9e4185cad43d16",
        "l=-r3": "251c9698d819f9105539dfe3911f77b6d9628b21a3bd236ceaa45bbe4cd84b04",
        "l=r3-2n": "0e22df482ea6cd03d315c81224da2d2111d07c54e96c6342b5efca84c01a420f",
        "l=+r3-n": "aff930b69305a4a06c68166b2ef6cc9dced945a776854bb6782cd6f7465c71be",
        "l=-r3-n": "9d7d49254b016600c7c55dde242359b7633d340e9b9c8dfea4f90a34538fdfee",
    }

    @pytest.mark.parametrize("locus", sorted(GOLDEN_N6))
    def test_golden_n6_substituted_reports(self, locus):
        proc = run_cli("det", "--n", "6", "--locus", locus, "--mode", "substituted",
                       "--seed", "29")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_N6[locus]

    # sha256 of the reports of `det --n 7 --locus L --mode substituted --seed 29`,
    # recorded when Laurent coefficients were all Fractions
    GOLDEN_N7 = {
        "l=r": "f9989646e2ba502b867c8d56864e210fc8a99f728d98bd6c963119845e9f59e0",
        "l=-r3": "e552628f6b48330c43dff52f05d22e9de45ca046908d8b4b75e3572fdd743333",
        "l=r3-2n": "a5621a0145d62e410f0501bda89c16fbfe13add001c448feb8879bf5becaf34b",
        "l=+r3-n": "464ae87bcb24ff749ffcd5d1c3201caed0c6a94ca7af212b8250e1174cc48c5b",
        "l=-r3-n": "a24bb202834cf1eb1ab86c2f934e04f2e843df1aa661150a0c4f51de637ab5e6",
    }

    @pytest.mark.parametrize("locus", sorted(GOLDEN_N7))
    def test_golden_n7_substituted_reports(self, locus):
        proc = run_cli("det", "--n", "7", "--locus", locus, "--mode", "substituted",
                       "--seed", "29")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_N7[locus]

    def test_golden_symbolic_substituted_entrywise(self):
        # the Q(l,r) matrix substituted entry by entry; recorded when Laurent
        # coefficients were all Fractions
        proc = run_cli("det", "--n", "5", "--locus", "l=-r3", "--mode", "symbolic",
                       "--seed", "29")
        assert proc.stderr == ""
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "324096e3cb1ae8655eb6af517e12e3bf2ff53cae8d9e12fd612fef9314922b20"

    # sha256 of the reports, at --seed 29, of the det paths that call linalg.det:
    # the symbolic Bareiss (n <= 4) and grid (n = 5) verdicts and the sampled points;
    # recorded when each determinant had its own elimination loop
    GOLDEN_DET = {
        ("3", "generic", "symbolic"): "fca5f0870162d7193053d710a37ead8e71b1f9f675dc7ccad1e96025908a1e58",
        ("4", "generic", "symbolic"): "81202ad6fcad2877c480a567fe56b88570e3d510ddb063472eddc18cae30fc73",
        ("5", "generic", "symbolic"): "0f4860d6017dd29f2c2faff11e1ae032c00122c555d0538299de3be48dd2048a",
        ("6", "generic", "sampled"): "556621c74cb0e52962551cca00a1723d72168aaa4cc5f53dc1b88323e12273ac",
        ("6", "l=r", "sampled"): "1bea6eba81feb0eadf5c6b1a4c23014190b8bcda17f5bb744a7e2fe694721c01",
    }

    @pytest.mark.parametrize("n, locus, mode", sorted(GOLDEN_DET))
    def test_golden_det_reports(self, n, locus, mode):
        proc = run_cli("det", "--n", n, "--locus", locus, "--mode", mode, "--seed", "29")
        assert proc.stderr == ""
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == self.GOLDEN_DET[(n, locus, mode)]

    @pytest.mark.parametrize("args", [("det", "--n", "4", "--mode", "sampled"),
                                      ("kernel", "--n", "4", "--locus", "l=r", "--r", "2/1")])
    def test_jobs_is_a_certify_option_only(self, args):
        proc = run_cli(*args, "--jobs", "2", expect=2)
        assert "unrecognized arguments: --jobs 2" in proc.stderr
        assert proc.stdout == ""


class TestKernel:
    def test_expected_dimension(self):
        proc = run_cli("kernel", "--n", "5", "--locus", "l=r", "--r", "2/1")
        obj = json.loads(proc.stdout)
        assert obj["k"] == 5
        assert obj["expected_k"] == 5
        assert obj["invariant"] is True

    def test_cyclotomic_r(self):
        proc = run_cli("kernel", "--n", "3", "--locus", "l=-r3", "--r", "cyclotomic:phi12")
        obj = json.loads(proc.stdout)
        assert obj["k"] == 2
        assert obj["field"] == "mod: x^4 - x^2 + 1"

    def test_r3_minus_2n_is_minus_r3_at_r_2n_minus_one(self):
        # r^10 = -1 makes r^(3-2n) = -r^3, so k is 1 + (n-1)(n-2)/2 = 7
        proc = run_cli("kernel", "--n", "5", "--locus", "l=r3-2n", "--r", "cyclotomic:phi20")
        obj = json.loads(proc.stdout)
        assert obj["k"] == 7
        assert obj["expected_k"] == 7

    # sha256 of the reports of `kernel --n 5 --locus L --r cyclotomic:phi20`,
    # recorded when Q[x]/(f) coefficients were Fractions
    GOLDEN_N5_PHI20 = {
        "l=r": "01b3e54ff6c7caef9befdb35a68b162ab112bc1fcdf9a80bb0d79d303b7e8f02",
        "l=-r3": "aaa7952ce772b359bc6b76cef06ce44815f206d726e8dc3d43dc4e7417b75804",
        "l=r3-2n": "b957013e348dee6e2f1ac13113987b2e4532db0bff5fd878938260df259b583c",
        "l=+r3-n": "954bf8c32ca934357da47907d6324e1c810520700db49db67e7c3bf0fdb3f5bf",
        "l=-r3-n": "dd2e20a3fcb79263950dd081c415dedd7ebeb2ba2aa38fe3098cf3cc7c651a5b",
    }

    @pytest.mark.parametrize("locus", sorted(GOLDEN_N5_PHI20))
    def test_golden_n5_phi20_reports(self, locus):
        proc = run_cli("kernel", "--n", "5", "--locus", locus, "--r", "cyclotomic:phi20")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_N5_PHI20[locus]

    # sha256 of the reports of `kernel --n 6 --locus L --r cyclotomic:phi24 --seed 29`,
    # which invert in Q[x]/(f); recorded when inversion ran on Fraction coefficients
    GOLDEN_N6_PHI24 = {
        "l=r": "9b7113925cccadfcd255f5274809963ee7510a561026170b1c5165dc455a091f",
        "l=-r3": "38795123cb847ab9e9342b00f65fc24b7ac11aa4dbbb3fd0eed2e8b603add584",
        "l=r3-2n": "3ebaeaf29209931d6ee05d0c4daf2720fadc35cced330fb654b8a99c4ce37bd8",
        "l=+r3-n": "e55528a4251e5d794531b4caa90f73e6cad275c10a1e7f9c7b345191a00199d3",
        "l=-r3-n": "bb97eb34503dab271088b3f729807de712d36089e5332cd07076c424703b9275",
    }

    @pytest.mark.parametrize("locus", sorted(GOLDEN_N6_PHI24))
    def test_golden_n6_phi24_reports(self, locus):
        proc = run_cli("kernel", "--n", "6", "--locus", locus, "--r", "cyclotomic:phi24",
                       "--seed", "29")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_N6_PHI24[locus]

    # sha256 of the reports of `kernel --n 3 --locus L --r cyclotomic:phi12 --seed 29`,
    # recorded when every closure was an exact spin
    GOLDEN_N3_PHI12 = {
        "l=-r3": "be91ff7e9713d942d5256254703b4bbc1f86156f15c3032568a52c7be5cf8d2c",
        "l=r3-2n": "72b96fe42595674bf032eaa03dcee19fe56af9b01d852d5ab28c7e7b6af89d8e",
        "l=+r3-n": "6120376f587a5db8c9f5836fb4f03302f23da4a75bcf4250c32ac4cd10d74c3d",
        "l=-r3-n": "96f7782df479609061ce7ee82b06314a6f1a43d94ed03693683186629fd32833",
    }

    @pytest.mark.parametrize("locus", sorted(GOLDEN_N3_PHI12))
    def test_golden_n3_phi12_reports(self, locus):
        proc = run_cli("kernel", "--n", "3", "--locus", locus, "--r", "cyclotomic:phi12",
                       "--seed", "29")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_N3_PHI12[locus]

    def test_decimal_r_rejected(self):
        run_cli("kernel", "--n", "4", "--locus", "l=r", "--r", "2.0", expect=2)

    def test_unknown_cyclotomic_rejected(self):
        run_cli("kernel", "--n", "4", "--locus", "l=r", "--r", "cyclotomic:phi7", expect=2)

    @pytest.mark.parametrize("args", [
        ("kernel", "--n", "4", "--locus", "l=r", "--r", "1/0"),
        ("commutant", "--n", "4", "--r", "2/1", "--l", "1/0"),
    ])
    def test_zero_denominator_rejected(self, args):
        proc = run_cli(*args, expect=2)
        assert "cannot parse" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_generic_locus_requires_l(self):
        proc = run_cli("kernel", "--n", "4", "--r", "2/1", expect=2)
        assert proc.stdout == ""
        assert "requires --l" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCertify:
    def test_n4_passes(self):
        proc = run_cli("certify", "--n", "4", "--r", "2/1")
        obj = json.loads(proc.stdout)
        assert obj["all_match"] is True
        assert len(obj["loci"]) == 6  # five catalog loci + generic

    def test_byte_identical_reruns(self):
        a = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5").stdout
        b = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5").stdout
        assert a == b

    def test_golden_phi20_report(self):
        # sha256 recorded when Q[x]/(f) coefficients were Fractions
        proc = run_cli("certify", "--n", "5", "--r", "cyclotomic:phi20", "--seed", "29")
        assert proc.stderr == ""
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == "b78b9fe3055166db450d74a6a87d84f63ef24627332f2151677cd7b959140d03"

    # sha256 of the reports of `certify --n N --r R --seed 29`, whose probe notes
    # come from the squarefree decomposition; recorded when it ran in Q[x]
    GOLDEN_Q = {
        ("5", "2/1"): "8b360a8975221e8b7f50d07c283c918df964dc92290c67f40486abecfac16669",
        ("4", "3/2"): "704d29dc53fb27f8427253e4cd3d6f602ecee3a788bf1c8aab8b8fbc2c619aef",
    }

    @pytest.mark.parametrize("n, r", sorted(GOLDEN_Q))
    def test_golden_rational_reports(self, n, r):
        proc = run_cli("certify", "--n", n, "--r", r, "--seed", "29")
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_Q[(n, r)]

    # sha256 of the reports of `certify --n N --r R --seed S`, recorded when
    # every closure was an exact spin
    GOLDEN_CLOSURES = {
        ("7", "2/1", "29"): "a4afc8d3fa1474e943550ebdfbc73c8734a61f15f6b84cf01f9798d16e8bc3ca",
        ("6", "3/2", "1"): "f4ebf27a210216f8e860d27200a84c270419ff2c722a8f5d4cdae2b49fdfec01",
    }

    @pytest.mark.parametrize("n, r, seed", sorted(GOLDEN_CLOSURES))
    def test_golden_closure_reports(self, n, r, seed):
        proc = run_cli("certify", "--n", n, "--r", r, "--seed", seed)
        assert proc.stderr == ""
        digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
        assert digest == self.GOLDEN_CLOSURES[(n, r, seed)]

    def test_jobs_matches_serial(self):
        a = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5").stdout
        b = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5", "--jobs", "2").stdout
        assert a == b

    def test_jobs_below_one_is_invalid(self):
        proc = run_cli("certify", "--n", "3", "--r", "2/1", "--jobs", "0", expect=2)
        assert "jobs" in proc.stderr

    def test_probe_trials_is_not_an_option(self):
        proc = run_cli("certify", "--n", "5", "--r", "2", "--probe-trials", "10", expect=2)
        assert "unrecognized arguments: --probe-trials 10" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_text_format_same_verdicts(self):
        a = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5").stdout
        t = run_cli("certify", "--n", "3", "--r", "2/1", "--seed", "5", "--format", "text").stdout
        obj = json.loads(a)
        assert f"all_match: {obj['all_match']}" in t

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("certify", "--n", "3", "--r", "2/1", "--out", str(out))
        assert "report written to" in proc.stdout
        obj = json.loads(out.read_text())
        assert obj["all_match"] is True


class TestScanClosurePersist:
    def test_scan(self):
        proc = run_cli("scan", "--n", "4", "--r", "3/2", "--seed", "42")
        obj = json.loads(proc.stdout)
        assert obj["all_match"] is True
        assert sum(1 for row in obj["rows"] if row["locus"] == "random") == 5

    def test_closure(self):
        proc = run_cli("closure", "--n", "4", "--locus", "l=r", "--r", "2/1")
        obj = json.loads(proc.stdout)
        assert obj["closure_dim"] == 2
        assert obj["contained_in_kernel"] is True

    def test_closure_at_exceptional_point_checks_containment(self):
        # at r^10 = -1, K(5) is a line plus a 6-dimensional subspace, and the
        # first kernel vector spins all of it
        proc = run_cli("closure", "--n", "5", "--locus", "l=-r3", "--r", "cyclotomic:phi20")
        obj = json.loads(proc.stdout)
        assert (obj["k"], obj["closure_dim"], obj["expected_dim"]) == (7, 7, 6)
        assert obj["contained_in_kernel"] is True

    def test_closure_checks_expected_dim_at_rational_r(self, monkeypatch, capsys):
        from lkwb import cli

        def one_more(n, locus, r_val):
            return {**expected_spectrum(n, locus, r_val), "min_dim": 3}

        expected_spectrum = cli.expected_spectrum
        monkeypatch.setattr(cli, "expected_spectrum", one_more)
        assert cli.main(["closure", "--n", "4", "--locus", "l=r", "--r", "2/1"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert (obj["closure_dim"], obj["expected_dim"]) == (2, 3)
        assert obj["contained_in_kernel"] is True

    def test_closure_escaping_kernel_fails_at_exceptional_point(self, monkeypatch, capsys):
        from lkwb import cli

        def spin_first_basis_vector(rep, seed):
            e0 = [rep.field.one()] + [rep.field.zero()] * (rep.dim - 1)
            return minimal_invariant(rep, e0)

        minimal_invariant = cli.minimal_invariant
        monkeypatch.setattr(cli, "minimal_invariant", spin_first_basis_vector)
        args = ["closure", "--n", "5", "--locus", "l=-r3", "--r", "cyclotomic:phi20"]
        assert cli.main(args) == 1
        assert json.loads(capsys.readouterr().out)["contained_in_kernel"] is False

    def test_commutant_generic(self):
        proc = run_cli("commutant", "--n", "4", "--r", "2/1", "--l", "5/1")
        obj = json.loads(proc.stdout)
        assert obj["commutant_dim"] == 1

    # sha256 of `commutant` reports over Q[x]/(f) and over Q, recorded when
    # only Q had the modular certificate and it reduced the system entry by entry
    GOLDEN_COMMUTANT = {
        ("--n", "4", "--locus", "l=r", "--r", "cyclotomic:phi12"):
            "fc66ef56dd694c96f7f9bd1a4136743e8fb47daa81e099ddf60029d440822caa",
        ("--n", "5", "--r", "cyclotomic:phi20", "--l", "2/1"):
            "98cc3bb902ac759244cdafd3cd2ef84c1e5f9412c39c814cf6ac7248cbab7842",
        ("--n", "6", "--locus", "l=-r3", "--r", "cyclotomic:phi24"):
            "f8a6661e98928727fcaf5ebf4411c1f33723d99d37883c568349db03b7e21985",
        ("--n", "5", "--r", "2/1", "--l", "5/1"):
            "bcc294dbaf72588a762c331097ccbc7b8a6036e13dea2e4a50027609b90d9c12",
    }

    @pytest.mark.parametrize("args", sorted(GOLDEN_COMMUTANT))
    def test_golden_commutant_reports(self, args):
        proc = run_cli("commutant", *args)
        assert proc.stderr == ""
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == self.GOLDEN_COMMUTANT[args]

    @pytest.mark.parametrize("option, value", [("--l", "-9/2"), ("--r", "-3/2")])
    def test_negative_value_after_a_space(self, option, value):
        values = {"--r": "2/1", "--l": "5/1", option: value}
        spaced = run_cli("commutant", "--n", "3", "--r", values["--r"], "--l", values["--l"])
        joined = run_cli("commutant", "--n", "3", f"--r={values['--r']}",
                         f"--l={values['--l']}")
        assert spaced.stdout == joined.stdout and spaced.stderr == joined.stderr == ""
        assert json.loads(spaced.stdout)[option[2:]] == value

    def test_persist(self):
        proc = run_cli("persist", "--locus", "l=r", "--r", "2/1", "--n", "5", "--n-max", "6")
        obj = json.loads(proc.stdout)
        assert obj["verified"] is True

    def test_persist_wrong_locus(self):
        run_cli("persist", "--locus", "l=r3-2n", "--r", "2/1", "--n", "5", expect=2)

    @pytest.mark.parametrize("args", [
        ("--n", "9", "--locus", "l=r", "--r", "2/1", "--n-max", "6"),
        # refused for --n, before the locus, which n = 3 would also refuse
        ("--n", "3", "--locus", "l=r", "--r", "2/1"),
    ])
    def test_persist_starts_at_n_5_only(self, args):
        proc = run_cli("persist", *args, expect=2)
        assert proc.stdout == ""
        assert "--n must be 5" in proc.stderr and "l=r is a locus" not in proc.stderr


class TestConfigValidation:
    # a catalog locus fixes l, and det takes no --r
    @pytest.mark.parametrize("args", [
        ("det", "--n", "4", "--locus", "l=r", "--mode", "substituted", "--l", "7/1"),
        ("det", "--n", "4", "--locus", "l=r", "--mode", "substituted", "--r", "2/1"),
        ("kernel", "--n", "4", "--locus", "l=r", "--r", "2/1", "--l", "7/1"),
        ("closure", "--n", "4", "--locus", "l=r", "--r", "2/1", "--l", "7/1"),
        ("commutant", "--n", "4", "--locus", "l=-r3", "--r", "2/1", "--l", "7/1"),
        ("persist", "--n", "5", "--locus", "l=r", "--r", "2/1", "--l", "7/1"),
        # certify and scan take no --l, symbolic relations no point, generic det no l
        ("certify", "--n", "4", "--r", "2/1", "--l", "7/1"),
        ("scan", "--n", "4", "--r", "2/1", "--l", "7/1"),
        ("relations", "--n", "3", "--symbolic", "--r", "2/1", "--l", "7/1"),
        ("det", "--n", "4", "--locus", "generic", "--mode", "sampled", "--l", "7/1"),
        ("det", "--n", "4", "--locus", "generic", "--mode", "symbolic", "--l", "7/1"),
    ])
    def test_ignored_value_is_refused(self, args):
        proc = run_cli(*args, expect=2)
        assert proc.stdout == ""

    def test_n_too_small(self):
        run_cli("certify", "--n", "2", "--r", "2/1", expect=2)
        for argv in (("relations", "--n", "2", "--symbolic"), ("det", "--n", "2")):
            proc = run_cli(*argv, expect=2)
            assert "n must be >= 3" in proc.stderr

    def test_bad_locus(self):
        proc = run_cli("kernel", "--n", "3", "--locus", "l=r", "--r", "2/1", expect=2)
        assert "l=r is a locus only for n >= 4" in proc.stderr

    def test_custom_locus_requires_l(self):
        run_cli("kernel", "--n", "4", "--locus", "custom", "--r", "2/1", expect=2)

    def test_custom_locus_runs(self):
        proc = run_cli("kernel", "--n", "4", "--locus", "custom", "--r", "2/1", "--l", "8/1")
        obj = json.loads(proc.stdout)
        # l = 8 = r^3 is not a catalog locus; kernel is trivial
        assert obj["k"] == 0


class TestManyCallsInOneProcess:
    """main(argv) called again and again in one process, on its one parser."""

    CALLS = (
        ("relations", "--n", "4", "--r", "2/1", "--l", "5/1", "--convention"),
        ("kernel", "--n", "5", "--locus", "l=-r3", "--r", "cyclotomic:phi20", "--seed", "29"),
        ("kernel", "--n", "4", "--locus", "l=r", "--r", "2/1", "--bogus"),
        ("det", "--n", "4", "--locus", "l=r", "--mode", "substituted", "--format", "text"),
        ("relations", "--n", "4", "--r", "2/1"),
        ("certify", "--n", "4", "--r", "2/1", "--seed", "3", "--out", "{out}"),
        ("det", "--help"),
        ("kernel", "--n", "4", "--locus", "l=r", "--r", "2/1", "--seed", "7"),
    )

    def test_each_call_equals_a_fresh_run(self, tmp_path, monkeypatch, capsys):
        from lkwb import cli

        # the usage and help text wrap at the terminal width, which COLUMNS sets
        monkeypatch.setenv("COLUMNS", "80")
        out = tmp_path / "report.json"
        codes = set()
        for call in self.CALLS:
            args = [a.format(out=out) for a in call]
            fresh = run_cli(*args, expect=None)
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            code = cli.main(args)
            got = capsys.readouterr()
            assert (got.out, got.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode), args
            assert (out.read_text() if out.exists() else None) == written
            out.unlink(missing_ok=True)
            codes.add(code)
        assert codes == {0, 2}
        assert cli.build_parser() is cli.build_parser()
