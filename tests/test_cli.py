import json

import pytest

from c4x4det import cli, gdet


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_reference_tuple(self, capsys):
        code, out, _ = run_cli(capsys, "eval", *"2 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1".split())
        assert code == 0
        assert out.strip() == "17"

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "1", *["0"] * 15)
        assert code == 0 and out.strip() == "1"

    def test_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "eval", *["1"] * 16)
        assert code == 0 and out.strip() == "0"

    def test_explain_factors_multiply_out(self, capsys):
        args = "3 1 1 1 1 1 2 1 2 1 1 1 1 1 1 1".split()
        code, out, _ = run_cli(capsys, "eval", "--explain", *args)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "327680"
        assert any("det4(b) = 320" in line for line in lines)
        assert any("beta_norm = 4" in line for line in lines)

    def test_wrong_arity_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "1", "2", "3"])
        assert exc.value.code == 2

    def test_negative_coefficients_accepted(self, capsys):
        args = "0 0 0 0 1 1 0 0 0 -1 0 0 0 0 0 0".split()
        code, out, _ = run_cli(capsys, "eval", *args)
        assert code == 0 and out.strip() == "-375"
        # negating every coefficient preserves the (degree-16) determinant
        code, out, _ = run_cli(capsys, "eval", "-1", *["0"] * 15)
        assert code == 0 and out.strip() == "1"

    def test_route_defect_propagates(self, monkeypatch):
        # only a factorization failure is turned into exit 2; a defect is not
        def broken(a):
            raise ZeroDivisionError("integer division or modulo by zero")

        monkeypatch.setattr(gdet, "det16_factored", broken)
        with pytest.raises(ZeroDivisionError):
            cli.main(["eval", *["1"] * 16])


class TestClassify:
    def test_member(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "17")
        assert code == 0
        assert out.strip() == "in_S odd_16m_plus_1 m=1"

    def test_non_member(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "9")
        assert code == 1
        assert out.strip() == "not_in_S odd_a_no_decomposition"

    def test_set_a_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--json", "--", "-375")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "value": "-375",
            "status": "in_S",
            "class": "set_A",
            "params": {"j": "0", "k": "0", "p1": "5", "p2": "5", "p3": "5"},
            "witness": None,
            "verified": False,
        }

    def test_factorization_failure_exits_2(self, capsys, monkeypatch):
        from c4x4det import classifier
        from c4x4det.errors import FactorizationError

        def gave_up(n, envelope=None):
            raise FactorizationError(f"rho failed to split {n}")

        monkeypatch.setattr(classifier, "factorize", gave_up)
        classifier._classify_unbounded.cache_clear()
        code, out, err = run_cli(capsys, "classify", "4188009")  # 9 mod 16: set A
        classifier._classify_unbounded.cache_clear()
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: rho failed to split 4188009"]

    def test_envelope_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", str(10**13))
        assert code == 2
        assert "envelope" in err

    def test_parse_failure_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "seventeen"])
        assert exc.value.code == 2


class TestWitness:
    def test_member_is_emitted_and_verified(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--json", "17")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "in_S"
        assert doc["witness"] == [2] + [1] * 15
        assert doc["verified"] is True

    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--json", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == "pow2_16"
        assert doc["verified"] is True

    def test_non_member_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "7")
        assert code == 1
        assert out.strip() == "not_in_S odd_bad_residue"

    def test_classifies_each_request_once(self, capsys, monkeypatch):
        import importlib

        witness_module = importlib.import_module("c4x4det.witness")
        real = witness_module.classify
        calls = []

        def counted(n, envelope=None):
            calls.append(n)
            return real(n, envelope=envelope)

        monkeypatch.setattr(cli, "classify", counted)
        monkeypatch.setattr(witness_module, "classify", counted)
        assert run_cli(capsys, "witness", "17")[0] == 0
        assert run_cli(capsys, "witness", "7")[0] == 1
        assert calls == [17, 7]

    def test_no_verify_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness", "--json", "--no-verify", "17"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--no-verify" in out.err

    def test_text_output_shape(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "163840")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "in_S pow2_15 p=5 cofactor=1"
        assert lines[1].startswith("witness: ")
        assert lines[2] == "verified: true"


class TestScan:
    def test_random_scan_clean(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--random", "300", "--bound", "9",
                               "--seed", "42")
        assert code == 0
        assert out.startswith("PASS")

    def test_support_scan_clean(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--support", "0,1", "--limit", "2000")
        assert code == 0
        assert "2000 tuples" in out

    def test_support_with_negatives_equals_form(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--support=-1,0,1", "--limit", "1000")
        assert code == 0

    def test_missing_mode_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan")
        assert code == 2
        assert "required" in err

    @pytest.mark.parametrize("argv", [
        ("--random", "5", "--bound", "-1"),
        ("--random", "-5"),
        ("--support", "0,1", "--limit", "-3"),
        ("--support", "0,1", "--jobs", "0"),
    ])
    def test_out_of_range_count_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and argv[-2] in err

    def test_support_with_random_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--support", "0,1", "--random", "3")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["scan: --support and --random cannot be combined"]

    @pytest.mark.parametrize("argv, line", [
        (("--random", "3", "--limit", "1"), "scan: --limit cannot be used with --random"),
        (("--support", "0,1", "--limit", "5", "--bound", "2"),
         "scan: --bound cannot be used with --support"),
        (("--support", "0,1", "--seed", "7"), "scan: --seed cannot be used with --support"),
        (("--support", "0,1", "--bound", "9", "--seed", "0"),
         "scan: --bound cannot be used with --support"),
    ])
    def test_option_of_the_other_mode_exits_2(self, capsys, argv, line):
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [line]

    def test_random_defaults_are_bound_9_seed_0(self, capsys):
        implicit = run_cli(capsys, "scan", "--random", "40")
        explicit = run_cli(capsys, "scan", "--random", "40", "--bound", "9", "--seed", "0")
        assert implicit[0] == explicit[0] == 0
        # the summary ends in the elapsed time
        assert implicit[1].rsplit(",", 1)[0] == explicit[1].rsplit(",", 1)[0]

    def test_malformed_support_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--support", "0,x,1"])
        assert exc.value.code == 2


class TestSelfcheck:
    def test_small_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--samples", "50", "--seed", "1")
        assert code == 0
        assert "oracle agreement: PASS" in out
        assert "witness round-trip: PASS" in out
        assert "FAIL" not in out

    def test_single_sample(self, capsys):
        code, _, _ = run_cli(capsys, "selfcheck", "--samples", "1", "--seed", "0")
        assert code == 0

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_too_few_samples_exits_2(self, capsys, samples):
        code, out, err = run_cli(capsys, "selfcheck", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"selfcheck: --samples must be at least 1, got {samples}"]

    def test_corrupted_build_exits_1(self, capsys, monkeypatch):
        # negative control: break one determinant route and watch selfcheck fail
        import c4x4det.verification as verification

        real = verification.det16_spectral
        monkeypatch.setattr(verification, "det16_spectral", lambda a: real(a) + 1)
        code, out, _ = run_cli(capsys, "selfcheck", "--samples", "25", "--seed", "1")
        assert code == 1
        assert "FAIL" in out

    def test_broken_witness_exits_1(self, capsys, monkeypatch):
        # the round-trip direction: a witness that fails its re-check
        import c4x4det.verification as verification
        from c4x4det.errors import InternalMismatchError

        def broken(n, envelope=None):
            raise InternalMismatchError(f"witness for {n} is wrong")

        monkeypatch.setattr(verification, "witness", broken)
        code, out, _ = run_cli(capsys, "selfcheck", "--samples", "5", "--seed", "1")
        assert code == 1
        assert "oracle agreement: PASS" in out
        assert "witness round-trip: FAIL" in out
        assert '"detail": "witness failed: witness for 1 is wrong"' in out
