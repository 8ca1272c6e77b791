import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from c4x4det import cli, gdet


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "1", *["0"] * 15)
        assert code == 0 and out.strip() == "1"

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
    @pytest.mark.parametrize("value, line", [
        ("17", "in_S odd_16m_plus_1 m=1"),
        ("-922179077671", "in_S set_A j=0 k=-13 p1=2029 p2=2053 p3=2069"),
        ("491520", "in_S pow2_15 p=5 cofactor=3"),
        ("131072", "in_S pow2_16 m=2"),
    ])
    def test_params_follow_the_certificate_fields(self, capsys, value, line):
        assert run_cli(capsys, "classify", "--", value) == (0, line + "\n", "")

    def test_factorization_failure_exits_2(self, capsys, monkeypatch):
        from c4x4det import classifier, numtheory
        from c4x4det.errors import FactorizationError

        def gave_up(n):
            raise FactorizationError(f"rho failed to split {n}")

        monkeypatch.setattr(numtheory, "_brent_rho", gave_up)
        classifier._classify_unbounded.cache_clear()
        # 9 mod 16 with no prime 5 mod 8: the rejection reads every prime, so
        # the survivor 11003 * 11083 above the trial bound squared goes to rho
        code, out, err = run_cli(capsys, "classify", "121946249")
        classifier._classify_unbounded.cache_clear()
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: rho failed to split 121946249"]


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

    def test_negative_seed_exits_2(self, capsys):
        # random.Random(-s) seeds as Random(s) does: seed -1 would repeat
        # the sample of seed 1
        code, out, err = run_cli(capsys, "scan", "--random", "5", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["scan: --seed must be at least 0, got -1"]

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

    def test_bound_1e7_scan_finishes(self):
        # set-A cofactors at this bound often hold two primes above the trial
        # bound; classify fixes the certificate before rho would split them
        done = subprocess.run(
            [sys.executable, "-m", "c4x4det", "scan", "--random", "50", "--bound", "10000000",
             "--seed", "0"],
            capture_output=True, text=True, env=cli_env(), timeout=20,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("PASS: 50 tuples, 50 distinct values, 0 violations, ")


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

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck", "--samples", "5", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["selfcheck: --seed must be at least 0, got -1"]

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


class TestArgv:
    """The grammar table's parser: option forms, ``--``, help and usage errors."""

    def test_equals_and_separate_values_agree(self, capsys):
        joined = run_cli(capsys, "scan", "--random=40", "--seed=3")
        split = run_cli(capsys, "scan", "--random", "40", "--seed", "3")
        assert joined[0] == split[0] == 0
        assert joined[1].rsplit(",", 1)[0] == split[1].rsplit(",", 1)[0]

    def test_double_dash_then_negative_value(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--", "-375")
        assert code == 0 and out == "in_S set_A j=0 k=0 p1=5 p2=5 p3=5\n"

    def test_option_before_positional(self, capsys):
        before = run_cli(capsys, "witness", "--json", "17")
        after = run_cli(capsys, "witness", "17", "--json")
        assert before == after and before[0] == 0 and json.loads(before[1])["verified"]

    def test_last_repeated_option_wins(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--random", "5", "--random", "7")
        assert code == 0 and out.startswith("PASS: 7 tuples")

    def test_support_value_starting_with_minus(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--support", "-1,0,1", "--limit", "9")
        assert code == 0 and err == ""
        assert out.startswith("PASS: 9 tuples")

    def test_spellings_that_int_accepts(self, capsys):
        for token in ("+17", " 17", "1_7"):
            assert run_cli(capsys, "classify", token) == (0, "in_S odd_16m_plus_1 m=1\n", "")

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("classify", "--help"),
                                      ("scan", "--random", "5", "-h")])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 0
        assert out.out == cli.USAGE and out.err == ""
        assert "c4x4det classify N [--json]" in out.out

    @pytest.mark.parametrize("argv, line", [
        (("scan", "--jobs", "0", "--bound", "-1"), "scan: --bound must be at least 0, got -1"),
        (("scan", "--seed", "-1", "--random", "0"), "scan: --random must be at least 1, got 0"),
        (("selfcheck", "--seed", "-1", "--samples", "0"),
         "selfcheck: --samples must be at least 1, got 0"),
    ])
    def test_the_first_floor_in_table_order_is_named(self, capsys, argv, line):
        # the floors are checked in one order, whatever the order of the argv
        assert run_cli(capsys, *argv) == (2, "", line + "\n")

    @pytest.mark.parametrize("argv, message", [
        ((), "c4x4det: error: missing command"),
        (("frob", "17"), "c4x4det: error: unknown command 'frob'"),
        (("classify", "--bogus", "17"), "c4x4det classify: error: unknown option '--bogus'"),
        (("scan", "--random"), "c4x4det scan: error: --random needs a value"),
        (("classify", "17", "18"), "c4x4det classify: error: unexpected argument '18'"),
        (("scan", "--rand", "5"), "c4x4det scan: error: unknown option '--rand'"),
        (("classify", "seventeen"), "c4x4det classify: error: invalid integer 'seventeen'"),
        (("classify", "--json=yes", "17"),
         "c4x4det classify: error: --json takes no value, got '--json=yes'"),
        (("selfcheck", "--seed=x"), "c4x4det selfcheck: error: --seed: invalid integer 'x'"),
    ])
    def test_bad_argv_exits_2_naming_the_token(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == ""
        usage, error = out.err.rstrip("\n").rsplit("\n", 1)
        assert usage.startswith("usage: c4x4det ")
        assert error == message


SRC = Path(cli.__file__).resolve().parent.parent


def cli_env() -> dict:
    """The environment, with this checkout's package first on ``PYTHONPATH``."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_with_stdout(stdout, unbuffered=False, **options):
    """``python -m c4x4det classify 17`` with ``stdout`` as its stdout."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "c4x4det", "classify", "17"],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60, **options,
    )


class TestUnwritableOutput:
    """A failed write to stdout is exit 2 with one stderr line, not the exit 1 of "not in S"."""

    @staticmethod
    def assert_refused(done, code):
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        reason = f"[Errno {code}] {os.strerror(code)}"
        assert done.stderr.splitlines() == [f"error: cannot write output: {reason}"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_full_device_exits_2(self, unbuffered):
        with open("/dev/full", "w") as full:
            done = run_with_stdout(full, unbuffered)
        self.assert_refused(done, errno.ENOSPC)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exits_2(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_with_stdout(write_end, unbuffered)
        finally:
            os.close(write_end)
        self.assert_refused(done, errno.EPIPE)

    def test_no_stdout_at_all_still_answers_by_exit_status(self):
        # without a file descriptor 1, sys.stdout is None and print writes nothing
        done = run_with_stdout(subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
        assert (done.returncode, done.stderr) == (0, "")
