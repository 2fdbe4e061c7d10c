import argparse
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorint import cli, padic, series
from mirrorint.cli import _build_parser, _int_str_digits, main
from mirrorint.congruences import SWEEPS
from mirrorint.constants import u_conjectured
from mirrorint.series import CANONICAL_KINDS
from mirrorint.sieve import SieveCheckpoint, canonical_json


SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
BIG_PRIME_ROOT = 10**24 + 7


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestConstantsCommand:
    def test_xi_special_case(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "xi", "--N", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["status"] == "pass"
        assert doc["payload"]["value"] == "1/140"
        assert doc["payload"]["breakdown"]["special_case"] is True

    def test_theta_one(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "theta", "--N", "1")
        assert code == 0
        assert json.loads(out)["payload"]["value"] == "1"

    def test_u_two(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "u", "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"] == {"value": "1", "integral": True}

    def test_u_one_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "u", "--N", "1")
        assert code == 0
        assert json.loads(out)["status"] == "degenerate"

    def test_u_beyond_the_int_str_digit_limit(self, capsys):
        # Under Python's default limit of 4300 digits, main lifts the limit
        # for the command and puts it back.
        with _int_str_digits(4300):
            code, out, _ = run_cli(capsys, "constants", "--which", "u", "--N", "2000")
            assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
        with _int_str_digits(0):
            expected = str(u_conjectured(2000)[0])
        assert code == 0 and len(expected) > 4300
        assert json.loads(out)["payload"]["value"] == expected

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--which", "theta", "--N", "7", "--table"
        )
        assert code == 0 and "140" in out and "{" not in out.splitlines()[0]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "constants", "--which", "xi", "--N", "20")
        _, out2, _ = run_cli(capsys, "constants", "--which", "xi", "--N", "20")
        assert out1 == out2

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "constants", "--which", "zeta", "--N", "7")
        assert code == 2

    @pytest.mark.parametrize("which", ["theta", "xi"])
    def test_n_below_one_names_the_flag(self, capsys, which):
        got = run_cli(capsys, "constants", "--which", which, "--N", "0")
        assert got == (2, "", "error: N must be a positive integer\n")

    @pytest.mark.parametrize("k", ["0", "3"])
    @pytest.mark.parametrize("which", ["theta", "xi", "omega", "u"])
    def test_k_rejected_where_unread(self, capsys, which, k):
        got = run_cli(capsys, "constants", "--which", which, "--N", "7", "--k", k)
        assert got == (2, "", f"error: {which} takes no k; only t reads it\n")

    @pytest.mark.parametrize("which", ["theta", "xi", "omega", "u"])
    def test_k_one_is_the_default(self, capsys, which):
        argv = ["constants", "--which", which, "--N", "7"]
        code, out, _ = run_cli(capsys, *argv, "--k", "1")
        assert code == 0 and json.loads(out)["params"]["k"] == 1
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_k_read_by_t(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--which", "t", "--N", "7", "--k", "2")
        assert code == 0 and json.loads(out)["payload"]["value"] == "181440"
        assert run_cli(capsys, "constants", "--which", "t", "--N", "7", "--k", "0")[0] == 2


class TestCertifyCommand:
    def test_theorem_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify", "--map", "qLN", "--L", "5", "--N", "5", "--k", "1",
            "--order", "25", "--root", "auto",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["payload"]["root"] == "2"

    def test_degenerate_n1(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--map", "qN", "--N", "1", "--k", "1", "--order", "10"
        )
        assert code == 0
        assert json.loads(out)["status"] == "degenerate"

    def test_scaled_root_violation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify", "--map", "qLN", "--L", "5", "--N", "5", "--k", "1",
            "--order", "25", "--root", "auto", "--root-scale", "3",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "violation"
        assert doc["payload"]["root"] == "6"
        assert isinstance(doc["payload"]["witness_index"], int)

    def test_explicit_root(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify", "--map", "qtilde", "--N", "6", "--order", "20", "--root", "36",
        )
        assert code == 0

    def test_order_env_default(self, capsys, monkeypatch):
        # The order is --order's, 25 by default: no environment variable
        # sets it, so the same flags print the same bytes.
        argv = ["certify", "--map", "qLN", "--L", "2", "--N", "2", "--root", "auto"]
        monkeypatch.delenv("MIRRORINT_ORDER", raising=False)
        expected = run_cli(capsys, *argv)
        monkeypatch.setenv("MIRRORINT_ORDER", "10")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == expected and code == 0
        assert '"order":25' in out

    def test_bad_root(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--map", "qN", "--N", "2", "--root", "zero"
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("kind", ["qN", "qtilde"])
    def test_L_rejected_where_unread(self, capsys, kind):
        # Only qLN reads --L: another map exits 2 before any output, as a
        # sweep does on a flag its check does not read.
        code, out, err = run_cli(
            capsys, "certify", "--map", kind, "--N", "3", "--L", "5", "--order", "10"
        )
        assert (code, out) == (2, "") and f"{kind} takes no L" in err

    def test_never_factors_the_root(self, capsys, monkeypatch):
        # A trial-division factoring of a 25-digit prime root would not end.
        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(padic, "prime_divisors", refuse)
        monkeypatch.setattr(series, "prime_divisors", refuse)
        code, out, _ = run_cli(
            capsys,
            "certify", "--map", "qLN", "--L", "7", "--N", "7",
            "--root", str(BIG_PRIME_ROOT), "--order", "180",
        )
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["witness_index"] == 1
        assert payload["witness_coefficient"] == f"13068/{BIG_PRIME_ROOT}"

    def test_pass_never_streams(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pass expanded exp(G/(V·F))")

        monkeypatch.setattr(cli, "exp_quotient", refuse)
        code, _, _ = run_cli(
            capsys,
            "certify", "--map", "qLN", "--L", "7", "--N", "7",
            "--root", "108", "--order", "60",
        )
        assert code == 0

    def test_integral_witness_raises(self, capsys, monkeypatch):
        # Index 2 of the map's 108th root is integral, so a decision naming
        # it contradicts the exact stream.
        monkeypatch.setattr(cli, "first_nonintegral", lambda g, f, r: 2)
        with pytest.raises(RuntimeError, match="disagree at index 2"):
            run_cli(
                capsys,
                "certify", "--map", "qLN", "--L", "7", "--N", "7",
                "--root", "108", "--order", "20",
            )


# The README certify commands, --table on a pass and on a violation, two
# prescribed-root edge cases and every certify spec of the benchmark menu at
# order 40, with the exit code and the SHA-256 of stdout recorded while roots
# were still taken through ps_pow(exp(G/F), 1/V).
CERTIFY_GOLDEN = [
    ("--map qLN --L 7 --N 7 --order 25 --root 108", 0, "67c9b80157b56841c83df2de6932f0125dda57910b012eeabaf8f79e76c6415d"),
    ("--map qLN --L 5 --N 5 --k 1 --order 25 --root auto", 0, "201c896a8ba6f63333cc2663f92d2a1d3bbb59c4a01c6737bf020e31c361bf3f"),
    ("--map qN --N 1 --k 1 --order 10", 0, "d1801a12699235266fe5c1f19c0a2f9e183009c578f9f828e1aedada04138fb1"),
    ("--map qLN --L 5 --N 5 --root auto --root-scale 3", 1, "025777bc3e73c3c7515a6e248fa300183b76324c758f488ea138bb5e6e54e4f7"),
    ("--map qLN --L 5 --N 5 --k 1 --order 25 --root auto --table", 0, "2a6fd0227f15c88e5272412a77b8a07f5accfeb7c2388e273ed005873f8ba281"),
    ("--map qLN --L 5 --N 5 --root auto --root-scale 3 --table", 1, "6ecfd7f9979071a307a3e2d5191d88183f83936ced8862b604bd1fd30d50dcbd"),
    ("--map qLN --L 2 --N 2 --root auto", 0, "01d77c889aa7fc0fe15f0f358e00a1e7c49da1c72d7a21b77ea8cdf963e8bfc3"),
    ("--map qLN --L 3 --N 2 --root auto --order 10", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--map qLN --L 7 --N 7 --root 108 --order 40", 0, "12790e62d14668fbea801de8976d82a092f0bc5b1113974149d21c4eb31b6883"),
    ("--map qLN --L 7 --N 7 --root 324 --order 40", 1, "e948440aa9cee0f01f998d7117ad081b23162fb637c142c24285a89e93445732"),
    ("--map qLN --L 5 --N 5 --root auto --root-scale 3 --order 40", 1, "088aa7433a5c7949ddd0dde02797d48f3c9d61285dd90bfad9497beb28e71055"),
    ("--map qLN --L 3 --N 5 --k 1 --order 40", 0, "196a00bc347becded6760814397699cbcf860b4598645c7f6bb288b99345a5d8"),
    ("--map qN --N 3 --k 1 --order 40", 0, "dc1983dcbb97856da53b574dacc1d60cbf2f1e62c4ed3060161cbc3d470b2fc3"),
    ("--map qtilde --N 4 --k 1 --order 40", 0, "bd9c78a3e8bd22ecc00df54d70f752a6ee2f6e1b61f45cf23db28189fbe38034"),
    ("--map qN --N 3 --k 2 --order 40", 0, "06db11b8a2bc7d3b2d0b5142168c79a6ca47d7f701dc3816b8fd751e7e737224"),
    ("--map qtilde --N 3 --k 2 --order 40", 0, "417425d8096f09e1aa0c89263b4fd291997d67f9eed9832c4b8d03547b378001"),
    ("--map qLN --L 2 --N 3 --k 3 --order 40", 0, "f4caf6e9b4c72d436129da1a1fbea42bd1f5a986829936d1ec5ee8a53cad7341"),
    ("--map qN --N 2 --k 3 --order 40", 0, "92caf7111a44f910f6626d7dcb9fc59349b1746e8dcb4183fc10e09fe3afb6c6"),
    ("--map qN --N 1 --k 1 --order 40", 0, "f54a0049caca02cf85ca3c351f026bcc46a0d9882fc90cc4e583360301348297"),
    ("--map qN --N 1 --k 2 --order 40", 0, "da54bf117f34a7afd68d9ca5aa6c345522b8bb491a76ad8f8b2d8fe9f0adfb69"),
    ("--map qN --N 1 --k 3 --order 40", 0, "e29913308789ca49bf95b042b3da31855a90797545a2367bf9bad5fdc05a93b2"),
    # The benchmark's heavy root probes at its order 180, recorded while
    # multiply, divide and exp still ran one Fraction operation per term.
    ("--map qLN --L 7 --N 7 --root 108 --order 180", 0, "af86c5279802d0398804d997cec880b2eb8dc772e97b3307f591e1676022b599"),
    ("--map qLN --L 7 --N 7 --root 324 --order 180", 1, "41deeefec1f4cf30788606ce5b9ee198e70f96beda17bcd744e0766d067ac8a8"),
    ("--map qLN --L 5 --N 5 --root auto --root-scale 3 --order 180", 1, "9741011fb0c5630db54c91489029583aeb92b8e3c222633ca7805e2af6d192f2"),
    # A degenerate map reports before its root is read, so even a root that
    # is not a positive integer passes; recorded while certify still built
    # all of exp(log q / V) before scanning it, as were the two probes at
    # order 400 whose witness sits at index 1.
    ("--map qN --N 1 --root 0", 0, "b6a85b86deef5b7bfdb7e14eea222f4360cda29dc08b1336a7885455e22b3bce"),
    ("--map qtilde --N 1 --k 2 --root zero --order 30", 0, "28f8b08b8f003845345fd55bdfe05518be59ac367e102e4136f0a0499f556530"),
    ("--map qLN --L 7 --N 7 --root 324 --order 400", 1, "21ac50a305726001ef92e237ebf4d5bc7a6ffa68506a1ba537feb4e3b8abb180"),
    ("--map qLN --L 5 --N 5 --root auto --root-scale 3 --order 400", 1, "f555f58c123f6c694ba8778a0486e1a22d9caabd3a68640738860152ed2e7d9c"),
    # The pass at order 400 and a 25-digit prime root, recorded while
    # certify still decided a root by streaming exp(G/(V·F)) exactly.
    ("--map qLN --L 7 --N 7 --root 108 --order 400", 0, "a51acdedf6c986f78e376fb23d49f95b50a8b08e249770c673c32e16a02d3f7d"),
    (f"--map qLN --L 7 --N 7 --root {BIG_PRIME_ROOT} --order 180", 1, "b650ed7c34e696ef7a46c1e6b422ff72937701b71ce28a9f535c9865a8627a34"),
]


class TestCertifyGolden:
    @pytest.mark.parametrize("argv,code,sha256", CERTIFY_GOLDEN)
    def test_byte_identical(self, capsys, argv, code, sha256):
        got, out, _ = run_cli(capsys, "certify", *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)

    # The README's pass, degenerate map and violation with its witness.
    @pytest.mark.parametrize("argv,code,sha256", [CERTIFY_GOLDEN[i] for i in (0, 2, 3)])
    def test_builds_no_series(self, capsys, monkeypatch, argv, code, sha256):
        # certify decides, and prints a witness, from the integer rows of
        # canonical_parts alone.
        def refuse(*args, **kwargs):
            raise AssertionError("certify built a PSeries")

        monkeypatch.setattr(series.PSeries, "__init__", refuse)
        got, out, _ = run_cli(capsys, "certify", *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


# The benchmark's constants commands, the xi(7) special case, the degenerate
# u at N = 1, t with k = 2 and one --table command, with the exit code and
# the SHA-256 of stdout recorded before the constants first read their
# harmonic weight off a shared helper.
CONSTANTS_GOLDEN = [
    ("--which xi --N 2500", 0, "5e0d2c4d5ef31b8143726122ba20d1deff8c076b7515c8f10cf67ee6eadee890"),
    ("--which omega --N 2500", 0, "fc7ba414170b27caba07b9cb7133efb29c1c5a5a6a2c816b19da973f1b05239c"),
    ("--which theta --N 3000", 0, "00db24645a4396d4d0683c3bede5bfd47bc6566d9254f3d151a1a0d703ad011a"),
    ("--which u --N 2000", 0, "784eb6d5f55e7516cdaf2eb51b592167075a0cc05bdb929a187b2bf1894227e6"),
    ("--which t --N 1000", 0, "57414cffc39be4979426d73286e8bc02af37f87b0c46cf10f7a0688be7dca4a9"),
    ("--which t --N 1100", 0, "0905374dd622c7f92186f3c0ef34a1d0d577cb4ee595f3cccd31a7bbf894cba1"),
    ("--which u --N 1000", 0, "7d9e33d292e9b8f8304f9c459d0f198403976e70ca0d1247b0cf4938bf977bbb"),
    ("--which u --N 1100", 0, "69e1cf2b141384d059e85af4a6979d4d390df35f61385f313bffa6c4531153d7"),
    ("--which xi --N 7", 0, "0a9e12ee6b94936a912122a515aa62a0ea3a2096e7c634b4e66340f3625581f6"),
    ("--which u --N 1", 0, "d6ab2ee820ed2637cbe2f657a472133371a22a94d8878cfec52348f6500e096c"),
    ("--which t --N 5 --k 2", 0, "11616e93efd5bbac62b8cda511d0e7aaa1833af4c21d123f6e1df050db706da7"),
    ("--which omega --N 12 --table", 0, "b667c10106ce558e9f5b0392d693f95f11b10c666c5c395be5f2dcb0bd5bc0ac"),
]


class TestConstantsGolden:
    @pytest.mark.parametrize("argv,code,sha256", CONSTANTS_GOLDEN)
    def test_byte_identical(self, capsys, argv, code, sha256):
        got, out, _ = run_cli(capsys, "constants", *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


class TestSieveCommand:
    def test_boyd_hits(self, capsys):
        code, out, err = run_cli(
            capsys, "sieve", "--p", "11", "--max", "20000", "--target", "H"
        )
        assert code == 0
        records = parse_jsonl(out)
        assert [r["N"] for r in records if r["v"] == 3] == [848, 9338, 10583]
        assert all(not r["v_at_least"] for r in records)
        assert "sieve complete" in err

    @pytest.mark.parametrize("target", ["H", "H1"])
    def test_p2_is_empty(self, capsys, target):
        # v_2(H_N) = -floor(log2 N) <= 0: the tree ends at the block [1, 1].
        code, out, err = run_cli(
            capsys, "sieve", "--p", "2", "--max", "1000", "--target", target
        )
        assert (code, out) == (0, "") and err.endswith(", 0 records\n")

    @pytest.mark.parametrize("backend", ["exact", "modular"])
    def test_backend_is_a_usage_error(self, capsys, backend):
        code, out, err = run_cli(
            capsys, "sieve", "--p", "3", "--max", "100", "--backend", backend
        )
        assert (code, out) == (2, "") and "unrecognized arguments: --backend" in err

    def test_shifted_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "sieve", "--p", "3", "--max", "100", "--target", "H1"
        )
        assert code == 0
        assert [r["N"] for r in parse_jsonl(out)] == [66, 68]

    def test_out_file_and_checkpoint_resume(self, capsys, tmp_path):
        out1 = tmp_path / "a.jsonl"
        ckpt = tmp_path / "sieve.ckpt"
        code, _, _ = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "500", "--target", "H",
            "--out", str(out1), "--checkpoint", str(ckpt),
        )
        assert code == 0 and ckpt.exists()
        out2 = tmp_path / "b.jsonl"
        code, _, _ = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "1000", "--target", "H",
            "--out", str(out2), "--checkpoint", str(ckpt),
        )
        assert code == 0
        resumed = parse_jsonl(out1.read_text()) + parse_jsonl(out2.read_text())

        out3 = tmp_path / "c.jsonl"
        code, _, _ = run_cli(
            capsys, "sieve", "--p", "3", "--max", "1000", "--out", str(out3)
        )
        direct = parse_jsonl(out3.read_text())
        assert resumed == direct
        # the checkpoint now sits at 1000 and reloads cleanly
        code, out, _ = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "1000", "--out", "-",
            "--checkpoint", str(ckpt),
        )
        assert code == 0 and parse_jsonl(out) == []

    def test_resume_into_the_same_out(self, capsys, tmp_path):
        # A resumed run cuts --out back to the checkpoint's offset (dropping
        # anything written after it) and appends the rest.
        out, ckpt, direct = tmp_path / "split.jsonl", tmp_path / "split.ckpt", tmp_path / "d.jsonl"
        files = ["--out", str(out), "--checkpoint", str(ckpt)]
        assert run_cli(capsys, "sieve", "--p", "11", "--max", "1000", *files)[0] == 0
        offset = json.loads(ckpt.read_text())["out_offset"]
        assert offset == out.stat().st_size > 0
        with open(out, "a", encoding="utf-8") as fh:
            fh.write('{"p":11,"N":1291,"v":1,"v_at')
        assert run_cli(capsys, "sieve", "--p", "11", "--max", "20000", *files)[0] == 0
        assert run_cli(capsys, "sieve", "--p", "11", "--max", "20000", "--out", str(direct))[0] == 0
        assert out.read_bytes() == direct.read_bytes()
        assert len(parse_jsonl(direct.read_text())) == 32

    def test_resume_into_a_truncated_out(self, capsys, tmp_path):
        out, ckpt = tmp_path / "a.jsonl", tmp_path / "a.ckpt"
        files = ["--out", str(out), "--checkpoint", str(ckpt)]
        assert run_cli(capsys, "sieve", "--p", "5", "--max", "100", *files)[0] == 0
        out.write_text(out.read_text()[:-1])
        code, _, err = run_cli(capsys, "sieve", "--p", "5", "--max", "1000", *files)
        assert code == 3 and "shorter" in err

    def test_sigterm_then_resume(self, capsys, tmp_path):
        # SIGTERM mid-run flushes --out, writes the checkpoint and exits 130;
        # the resumed run completes --out byte for byte. Boyd's tree for
        # p = 83 up to 10^80 is long enough (about 1.5 s, 858 records) to be
        # caught mid-run, with hits on both sides of where the signal lands.
        out, ckpt, direct = tmp_path / "r.jsonl", tmp_path / "r.ckpt", tmp_path / "d.jsonl"
        argv = ["sieve", "--p", "83", "--max", str(10**80), "--target", "H"]
        files = ["--out", str(out), "--checkpoint", str(ckpt)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for attempt in range(3):
            # Retried with a longer delay if the signal beat the handler.
            proc = subprocess.Popen(
                [sys.executable, "-m", "mirrorint", *argv, *files],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            time.sleep(0.5 * 2**attempt)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
            if proc.returncode != -signal.SIGTERM:
                break
        assert proc.returncode == 130, err
        assert "interrupted at N=" in err
        cp = json.loads(ckpt.read_text())
        assert 0 < cp["last_N"] < 10**80
        assert cp["out_offset"] == out.stat().st_size
        assert run_cli(capsys, *argv, *files)[0] == 0
        assert run_cli(capsys, *argv, "--out", str(direct))[0] == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_off_the_main_thread(self, tmp_path):
        # Signal handlers cannot be set there; the sieve runs without them.
        out = tmp_path / "t.jsonl"
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(
                main(["sieve", "--p", "3", "--max", "100", "--out", str(out)])
            )
        )
        worker.start()
        worker.join()
        assert codes == [0] and [r["N"] for r in parse_jsonl(out.read_text())] == [2, 7, 22]

    def test_failed_checkpoint_write_keeps_the_previous_one(
        self, capsys, tmp_path, monkeypatch
    ):
        # The second leg's checkpoint write fails halfway: the command exits
        # 3 and the first leg's checkpoint is still there, byte for byte.
        out, ckpt = tmp_path / "a.jsonl", tmp_path / "a.ckpt"
        files = ["--out", str(out), "--checkpoint", str(ckpt)]
        assert run_cli(capsys, "sieve", "--p", "11", "--max", "1000", *files)[0] == 0
        before = ckpt.read_bytes()

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("no space left on device")

        def failing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return HalfWritten(fh) if "w" in mode and str(path).startswith(str(ckpt)) else fh

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        code, _, err = run_cli(capsys, "sieve", "--p", "11", "--max", "20000", *files)
        assert code == 3 and "no space left" in err
        assert ckpt.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt", "a.jsonl"]

    def test_corrupt_checkpoint_io_error(self, capsys, tmp_path):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text('{"format_version": 1, "p": 3}')
        code, _, err = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "100", "--checkpoint", str(ckpt),
        )
        assert code == 3 and "error" in err
        # A well-formed version 3 checkpoint (positive indices, not the
        # queue) is refused too, before --out is opened, so the file it
        # would have cut back to out_offset stays as it was.
        old = SieveCheckpoint(5, "H", "modular", 50, {"positive": [4, 20, 24]}, out_offset=0)
        ckpt.write_text(canonical_json({**old.to_json(), "format_version": 3}))
        out = tmp_path / "f.jsonl"
        out.write_bytes(b'{"N":4,"p":5,"target":"H","v":2,"v_at_least":false}\n')
        before = out.read_bytes()
        code, _, err = run_cli(
            capsys,
            "sieve", "--p", "5", "--max", "100", "--out", str(out), "--checkpoint", str(ckpt),
        )
        assert code == 3 and "format_version" in err
        assert out.read_bytes() == before

    def test_checkpoint_into_a_missing_directory(self, capsys, tmp_path):
        # Refused before the first record, and before --out is opened.
        out = tmp_path / "keep.jsonl"
        out.write_text("keep\n")
        ckpt = tmp_path / "nodir" / "c.ckpt"
        code, stdout, err = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "100", "--checkpoint", str(ckpt),
        )
        assert (code, stdout) == (3, "") and err.startswith("error: ")
        code, _, _ = run_cli(
            capsys,
            "sieve", "--p", "3", "--max", "100", "--out", str(out), "--checkpoint", str(ckpt),
        )
        assert code == 3 and out.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.jsonl"]

    @pytest.mark.parametrize("bad", [-5, 2.5, True])
    def test_bad_last_N_io_error(self, capsys, tmp_path, bad):
        # The file's digest is right, so only the last_N check can reject it.
        ckpt = tmp_path / "c.ckpt"
        argv = ["sieve", "--p", "5", "--checkpoint", str(ckpt)]
        assert run_cli(capsys, *argv, "--max", "50")[0] == 0
        cp = SieveCheckpoint.load(ckpt.read_text())
        ckpt.write_text(cp._replace(last_N=bad).dump() + "\n")
        code, _, err = run_cli(capsys, *argv, "--max", "100")
        lines = err.splitlines()
        assert code == 3 and len(lines) == 1 and lines[0].startswith("error:")
        assert "last_N" in lines[0]

    def test_exact_backend_checkpoint_io_error(self, capsys, tmp_path):
        # A format 4 checkpoint of the exact backend the sieve once had:
        # H_50 as {"num", "den"}. It is another run's, refused before --out
        # is opened.
        h = sum(Fraction(1, n) for n in range(1, 51))
        state = {"num": str(h.numerator), "den": str(h.denominator)}
        ckpt, out = tmp_path / "e.ckpt", tmp_path / "e.jsonl"
        ckpt.write_text(SieveCheckpoint(5, "H", "exact", 50, state).dump() + "\n")
        out.write_text("keep\n")
        code, stdout, err = run_cli(
            capsys,
            "sieve", "--p", "5", "--max", "100", "--out", str(out), "--checkpoint", str(ckpt),
        )
        assert (code, stdout) == (3, "") and "different run" in err and "backend=exact" in err
        assert out.read_text() == "keep\n"


class TestSweepCommand:
    def test_dwork_sweep(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--check", "dworkS", "--p", "2,3", "--Nmax", "3",
            "--kmax", "1", "--Kmax", "4", "--smax", "1",
        )
        assert code == 0
        rows = parse_jsonl(out)
        assert rows and all(row["holds"] for row in rows)
        assert all(set(row) == {"check", "params", "holds", "margin"} for row in rows)
        assert "0 failures" in err

    def test_theorem_congruence_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--check", "theorem-congruence", "--which", "Xi",
            "--Nmax", "3", "--kmax", "1", "--summax", "10", "--p", "2,3",
        )
        assert code == 0
        assert all(row["holds"] for row in parse_jsonl(out))

    def test_decomposition_single_K(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--check", "decomposition", "--p", "3", "--K", "2",
            "--Nmax", "2", "--kmax", "1",
        )
        assert code == 0
        rows = parse_jsonl(out)
        assert rows and all(r["params"]["K"] == 2 for r in rows)

    def test_witness_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "witness", "--Nmax", "4", "--pmax", "13"
        )
        assert code == 0
        assert all(row["holds"] for row in parse_jsonl(out))

    def test_vp3_probe(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "vp3-probe", "--p", "11", "--N", "848"
        )
        assert code == 0
        (row,) = parse_jsonl(out)
        assert row["holds"] and row["margin"] == -1

    def test_wolstenholme_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--check", "wolstenholme", "--pmax", "100"
        )
        assert code == 0
        rows = parse_jsonl(out)
        assert all(row["holds"] and row["margin"] == 0 for row in rows)

    def test_coeff_c_deep_scan(self, capsys):
        # v_3(C(m)) >= 4 for every m <= 2500 at N = 7, one power past the
        # bound 3 = 1 + v_3(xi(7) 7!): the 27th root stays 3-integral.
        code, out, err = run_cli(
            capsys, "sweep", "--check", "coeff-c", "--N", "7", "--p", "3", "--mmax", "2500"
        )
        rows = parse_jsonl(out)
        assert code == 0 and len(rows) == 2500 and "0 failures" in err
        assert all(row["holds"] for row in rows)
        assert min(row["margin"] for row in rows) == 1

    def test_unknown_check(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--check", "nonsense")
        assert code == 2

    def test_infinite_margin_serialization(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--check", "yms", "--p", "3", "--Nmax", "1",
            "--kmax", "1", "--Kmax", "1", "--smax", "0",
        )
        assert code == 0
        rows = parse_jsonl(out)
        assert any(row["margin"] == "inf" for row in rows)


# One small command per check (and per --which variant), with the exit code
# and the SHA-256 of stdout recorded before sweeps were driven by a table.
SWEEP_GOLDEN = [
    ("--check theorem-congruence --which Xi --p 2,3 --Nmax 3 --kmax 1 --summax 10", 0, "693bfa5b2e77d1b9f9fd7144413beed2e12b8058559bf6e43da68ecd34f48bc0"),
    ("--check theorem-congruence --which Omega --p 2,3 --Nmax 3 --kmax 1 --summax 10", 0, "317885501eb52448f389e56ba4a7070924b22dd06b8b6ae1d0098276c8e8ef8a"),
    ("--check dworkS --p 2,3 --Nmax 3 --kmax 1 --Kmax 4 --smax 1", 0, "5a40349b89260ef3532bac84c119f25e342251d42a3f4ee063f256cb30c4184d"),
    ("--check yms --p 3 --Nmax 2 --kmax 2 --Kmax 3 --smax 1", 0, "e8c8300bff3d1e213bc292805307fce5fcc0f5490a9f8d3b0a4d26eabd09362f"),
    ("--check decomposition --p 2,3 --Nmax 2 --kmax 1 --Kmax 3", 0, "b06703a74bdbb5fc02045c11ede51524a28b29634f8ad978e39ab04e66a7c931"),
    ("--check decomposition --p 3 --K 2 --Nmax 3", 0, "b5a554ca34f209918efd120e00e6c4dc9b3fa56014895b3c5469172c14ccf6bc"),
    ("--check lemma11 --which Xi --p 2,3 --Nmax 3 --kmax 1 --mmax 4 --smax 1", 0, "4eb87e949aaf6b4e01c8024dbbf74a3d1bbe0840c2abdc58bcc9062613fed04e"),
    ("--check lemma11 --which Omega --p 2,3 --Nmax 3 --kmax 1 --mmax 4 --smax 1", 0, "0edcab93cf10c45ae569acb72d934a9477bc139d7d4ddbfef91ca08248226261"),
    ("--check lemma12 --p 2,3 --Nmax 3 --kmax 1 --jmax 3 --Kmax 2", 0, "3f03acec928fbbed3263ad7b77859c8e62523160d465113f2cd6eb824fe2fe36"),
    ("--check j-mod-p --pmax 7 --Jmax 30", 0, "309689453cc31afc4e9c75433efdd7059942fae69667bd39694f5f1d8c743476"),
    ("--check witness --which t --Nmax 4 --pmax 13", 0, "655b0426d88c0e955915ca3b4ca1338c6dc336352051a42ec4777bd6ae0ec4e0"),
    ("--check witness --which u --Nmax 4 --pmax 13", 0, "0822ee3025c291df71d39bdfbd82671a3d9c516cf92eb313bf3023dffca077a5"),
    ("--check wolstenholme --pmin 3 --pmax 60", 0, "1d5a852616d84baa7d97278d5b4cb00819eefc48bc6d23e1be6b6d46fd0a5a96"),
    ("--check vp3-probe --p 11 --N 848", 0, "8c713f6192d84cde0de88b5ee22d3059455fa6e38ac54167927bac9c341c1b23"),
    ("--check vp3-probe --p 11 --N 9338", 0, "07a2e705edd0991337baf0d5f9e83fc9081edcdaa46d4ec0d1424d08a3fe6e5a"),
    ("--check vp3-probe --p 11 --N 10583", 0, "b1dcb79a89bea0c5a58f73c10e69fbc8f48d09ebb06f33155dbf3c894f66649a"),
    ("--check witness", 0, "6f4adc3455917e6ac19b89887df8aecf581cab214c7625f50a03f29f282a0879"),
    ("--check j-mod-p --Jmax 20", 0, "466f43b2d9aa0f2fe006096e9b014f22fc45901947cc6a9eed7194e218b99659"),
    ("--check lemma12 --kmax 1 --jmax 2 --Kmax 2", 0, "cd571bb0a81e1356adcb84d4523ca2eb3fae1657abcaf96c0e7842d986c16590"),
    ("--check theorem-congruence --p 3 --Nmax 2 --summax 8", 0, "ea579c130985857fd2c9b5007a519ed55414009f3005671ecf4eeaf8037eb394"),
    ("--check lemma11 --p 3 --Nmax 2 --kmax 1 --mmax 3 --smax 1", 0, "a9cb383ec56ed66342dcb8a87b74a62d0743d4661afb3351a61da351a1f9e634"),
    ("--check wolstenholme", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--check vp3-probe --p 11", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--check theorem-congruence --which foo", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # The benchmark's larger sweeps, recorded while every harmonic weight
    # was still a sum of Fractions.
    ("--check theorem-congruence --which Xi --Nmax 8 --summax 40", 0, "26de89b8c5922cbad6336c646ec059b4c1a66d5939ddccd805e6c79278cad31b"),
    ("--check theorem-congruence --which Omega --Nmax 8 --summax 40", 0, "09c82b84982685efc8bd2ac96ce8020e787add93eedcd4ca6b05fd687b81caf9"),
    ("--check yms --p 3,5,7 --Nmax 5 --Kmax 8", 0, "19ce42f4b844e3a371701a0fc43a38c55063deba23e3b27d335c31984b154c39"),
    ("--check dworkS --p 2,3,5,7 --Nmax 5 --Kmax 8", 0, "7697ab895b919b7e7edf160c6f405d5b757d732ccb181d851b492a540b57797f"),
    ("--check lemma11 --mmax 20", 0, "217fa4651bcd87cd34f7b2afb4ed9275ea6330ebc9831ba7c406184529ef86e5"),
    ("--check lemma11 --mmax 20 --which Omega", 0, "b4d7435f376c8946bc62fec18ecc38a2c3a5ab8769e482a01b0c2764ff25fba8"),
    ("--check lemma12 --jmax 12", 0, "035c910c4b96c2cc5b2d0ad9d15491343b28dfc166e7e683b1ed4c4defcb5c61"),
    ("--check j-mod-p --pmax 23 --Jmax 800", 0, "64fff7fbd387ed62ed073a517d3a6c8612d8132740894abc7b592acdef70936e"),
    ("--check decomposition --p 3,5,7 --Kmax 3", 0, "d348a19d85ddb575708cf37d5ed01bef005062531ab8cb412c4d10f32cad1a71"),
    ("--check witness --Nmax 12 --pmax 200", 0, "d6d63d72adf9a9f518a2f010dbfd828ced7654e12ca94b04ac31c34c028503d5"),
    ("--check witness --Nmax 12 --pmax 200 --which u", 0, "f15aadba83ef9378f9ab16ef7953e9ed35e8ced8da17fead72c0d729633b2109"),
    # Two windows on either side of the Wolstenholme scan's cost rule: the
    # first (92 rows) is walked, the second (9 rows, with 16843 at v_capped
    # 3) is paired prime by prime.
    ("--check wolstenholme --pmin 6000 --pmax 6800", 0, "8834396124e7cd10b6ec58af1bcc45344672338852973fcf1b2422d008384ea6"),
    ("--check wolstenholme --pmin 16800 --pmax 16900", 0, "bb44a7e640270edb12f70768475414a5bf173515f1927d4f0d9a3dac2d499804"),
    # The rest of the benchmark's sweep commands, recorded before the sweep
    # rows were walked by the odometer and encoded by one C encoder.
    ("--check dworkS --p 2,3,5 --Nmax 5 --Kmax 8", 0, "94cba5f6ae8bc7eee2fd4853a9ff870f147c671d32ad03c42420bc686bad6527"),
    ("--check yms --p 2,3,5 --Nmax 5 --Kmax 8", 0, "5554c0a7a18456750e08952c88691859e9f2462459f1a880e8489f4f7e8f0ce1"),
    ("--check theorem-congruence --which Xi --Nmax 8", 0, "c78c3044829e19264752a6d09dd077f6dbeb878eb245179406e0d4abaf71d38b"),
    ("--check theorem-congruence --which Omega --Nmax 8", 0, "a6bac902355dc595f6c24a50105218d0472cae957acaaf809edb5fd33862dd96"),
    ("--check decomposition --p 3 --K 2", 0, "f5106edbb1612e2513d911855bf1ab18936d3b920ca3bb7d8d1cc2b1a14666a7"),
    ("--check decomposition --p 2,3,5 --Kmax 3", 0, "cbbfd6b674ba1c1e709a009d06d66d1f994ca77aa0f763779b3cc33f36710674"),
    ("--check lemma11", 0, "99a4c0c2ab7561e119bb58ecb5cd4f59a2695e7c9f9178ac940ec85342345664"),
    ("--check lemma11 --which Omega", 0, "68c63e3d16c0d4b625bc7913a9b6207615b5f8465eec31dc5a57b74e9ae56c9a"),
    ("--check lemma12", 0, "82e2374e0bd454d681bd49c4179e639766611a2596c3d02756d65c9e64ab0c0c"),
    ("--check j-mod-p", 0, "f6e8c1340c41c554a7eaa6d543a59167c165381a4211ec1a03383af785409652"),
    ("--check j-mod-p --pmax 17 --Jmax 1000", 0, "38a5b84ce95e026016c541cc5f04c720dd4a07cd5385ac8ef948b4fd057686ac"),
    ("--check witness --which u", 0, "909a8798a45ab362c3bd838a09414b8edd92749ae54ce168acabce514a87b919"),
    ("--check wolstenholme --pmax 6000", 0, "74dc49531c1403fd1d4912a790c398ab3b34111dfcbfb2ece382740a16d2c212"),
    ("--check wolstenholme --pmin 3000 --pmax 6800", 0, "a55bbd814506a2ae23c7b08b33430a74ea15109448ea4ea2a7bf78f714fd8542"),
    # Recorded while every row was a per-prime table read or pairing sum,
    # before sweeps walked one running sum S * H_n: the README's sweep
    # (2260 rows, only 16843 at v_capped 3), a walked window holding 16843,
    # two walks from about pmax / 2, and one window on each side of the
    # cost rule at pmax = 6800 (6674 paired, 6673 walked).
    ("--check wolstenholme --pmax 20000", 0, "a39a88b65d1e9a8899e2c07ed39351277d9321cea26b99b8a23e7fffcc85e3d6"),
    ("--check wolstenholme --pmin 8000 --pmax 17000", 0, "161941fe31fba1e62bc1b7fd04f443a7e623d145148f4a0ecb68599db5310261"),
    ("--check wolstenholme --pmin 3400 --pmax 6800", 0, "ef7d2ad2d3baac1cadba64da076dfd737da37b247ae596d7e4714c04d79b3d8f"),
    ("--check wolstenholme --pmin 3401 --pmax 6800", 0, "ef7d2ad2d3baac1cadba64da076dfd737da37b247ae596d7e4714c04d79b3d8f"),
    ("--check wolstenholme --pmin 6674 --pmax 6800", 0, "c3db321574c1ba10a17491070ebcffe9107f3023bc7e942c14ec5db64149b34b"),
    ("--check wolstenholme --pmin 6673 --pmax 6800", 0, "5970f1e4617419766993bb84329a337d757725485ad9cff34b68a142886e2cf2"),
    # The deep 3-adic scan of C(m) at N = 7 (2500 rows, 95 capped): each
    # margin + 3 was checked equal to coeff_C_valuations(7, 3, ms, 4).
    ("--check coeff-c --N 7 --p 3 --mmax 2500", 0, "91af14d10986ae85df52e6a9718de483411c0dbabbc4718777387e321d7cdeb4"),
]


class TestSweepGolden:
    @pytest.mark.parametrize("argv,code,sha256", SWEEP_GOLDEN)
    def test_byte_identical(self, capsys, argv, code, sha256):
        got, out, _ = run_cli(capsys, "sweep", *argv.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


# `mirrorint --help`, each subcommand's --help, and usage errors at the top
# level and in each subcommand: the exit code and the SHA-256 of stdout and
# of stderr at 80 columns, recorded while every run built all 40 flags. The
# last is reported by the top-level parser, whose usage lists every
# subcommand. `sweep --help` and `sweep --check nonsense` were re-recorded
# when `coeff-c` joined the --check choices, the only line that changed;
# `certify --help`, `sieve --help` and `sieve --p 3` when the sieve's
# `--backend` and certify's order from the environment went, the only
# lines that changed.
EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
HELP_GOLDEN = [
    ("--help", 0, "33c7e8e725694edea8e63aa0661ececbd0f1bd31176e005f906efb69063f85ff", EMPTY_SHA),
    ("constants --help", 0, "8bfab027ecf1e9f66125b52deaaebd14e1c88d439db3156a8d57df49783d5a4e", EMPTY_SHA),
    ("certify --help", 0, "db1e7818983006f827be8887789e3224446d434f66b67c5527c3dcdf88ee1308", EMPTY_SHA),
    ("sieve --help", 0, "dafdf10dc9f0047870b36a1bf2add81da967749fc115f2e48c93b5dc19e2c009", EMPTY_SHA),
    ("sweep --help", 0, "1fc98ab24432304552537d6b124353beba4569dfbf2de8c317982492670188f5", EMPTY_SHA),
    ("", 2, EMPTY_SHA, "67f576c07f4fd25f18da425e36a93c4a007054e9da9e9ac230c7b9dc5bfe7baf"),
    ("bogus", 2, EMPTY_SHA, "464d1d3f8daa0f2ff1618393907991c6d1dfc5a4084e70f575a2f5640f87e681"),
    ("constants --which xi", 2, EMPTY_SHA, "1839c03e1ed5a7ec393cc3f0cd19bdd36d52dedb2e3699f57b662bf0bee74527"),
    ("certify --map qN --N 3 --bogus 1", 2, EMPTY_SHA, "b0f7917eec8b8e893b2d4d71e25f84ef0b98afeb1f46c26b72b2853a820952c7"),
    ("sieve --p 3", 2, EMPTY_SHA, "416180e63c25eb82953f71863c2783e75dc541e769d916d17e63373374d31407"),
    ("sweep --check nonsense", 2, EMPTY_SHA, "d3fea6a9fd45cb7ff5c66eb151a3cdfc48a3c1e89ec03829fa91815e7939a641"),
    ("sieve --p 3 --max 10 extra", 2, EMPTY_SHA, "17d73f4bc229dc224ce259fee0dbe9d8e7410569cc5ec690c2a45c8d148f44e4"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestHelpGolden:
    @pytest.mark.parametrize("argv,code,out_sha,err_sha", HELP_GOLDEN)
    def test_byte_identical(self, capsys, monkeypatch, argv, code, out_sha, err_sha):
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run_cli(capsys, *argv.split())
        assert (got, sha256(out), sha256(err)) == (code, out_sha, err_sha)


class TestParserBuild:
    # Each id names the command the argv invokes, as it did when a run built
    # the flags of that command only.
    @pytest.mark.parametrize(
        "argv,builds",
        [
            # Well-formed: parsed from the declarations, with no parser.
            pytest.param(["sieve", "--p", "3", "--max", "10"], 0, id="argv0-sieve"),
            pytest.param(["sweep", "--help"], 1, id="argv1-sweep"),
            pytest.param(["--help"], 1, id="argv2-None"),
            pytest.param([], 1, id="argv3-None"),
            pytest.param(["bogus"], 1, id="argv4-None"),
            pytest.param(["-h", "sieve"], 1, id="argv5-None"),
            pytest.param(["sieve", "--p", "3", "--ma", "10"], 1, id="argv6-sieve"),
        ],
    )
    def test_only_the_invoked_flags(self, capsys, monkeypatch, argv, builds):
        # A well-formed argv builds no parser; any other builds exactly one.
        built = []

        def build():
            built.append(argv)
            return _build_parser()

        monkeypatch.setattr(cli, "_build_parser", build)
        run_cli(capsys, *argv)
        assert len(built) == builds

    def test_one_parser_carries_every_subcommands_flags(self):
        sub = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert list(sub.choices) == list(DECLARATIONS)
        for name, p in sub.choices.items():
            flags = {s for a in p._actions for s in a.option_strings}
            assert flags == {"-h", "--help", *DECLARATIONS[name]}, name


def declarations(command):
    # Each flag of `command` and the keywords it passes to add_argument.
    flags = {}
    cli._COMMANDS[command][1](lambda flag, **spec: flags.setdefault(flag, spec))
    return flags


DECLARATIONS = {command: declarations(command) for command in cli._COMMANDS}
ALL_FLAGS = sorted({flag for flags in DECLARATIONS.values() for flag in flags})
NEAR_MISSES = ["--ord", "--ma", "--N=3", "--bogus", "-h", "--help", "--"]
CHOICES = sorted(
    {
        choice
        for flags in DECLARATIONS.values()
        for spec in flags.values()
        for choice in spec.get("choices", ())
    }
)
VALUES = ["-1", "-", "2,3,5", "2,,3", "x", "", " 5", "1_0", "+4", "a=b", *CHOICES]


def readme_commands():
    # The `mirrorint ...` lines of the README's command-line block.
    section = README.read_text().split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#")[0])[1:]
        for line in block.splitlines()
        if line.startswith("mirrorint ")
    ]


def argparse_namespace(argv):
    return vars(_build_parser().parse_args(argv))


def well_typed(flag, spec):
    # `flag` with a value of the kind it declares, or alone if it takes none.
    if "action" in spec:
        return st.just((flag,))
    if "choices" in spec:
        values = st.sampled_from(spec["choices"])
    elif spec.get("type") is int:
        values = st.sampled_from(["0", "2", "3", "10", "+4", "1_0", " 5"])
    elif "type" in spec:
        values = st.sampled_from(["3", "2,3,5", "2,,3", "7,"])
    else:
        values = st.sampled_from(["x", "a=b", "out.jsonl", ""])
    return st.tuples(st.just(flag), values)


@st.composite
def command_lines(draw):
    # A command, then distinct flags of its own, most of its required ones
    # among them, each with a value of its kind; then up to two tokens or
    # pairs of noise: any flag, near-miss or value.
    command = draw(st.sampled_from(list(DECLARATIONS)))
    flags = DECLARATIONS[command]
    required = [name for name, spec in flags.items() if spec.get("required")]
    names = draw(st.lists(st.sampled_from(list(flags)), unique=True, max_size=5))
    names = dict.fromkeys([*(n for n in required if draw(st.integers(0, 5))), *names])
    items = [draw(well_typed(name, flags[name])) for name in names]
    other = st.sampled_from([*flags, *ALL_FLAGS, *NEAR_MISSES])
    value = st.one_of(st.integers(-2, 40).map(str), st.sampled_from(VALUES))
    noise = st.one_of(st.tuples(other, value), st.tuples(other), st.tuples(value))
    items += draw(st.lists(noise, max_size=2))
    return [command, *(token for item in draw(st.permutations(items)) for token in item)]


class TestPlainParse:
    @given(command_lines())
    @settings(max_examples=400, deadline=None)
    def test_matches_argparse(self, argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            # The same names, values and order as argparse's Namespace.
            assert list(vars(plain).items()) == list(argparse_namespace(argv).items())

    def test_readme_lines_take_the_plain_path(self):
        commands = readme_commands()
        assert len(commands) == 15
        for argv in commands:
            plain = cli._parse_plain(argv)
            assert plain is not None, argv
            assert list(vars(plain).items()) == list(argparse_namespace(argv).items())

    @pytest.mark.parametrize(
        "argv",
        [
            "sieve --p 3 --ma 10",
            "sieve --p 3 --max=10",
            "sieve --p 3",
            "sieve --p 3 --max 10 --out -",
            "sieve --p 3 --max 10 --p 5",
            "sieve --p 3 --max 10 extra",
            "sieve --p x --max 10",
            "sweep --check decomposition --K -1",
            "sweep --check nonsense",
            "constants --which xi --N 7 --table --",
            "constants --help",
        ],
    )
    def test_everything_else_goes_to_argparse(self, argv):
        assert cli._parse_plain(argv.split()) is None

    @pytest.mark.parametrize("command", list(DECLARATIONS))
    def test_no_typed_string_default(self, command):
        # argparse runs a str default through the flag's type (SUPPRESS sets
        # nothing); the plain path takes every default as declared.
        for flag, spec in DECLARATIONS[command].items():
            default = spec.get("default")
            string = isinstance(default, str) and default != argparse.SUPPRESS
            assert not (string and "type" in spec), flag


DOCUMENT_LINES = [argv for argv in readme_commands() if argv[0] in ("constants", "certify")]


class TestDocumentParams:
    @pytest.mark.parametrize("argv", DOCUMENT_LINES, ids=" ".join)
    def test_params_are_the_declared_flags(self, capsys, argv):
        # A document's params are its command's flags less --table, so a
        # flag declared later shows up in them with no second edit.
        declared = {flag[2:].replace("-", "_") for flag in DECLARATIONS[argv[0]]}
        params = declared - {"table"}
        _, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert doc["params"].keys() == params
        # The --table form lists the same params, then the payload.
        _, out, _ = run_cli(capsys, *argv, "--table")
        keys = [line.split()[0] for line in out.splitlines()[2:]]
        assert keys == [*sorted(params), *sorted(doc["payload"])]


class TestSweepChunks:
    def test_rows_go_out_in_chunks(self, monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["sweep", "--check", "j-mod-p", "--pmax", "7", "--Jmax", "150"]) == 0
        rows = "".join(writes).splitlines()
        assert len(rows) == 600
        assert len(writes) == 3  # 256 + 256 + 88 rows

    def test_a_failing_row_keeps_the_rows_before_it(self, capsys, monkeypatch, tmp_path):
        from mirrorint import congruences

        def rows(check, **params):
            yield from congruences._sweep_rows("j-mod-p", pmax=3, Jmax=150)
            raise ValueError("row 301 failed")

        monkeypatch.setattr(cli, "_sweep_rows", rows)
        dest = tmp_path / "rows.jsonl"
        code, out, err = run_cli(
            capsys, "sweep", "--check", "j-mod-p", "--out", str(dest)
        )
        assert code == 2 and err == "error: row 301 failed\n"
        expected = [canonical_json(r) for r in congruences.sweep("j-mod-p", pmax=3, Jmax=150)]
        assert len(expected) == 300
        assert dest.read_text().splitlines() == expected


def subcommand_actions(command):
    sub = next(
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {a.dest: a for a in sub.choices[command]._actions}


class TestSweepArguments:
    def test_check_choices_are_the_table(self):
        assert tuple(subcommand_actions("sweep")["check"].choices) == tuple(SWEEPS)

    def test_grid_flags_are_the_table_parameters(self):
        params = {
            name for spec in SWEEPS.values() for name in (*spec.defaults, *spec.required)
        }
        flags = subcommand_actions("sweep").keys() - {"help"}
        assert flags == params | {"check", "which", "out"}

    def test_map_choices_are_the_canonical_kinds(self):
        assert tuple(subcommand_actions("certify")["map"].choices) == CANONICAL_KINDS

    def test_explicit_zero_bound_is_an_empty_grid(self, capsys):
        # A zero or negative bound empties its axis, whichever check reads it.
        for argv in (
            "--check dworkS --p 3 --Nmax 0 --Kmax 0 --smax 0",
            "--check j-mod-p --Jmax -3",
            "--check coeff-c --mmax 0",
            "--check yms --Kmax -2",
            "--check theorem-congruence --summax -1",
            "--check lemma11 --mmax 2 --smax -1",
            "--check witness --pmax -5",
            "--check decomposition --Kmax -1",
        ):
            code, out, err = run_cli(capsys, "sweep", *argv.split())
            assert code == 0 and out == "", argv
            assert "0 tuples" in err, argv

    @pytest.mark.parametrize("jmax", ["-1", "-2"])
    def test_negative_jmax_has_no_rows(self, capsys, jmax):
        # jmax < 0 empties lemma12's j axis, and with it the a = 1, j = 0
        # variant rows, which stand in for j = 0.
        for grid in ("", " --p 3 --Nmax 2 --kmax 1"):
            argv = f"--check lemma12 --jmax {jmax}{grid}"
            code, out, err = run_cli(capsys, "sweep", *argv.split())
            assert (code, out) == (0, "") and "0 tuples" in err, argv

    def test_negative_K_is_a_usage_error(self, capsys):
        got = run_cli(capsys, "sweep", "--check", "decomposition", "--K", "-1")
        assert got == (2, "", "error: K must be non-negative\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--check", "witness", "--which", "Omega"],
            ["--check", "dworkS", "--which", "Xi"],
            ["--check", "witness", "--kmax", "1"],
            ["--check", "vp3-probe", "--p", "11,13", "--N", "848"],
            ["--check", "lemma12", "--p", "2,4"],
            ["--check", "coeff-c", "--N", "0"],
        ],
    )
    def test_bad_argument_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 2 and out == "" and "error" in err

    def test_repeated_prime_is_a_usage_error(self, capsys):
        # Each row would come out once per repeat.
        for argv in (
            "--check dworkS --p 3,3 --Nmax 1 --kmax 1 --Kmax 1 --smax 0",
            "--check lemma12 --p 2,3,2",
            "--check vp3-probe --p 11,11 --N 848",
        ):
            got = run_cli(capsys, "sweep", *argv.split())
            check = argv.split()[1]
            assert got == (2, "", f"error: {check}: p must not repeat a prime\n"), argv

    @pytest.mark.parametrize("p", ["2,,3", "2,3,", ",3", "", "2, ,3"])
    def test_empty_prime_entry_is_a_usage_error(self, capsys, p):
        code, out, err = run_cli(capsys, "sweep", "--check", "dworkS", "--p", p)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --p: expected comma-separated integers: {p!r}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--check", "lemma11", "--which", "foo"],
            ["--check", "vp3-probe", "--p", "11", "--N", "849"],
        ],
    )
    def test_usage_error_leaves_out_file_unchanged(self, capsys, tmp_path, argv):
        dest = tmp_path / "rows.jsonl"
        dest.write_text("keep\n")
        code, _, _ = run_cli(capsys, "sweep", *argv, "--out", str(dest))
        assert code == 2
        assert dest.read_text() == "keep\n"


# A non-prime --p, and one past the range where primality is decided, at
# each command that takes p: the exit code and the exact stderr, recorded
# while every internal call still re-checked its prime.
PRIME_BOUNDARY = [
    ("sweep --check dworkS --p 4", "error: p must be prime, got 4\n"),
    ("sweep --check vp3-probe --p 9 --N 848", "error: p must be prime, got 9\n"),
    ("sieve --p 1 --max 10", "error: p must be prime, got 1\n"),
    (
        "sweep --check lemma11 --p 3317044064679887385961981",
        "error: is_prime is exact only below 3317044064679887385961981, "
        "got 3317044064679887385961981\n",
    ),
]


class TestPrimeBoundary:
    @pytest.mark.parametrize("argv,err", PRIME_BOUNDARY)
    def test_usage_error(self, capsys, argv, err):
        assert run_cli(capsys, *argv.split()) == (2, "", err)


class TestExitCodes:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_bad_flag(self, capsys):
        assert run_cli(capsys, "constants", "--bogus")[0] == 2
