"""Command line behavior, driven in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krasner
from krasner.cli import build_parser, main
from krasner.corpus import corpus_fingerprint
from krasner.dsl import emit_hom, emit_ring, parse_file
from krasner.morphisms import RingHom

BAD_RING = """ring bad
  order 2
  add 1 1 {1}
  neg 1 1
  mul 1 1 0
end
"""


@pytest.fixture
def ring_file(tmp_path, z4):
    path = tmp_path / "z4.khr"
    path.write_text(emit_ring(z4, "z4"), encoding="utf-8")
    return str(path)


@pytest.fixture
def z6_file(tmp_path, z6):
    path = tmp_path / "z6.khr"
    path.write_text(emit_ring(z6, "z6"), encoding="utf-8")
    return str(path)


def test_verify_ok(ring_file, capsys):
    assert main(["verify", ring_file]) == 0
    out = capsys.readouterr().out
    assert f"{ring_file}: z4: ok" in out


def test_verify_reports_failures(tmp_path, capsys):
    path = tmp_path / "bad.khr"
    path.write_text(BAD_RING, encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert "bad: FAIL" in out
    assert "negation" in out


def test_verify_reports_unital_module_over_ring_without_unit(tmp_path, capsys):
    path = tmp_path / "nounit.khr"
    path.write_text("ring r\n  order 2\n  add 1 1 {0}\n  neg 1 1\n  mul 1 1 0\nend\n"
                    "module m over r\n  order 2\n  unital\n  madd 1 1 {0}\n"
                    "  mneg 1 1\n  act 1 1 0\nend\n", encoding="utf-8")
    doc = parse_file(str(path))
    assert doc.rings["r"].validate().ok
    assert not doc.modules["m"].validate().ok
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{path}: r: ok", f"{path}: m: FAIL",
                   "  unit-action: witness () (declared unital, but r has no unit)"]


# khr verify on the fixtures under tests/fixtures, byte for byte: the first
# witness of each failing axiom, found in each verifier's scan order
VERIFY_GOLDEN = {
    "skewed_ring.khr": (
        "{path}: skewed: FAIL\n"
        "  mul-associativity: witness (1, 3, 2) ((a * b) * c != a * (b * c) at (1, 3, 2))\n"
        "  left-distributivity: witness (1, 1, 2) (a * (b + c) != a*b + a*c at (1, 1, 2))\n"
        "  right-distributivity: witness (1, 2, 1) ((a + b) * c != a*c + b*c at (1, 2, 1))\n"),
    "twisted_module.khr": (
        "{path}: base: ok\n"
        "{path}: twisted: FAIL\n"
        "  sum-action: witness (1, 1, 2) ((m + m') r != mr + m'r at (1, 1, 2))\n"
        "  action-sum: witness (1, 1, 2) (m (r + s) != mr + ms at (1, 1, 2))\n"
        "  action-associativity: witness (1, 1, 2) (m (r s) != (m r) s at (1, 1, 2))\n"),
    "lopsided_ring.khr": (
        "{path}: lopsided: FAIL\n"
        "  commutativity: witness (1, 2) (1 + 2 differs from 2 + 1)\n"
        "  associativity: witness (1, 1, 2) ((a + b) + c != a + (b + c) at (1, 1, 2))\n"
        "  reversibility: witness (1, 1, 2) (2 not in -1 + 1)\n"
        "  absorption: witness (0,) (products of 0 with 0 are not 0)\n"
        "  unit: witness (0,) (1 does not act as identity on 0)\n"),
    "stuck_module.khr": (
        "{path}: base: ok\n"
        "{path}: stuck: FAIL\n"
        "  zero-action: witness (0,) (0 * 0 != 0)\n"
        "  unit-action: witness (0,) (0 * 1 != 0)\n"),
    "folded_hom.khr": (
        "{path}: base: ok\n"
        "{path}: folded: FAIL\n"
        "  strong-addition: witness (1, 2) (image escapes the target hypersum)\n"
        "  negation: witness (1,) (f(-1) != -f(1))\n"
        "  multiplication: witness (2, 2) (f(a b) != f(a) f(b) at (2, 2))\n"),
}


@pytest.mark.parametrize("fixture", sorted(VERIFY_GOLDEN))
def test_verify_golden_text(fixture, capsys):
    # read twice, so the second read meets what the first one left behind
    path = str(Path(__file__).parent / "fixtures" / fixture)
    for _ in range(2):
        assert main(["verify", path]) == 2
        assert capsys.readouterr().out == VERIFY_GOLDEN[fixture].format(path=path)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.khr"
    path.write_text("ring r\n  order 2\n", encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.khr" in err and "never closed" in err


@pytest.mark.parametrize("command", ["verify", "ideals", "prim", "spectrum", "hom", "check"])
def test_non_utf8_file_is_invalid_input(tmp_path, command, capsys):
    path = tmp_path / "latin1.khr"
    path.write_bytes(b"ring r\n  order 1\n\xff\nend\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:3:1: invalid UTF-8: byte 0xff (invalid start byte)\n"


SRC = str(Path(krasner.__file__).resolve().parents[1])


def fresh_process(argv, columns):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COLUMNS=str(columns), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "krasner.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def test_shared_parser_keeps_no_state(monkeypatch, capsys):
    # the parser is built once per process; every call must behave as the
    # first call of a fresh `khr` does, whatever calls came before it
    assert build_parser() is build_parser()
    fixture = str(Path(__file__).parent / "fixtures" / "skewed_ring.khr")
    calls = [(["check", "--max-order", "0"], 80),
             (["check", "--max-order", "2"], 80),
             (["check"], 80),  # the default order 3, not the 2 before it
             (["--help"], 40),
             (["--help"], 120),
             (["verify", fixture], 80)]
    for argv, columns in calls:
        monkeypatch.setenv("COLUMNS", str(columns))
        try:
            code = main(argv)
        except SystemExit as e:  # argparse printing help or a usage error
            code = e.code
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh_process(argv, columns), argv


def test_ideals_text(ring_file, capsys):
    assert main(["ideals", ring_file]) == 0
    out = capsys.readouterr().out
    assert "z4: 3 two-sided, 3 right hyperideals" in out
    assert "{0,2} maximal prime" in out
    assert "nil radical {0,2}" in out


def test_ideals_json(ring_file, capsys):
    assert main(["ideals", ring_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["ring"] == "z4"
    assert sorted(payload[0]["two_sided"]) == [[0], [0, 1, 2, 3], [0, 2]]
    assert payload[0]["nil_radical"] == [0, 2]


def test_ideals_unknown_ring(ring_file, capsys):
    assert main(["ideals", ring_file, "--ring", "ghost"]) == 2
    assert "no ring named 'ghost'" in capsys.readouterr().err


def test_prim_text(z6_file, capsys):
    assert main(["prim", z6_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z6: 2 primitive hyperideal(s)")
    assert "via a simple module of order" in out


def test_prim_json(z6_file, capsys):
    assert main(["prim", z6_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["primitive"] == [[0, 2, 4], [0, 3]] or \
        payload[0]["primitive"] == [[0, 3], [0, 2, 4]]


def test_spectrum_text(z6_file, capsys):
    assert main(["spectrum", z6_file]) == 0
    out = capsys.readouterr().out
    assert "z6: 2 point(s)" in out
    assert "t0 True  t1 True" in out


def test_spectrum_dot(z6_file, capsys):
    assert main(["spectrum", z6_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "digraph spectrum {"
    assert 'label="{0,3}"' in out
    assert out.rstrip().endswith("}")


def test_spectrum_json(z6_file, capsys):
    assert main(["spectrum", z6_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["t1"] is True
    assert len(payload[0]["points"]) == 2


def test_check_generated_corpus(capsys):
    assert main(["check", "--max-order", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "pass 678  fail 0  skip 52  info 38"


def test_check_json_thread_invariance(capsys):
    assert main(["check", "--max-order", "2", "--format", "json",
                 "--threads", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--max-order", "2", "--format", "json",
                 "--threads", "4", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    diff = [(a, b) for a, b in zip(first.splitlines(), second.splitlines())
            if a != b]
    # byte identical apart from the timestamp line
    assert len(first.splitlines()) == len(second.splitlines())
    assert all("generated_at" in a for a, _ in diff)
    d = json.loads(first)
    assert d["schema"] == "krasner-suite/1"


def test_check_explicit_files(ring_file, capsys):
    assert main(["check", ring_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z4 (order 4): pass")


def test_check_rejects_invalid_file(tmp_path, ring_file, capsys):
    bad = tmp_path / "bad.khr"
    bad.write_text(BAD_RING, encoding="utf-8")
    assert main(["check", str(bad), ring_file]) == 2
    # the refusal lists each failed axiom with its detail, as every other
    # report printer does
    assert capsys.readouterr().err == (
        "bad: invalid ring; rerun with --allow-invalid to check the others\n"
        "  negation: witness (1,) (element 1 has 0 additive inverses)\n"
        "  reversibility: witness (1, 0, 1) (0 not in 1 - 1)\n")


def test_check_allow_invalid(tmp_path, ring_file, capsys):
    bad = tmp_path / "bad.khr"
    bad.write_text(BAD_RING, encoding="utf-8")
    assert main(["check", str(bad), ring_file, "--allow-invalid"]) == 0
    captured = capsys.readouterr()
    assert "skipping invalid ring bad" in captured.err
    assert captured.out.startswith("z4 (order 4): pass")


def test_check_unknown_check_id(capsys):
    assert main(["check", "--checks", "t0,phantom"]) == 2
    assert capsys.readouterr().err == "error: unknown check ids: phantom\n"


def test_check_filtered(capsys):
    assert main(["check", "--max-order", "2", "--checks", "t0"]) == 0
    out = capsys.readouterr().out
    assert "pass 5  fail 0  skip 0  info 0" in out


def test_gen_manifest_is_deterministic(corpus3, capsys):
    assert main(["gen", "--max-order", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--max-order", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    manifest = json.loads(first)
    assert manifest["schema"] == "krasner-corpus/1"
    assert manifest["count"] == 24
    assert manifest["fingerprint"] == corpus_fingerprint(corpus3, max_order=3)
    assert manifest["rings"][0] == {"name": "r1_0", "order": 1, "unital": True}


def test_gen_writes_ring_files(tmp_path, capsys):
    out_dir = tmp_path / "rings"
    assert main(["gen", "--max-order", "2", "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.khr"))
    assert [f.name for f in files] == ["r1_0.khr", "r2_0.khr", "r2_1.khr",
                                       "r2_2.khr", "r2_3.khr"]
    doc = parse_file(str(files[1]))
    assert doc.rings["r2_0"].validate().ok


def test_gen_text_format(capsys):
    assert main(["gen", "--max-order", "2", "--format", "text"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r1_0 order 1 unital"
    assert lines[-1].startswith("5 rings, fingerprint ")


def test_search_text(capsys):
    assert main(["search", "t1-failure", "--max-order", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t1-failure: scanned 24 rings,")
    assert "t1 is" in out


def test_search_json(capsys):
    assert main(["search", "prime-not-primitive", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"kind": "prime-not-primitive", "scanned": 24, "found": []}


def test_hom_surjection(tmp_path, z4, z2, capsys):
    proj = RingHom(z4, z2, (0, 1, 0, 1))
    text = (emit_ring(z4, "a") + "\n" + emit_ring(z2, "b") + "\n"
            + emit_hom(proj, "p", "a", "b"))
    path = tmp_path / "homs.khr"
    path.write_text(text, encoding="utf-8")
    assert main(["hom", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p: strong surjection, kernel {0,2}" in out
    assert "pullback total on 1 point(s), continuous True" in out
    assert "closed embedding True, image dense True" in out


def test_hom_zero_map_reports_escape(tmp_path, z2, capsys):
    zero = RingHom(z2, z2, (0, 0))
    text = (emit_ring(z2, "a") + "\n" + emit_ring(z2, "b") + "\n"
            + emit_hom(zero, "z", "a", "b"))
    path = tmp_path / "homs.khr"
    path.write_text(text, encoding="utf-8")
    assert main(["hom", str(path)]) == 0
    out = capsys.readouterr().out
    assert "z: strong hom, kernel {0,1}" in out
    assert "pullback misses: point {0} pulls back to non-primitive {0,1}" in out


def test_hom_rejects_weak_hom(tmp_path, z2, kfield, capsys):
    weak = RingHom(z2, kfield, (0, 1))
    text = (emit_ring(z2, "a") + "\n" + emit_ring(kfield, "b") + "\n"
            + emit_hom(weak, "w", "a", "b"))
    path = tmp_path / "homs.khr"
    path.write_text(text, encoding="utf-8")
    assert main(["hom", str(path)]) == 2
    out = capsys.readouterr().out
    assert "w: not a strong hom" in out


def test_hom_name_filter(tmp_path, z2, capsys):
    ident = RingHom(z2, z2, (0, 1))
    text = (emit_ring(z2, "a") + "\n" + emit_ring(z2, "b") + "\n"
            + emit_hom(ident, "i", "a", "b"))
    path = tmp_path / "homs.khr"
    path.write_text(text, encoding="utf-8")
    assert main(["hom", str(path), "--name", "ghost"]) == 2
    assert "no matching homs" in capsys.readouterr().err


def test_order_cap_maps_to_input_error(capsys):
    assert main(["gen", "--max-order", "9"]) == 2
    assert capsys.readouterr().err == (
        "error: generation is exhaustive and grows savagely; 9 is past "
        "the supported cap 4\n")


def test_missing_file(capsys):
    assert main(["ideals", "/no/such/file.khr"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["gen", "check", "search t1-failure"])
def test_negative_per_order_limit_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as info:
        main(command.split() + ["--max-order", "2", "--per-order-limit", "-1"])
    assert info.value.code == 2
    assert "--per-order-limit: must be non-negative, not -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "check", "search t1-failure"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_max_order_is_a_usage_error(command, value, capsys):
    with pytest.raises(SystemExit) as info:
        main(command.split() + ["--max-order", value])
    assert info.value.code == 2
    assert f"--max-order: must be positive, not {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_threads_is_a_usage_error(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--max-order", "2", "--threads", value])
    assert info.value.code == 2
    assert f"--threads: must be positive, not {value}" in capsys.readouterr().err


def test_internal_value_error_is_not_reported_as_invalid_input(monkeypatch):
    # a ValueError from inside a command is a bug, not a refusal of input:
    # it must surface instead of becoming "error: ..." with exit code 2
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("krasner.cli.generate_corpus", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["gen", "--max-order", "2"])
