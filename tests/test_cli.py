import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhilb import cli
from qhilb.cli import main, render_json
from qhilb.chow import BASIS_SIZE, CODIM
from qhilb.gw_engine import SeedTable, dimension_check, dimension_classes

DATA = Path(__file__).parent / "data"

def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- invariant ------------------------------------------------------------------

def test_invariant_known(capsys):
    code, out, _ = run(capsys, "invariant", "--beta", "1,0,1", "--ins", "T13")
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_invariant_fraction(capsys):
    code, out, _ = run(capsys, "--cmax", "3", "invariant", "--beta", "0,0,3", "--ins", "T8")
    assert code == 0
    assert out.splitlines()[0] == "4/9"


def test_invariant_unknown_exit_code(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "invariant", "--beta", "3,2,2", "--ins", "T4^11")
    assert code == 2
    assert out.splitlines()[0] == "UNKNOWN"


def test_invariant_unknown_json(capsys):
    code, out, _ = run(capsys, "--cmax", "4", "--format", "json", "invariant",
                       "--beta", "1,1,1", "--ins", "T4^5")
    assert code == 2
    payload = json.loads(out)
    reason = ("requires <T4^5>_(1,1,1) seed; pure incidence-class powers "
              "beyond exponent three are not derivable here")
    assert payload["result"] == {"state": "unknown", "reason": reason}
    assert payload["wdvv_instances"] == 0


def test_invariant_parse_error(capsys):
    code, _, err = run(capsys, "invariant", "--beta", "1,0", "--ins", "T13")
    assert code == 1
    assert "a,b,c" in err


@pytest.mark.parametrize("argv", [
    ("gamma", "T1"),
    ("bogus",),
    (),
    ("--cmax", "x", "verify", "--all"),
    ("--format", "xml", "verify", "--all"),
    ("hyper", "--d1", "1"),
])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 is reserved for an Unknown result, also for argparse's errors
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: qhilb")


@pytest.mark.parametrize("argv, needle", [
    (("hyper", "--d1", "1", "--d2", "1", "--gmin", "-1"), "genus -1 is outside 0..1"),
    (("hyper", "--d1", "1", "--d2", "1", "--gmin", "2"), "genus 2 is outside 0..1"),
    (("verify", "--id", "99"), "relation ids are 1..17, got 99"),
    (("verify", "--id", "0", "1"), "relation ids are 1..17, got 0"),
    (("invariant", "--beta", "1,0,1", "--ins", "T1^99999999999999999999"), "more than 1000"),
    (("invariant", "--beta", "1,0,1", "--ins", "T4^"), "bad insertion token 'T4^'"),
    (("hyper", "--d1", "600", "--d2", "1", "--gmin", "600"), "more than 1000"),
    (("--cmax", "-1", "verify", "--all"), "cmax must be >= 0"),
    (("--ytrunc", "-1", "gamma", "T3", "T3", "T8"), "ytrunc must be >= 0"),
    (("invariant", "--beta", "1,0,1", "--ins", "T14"), "basis index out of range in 'T14'"),
    (("invariant", "--beta", "1,0,1", "--ins", "T4^-1"), "negative power in 'T4^-1'"),
    (("invariant", "--beta", "1,x,1", "--ins", "T13"),
     "curve class components must be integers: '1,x,1'"),
    (("hyper", "--d1", "2", "--d2", "2", "--l", "-1"),
     "the number of conjugate pairs must be >= 0"),
    # T14 would stop gamma at once if the bound were not checked first
    (("--ytrunc", "998", "gamma", "T4", "T4", "T14"), "ytrunc must be <= 997"),
])
def test_out_of_range_arguments_exit_1(capsys, argv, needle):
    # none of these may print a made-up answer or end in a traceback
    code, out, err = run(capsys, "--cmax", "2", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("argv", [("--help",), ("gamma", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_invariant_truncation_fail_fast(capsys):
    code, _, err = run(capsys, "--cmax", "2", "invariant", "--beta", "0,0,3", "--ins", "T8")
    assert code == 1
    assert "truncation" in err


def test_invariant_trace(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "--trace", "invariant",
                       "--beta", "1,1,2", "--ins", "T4^2 T13")
    assert code == 0
    assert "trace:" in out


# -- product --------------------------------------------------------------------

def test_product_t4_t4(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "product", "T4", "T4")
    assert code == 0
    assert out.strip() == "T4*T4 = 2 q1 q2 q3^2 T0 + T13"


def test_product_unit(capsys):
    code, out, _ = run(capsys, "--cmax", "1", "product", "T0", "T7")
    assert code == 0
    assert out.strip() == "T0*T7 = T7"


def test_product_t1_t3(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "product", "T1", "T3")
    assert code == 0
    assert out.strip() == "T1*T3 = 2 q1 q3 T0 + T8"


@pytest.mark.parametrize("argv, bad", [
    (("product", "T4^2", "T0^0"), "T4^2"),    # was T4*T4, from the expanded list
    (("product", "T4", "T0^0"), "T0^0"),
    (("product", "T4", "T4 T5"), "T4 T5"),
    (("product", "T4^0", "T4^2"), "T4^0"),
    (("gamma", "T4^2", "T5", "T0^0"), "T4^2"),  # was gamma(T4, T4, T5)
    (("gamma", "T3", "T3 T8", ""), "T3 T8"),
    (("gamma", "T3", "T3", "T8^0"), "T8^0"),
])
def test_positional_classes_are_one_class_each(capsys, argv, bad):
    # each positional of product and gamma names exactly one basis class;
    # powers are not expanded across them
    code, out, err = run(capsys, "--cmax", "1", *argv)
    assert (code, out) == (1, "")
    assert err == "error: %s wants one basis class per argument, got %r\n" % (argv[0], bad)


def test_positional_class_with_power_one(capsys):
    assert run(capsys, "--cmax", "2", "product", "T1^1", "3") == run(
        capsys, "--cmax", "2", "product", "T1", "T3")
    assert run(capsys, "--cmax", "1", "gamma", "3", "T3^1", "T8") == run(
        capsys, "--cmax", "1", "gamma", "T3", "T3", "T8")


_ALL_PASS_C0 = ("".join("relation %2d: pass\n" % i for i in range(1, 18))
                + "17/17 relations pass at c_max=0\n")


@pytest.mark.parametrize("argv, text, payload", [
    (("verify", "--all"), _ALL_PASS_C0,
     {"c_max": 0, "checked": list(range(1, 18)), "failures": {}, "passed": list(range(1, 18))}),
    (("product", "T4", "T4"), "T4*T4 = T13\n",
     {"c_max": 0, "coordinates": {"T13": "1"}, "product": "T4*T4"}),
    (("gamma", "T3", "T3", "T8"), "0\n", {"indices": [3, 3, 8], "terms": []}),
])
def test_cmax_zero(capsys, argv, text, payload):
    # at --cmax 0 the engine itself is built at c_max 0: q3 is truncated
    # away and the product is the cup product
    assert run(capsys, "--cmax", "0", *argv) == (0, text, "")
    assert run(capsys, "--cmax", "0", "--format", "json", *argv) == (
        0, render_json(payload) + "\n", "")


# -- verify ----------------------------------------------------------------------

def test_verify_single(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "verify", "--id", "6")
    assert code == 0
    assert "1/1 relations pass" in out


def test_verify_detects_poisoned_seeds(capsys, tmp_path):
    # a wrong seed value must surface as a nonzero residual and exit 3
    seeds = tmp_path / "bad_seeds.txt"
    seeds.write_text("0,0,1 | 8 | 5 | deliberately wrong\n")
    code, out, _ = run(capsys, "--cmax", "1", "--seeds", str(seeds), "verify", "--id", "1")
    assert code == 3
    assert "FAIL" in out


def test_seed_file_dimension_violation(capsys, tmp_path):
    seeds = tmp_path / "bad_dim.txt"
    seeds.write_text("1,0,1 | 13 13 | 1 | violates the dimension axiom\n")
    code, _, err = run(capsys, "--cmax", "1", "--seeds", str(seeds), "verify", "--id", "1")
    assert code == 1
    assert "dimension" in err


@pytest.mark.parametrize("text, needle", [
    (None, "cannot read seed file"),
    ("1,0,1 | 99 | 1 | index out of range\n", "out of range"),
    ("1,0,1 | 13 | two | not a rational\n", "bad number"),
    ("1,0,1 | 13 | 1/0 | zero denominator\n", "bad number"),
    ("1,0,1 | TT1_3 | 2 | index with a stray T and an underscore\n", "bad number"),
    ("1,0,1 | 13 | 2 | first\n1,0,1 | 13 | 3 | second\n", "conflicting seed"),
    # well formed, but the two-point solver at (0,1,1) finds a residual
    ("0,1,1 | 5 11 | 3 | contradicts associativity\n",
     "inconsistent associativity instance"),
])
def test_seed_file_faults_exit_cleanly(capsys, tmp_path, text, needle):
    seeds = tmp_path / "seeds.txt"
    if text is not None:
        seeds.write_text(text)
    code, _, err = run(capsys, "--cmax", "2", "--seeds", str(seeds), "verify", "--all")
    assert code == 1
    assert needle in err


@pytest.mark.parametrize("argv", [
    ("invariant", "--beta", "1,0,1", "--ins", "T13"),
    ("seeds-export",),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", ["1e5000", "0.5"])
def test_seed_value_with_exponent_or_point_exits_cleanly(capsys, tmp_path, argv, value):
    # 1e5000 used to end in a traceback when the value was printed
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1,0,1 | 13 | %s | x\n" % value)
    code, out, err = run(capsys, "--cmax", "1", "--seeds", str(seeds), *argv)
    assert (code, out) == (1, "")
    assert "bad number in seed line" in err and "Traceback" not in err


# -- hyper -----------------------------------------------------------------------

def test_hyper_csv(capsys):
    code, out, _ = run(capsys, "--cmax", "4", "--format", "csv",
                       "hyper", "--d1", "1", "--d2", "1", "--l", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d1,d2,l,h,count,provenance"
    assert lines[1].startswith("1,1,1,0,0")


def test_hyper_columns_match_frozen_golden(capsys):
    # engine-derived columns frozen from a verified run (not external truth)
    cases = [
        (("--cmax", "4", "--format", "csv",
          "hyper", "--d1", "2", "--d2", "2", "--l", "2"),
         "hyper_2_2_l2.golden.csv"),
        (("--cmax", "4", "--format", "csv", "--enable-bidegree-vanishing",
          "hyper", "--d1", "1", "--d2", "2", "--l", "1"),
         "hyper_1_2_l1_vanishing.golden.csv"),
        (("--cmax", "4", "--format", "csv",
          "hyper", "--d1", "1", "--d2", "1", "--l", "1"),
         "hyper_1_1_l1.golden.csv"),
    ]
    for argv, golden in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / golden).read_text(), golden


def test_hyper_unknown_exit(capsys):
    code, out, _ = run(capsys, "--cmax", "4", "hyper", "--d1", "3", "--d2", "2")
    assert code == 2
    assert "UNKNOWN" in out


def test_hyper_bidegree_flag(capsys):
    code, out, _ = run(capsys, "--cmax", "4", "--enable-bidegree-vanishing",
                       "hyper", "--d1", "1", "--d2", "2", "--l", "1")
    assert code == 0
    assert "UNKNOWN" not in out


def test_hyper_invalid_query(capsys):
    code, _, err = run(capsys, "--cmax", "4", "hyper", "--d1", "0", "--d2", "2")
    assert code == 1
    assert "positive" in err


# -- output contracts ---------------------------------------------------------------

def test_json_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "json", "invariant",
                       "--beta", "1,0,1", "--ins", "T13")
    assert code == 0
    parsed = json.loads(out)
    from qhilb.cli import render_json
    assert render_json(parsed) + "\n" == out


def test_deterministic_bytes(capsys):
    args = ("--cmax", "3", "--format", "json", "hyper", "--d1", "2", "--d2", "1", "--l", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_env_seed_fallback(capsys, tmp_path, monkeypatch):
    seeds = tmp_path / "env_seeds.txt"
    seeds.write_text("3,2,2 | 4 4 4 4 4 4 4 4 4 4 4 | 5 | synthetic\n")
    monkeypatch.setenv("QHILB_SEEDS", str(seeds))
    code, out, _ = run(capsys, "--cmax", "2", "invariant", "--beta", "3,2,2", "--ins", "T4^11")
    assert code == 0
    assert out.splitlines()[0] == "5"


def test_seeds_export(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "seeds-export")
    assert code == 0
    lines = out.strip().splitlines()
    assert "0,0,1 | 8 | 4 |" in out          # the 4/c^2 family at c = 1
    assert "1,0,1 | 13 | 2 |" in out         # the section-class point count
    # the export is itself a loadable override file
    from qhilb.gw_engine import SeedTable
    table = SeedTable()
    assert table.load_overrides(lines) == len(lines)


def test_seeds_export_lists_every_rule_seed(capsys):
    # every key of 1-3 insertions that the seed table answers at c <= 2
    # and that the engine can look up is a line of the export, and the
    # export lists nothing else.  The engine looks up a key only after the
    # divisor axiom, which strips a divisor while three insertions remain,
    # so a three-point key with a divisor is never a line
    table = SeedTable()
    want = set()
    for n in range(1, 4):
        for ins in itertools.combinations_with_replacement(range(BASIS_SIZE), n):
            if n == 3 and any(CODIM[i] == 1 for i in ins):
                continue
            for beta in dimension_classes(ins, 2):
                hit = table.lookup(beta, ins)
                if hit is not None:
                    want.add("%d,%d,%d | %s | %s | %s"
                             % (*beta, " ".join(map(str, ins)), hit[0], hit[1]))
    code, out, _ = run(capsys, "--cmax", "2", "seeds-export")
    assert code == 0
    assert set(out.splitlines()) == want
    assert any("divisor dressing" in line for line in want)


@pytest.mark.parametrize("flags, golden", [
    ((), "seeds_export_c4.golden"),
    (("--enable-bidegree-vanishing",), "seeds_export_c4_vanishing.golden"),
])
def test_seeds_export_matches_frozen_golden(capsys, flags, golden):
    # engine-derived rule seeds frozen from a verified run (not external
    # truth); the (0,1,c) lines come from the (1,0,c) rules via the involution
    code, out, _ = run(capsys, "--cmax", "4", *flags, "seeds-export")
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_gamma_command(capsys):
    code, out, _ = run(capsys, "--cmax", "1", "--ytrunc", "0", "gamma", "T3", "T3", "T8")
    assert code == 0
    assert "beta=(0, 0, 1)" in out


def test_gamma_unknown_terms(capsys):
    code, out, _ = run(capsys, "--cmax", "2", "gamma", "T4", "T4", "T4")
    assert code == 2
    unknown = [line for line in out.splitlines() if "-> UNKNOWN " in line]
    assert len(unknown) == 9
    assert unknown[0].startswith("beta=(0, 2, 0) y=y4^2 -> UNKNOWN requires <T4^5>_(0,2,0) seed")


# one quick job per command, and the formats it writes
_COMMANDS = [
    (("invariant", "--beta", "1,0,1", "--ins", "T13"), ("text", "json")),
    (("product", "T1", "T3"), ("text", "json")),
    (("verify", "--id", "1"), ("text", "json")),
    (("gamma", "T3", "T3", "T8"), ("text", "json")),
    (("hyper", "--d1", "1", "--d2", "1", "--l", "1"), ("text", "json", "csv")),
    (("seeds-export",), ("text",)),
]


@pytest.mark.parametrize("argv, fmt, ok", [
    (argv, fmt, fmt in formats)
    for argv, formats in _COMMANDS for fmt in ("text", "json", "csv")
], ids=lambda x: x[0] if isinstance(x, tuple) else str(x))
def test_format_the_command_does_not_write_exits_1(capsys, argv, fmt, ok):
    # a format the command cannot write is a usage error naming the ones
    # it writes, not plain text with exit 0
    code, out, err = run(capsys, "--cmax", "1", "--ytrunc", "0", "--format", fmt, *argv)
    if ok:
        assert (code, err) == (0, "") and out
        if fmt == "json":
            json.loads(out)
    else:
        formats = dict((a[0], f) for a, f in _COMMANDS)[argv[0]]
        assert (code, out) == (1, "")
        assert err == "error: %s writes --format %s, not %s\n" % (
            argv[0], " or ".join(formats), fmt)


# -- one parser per process ---------------------------------------------------------

# consecutive runs whose options differ, so that a value one run set and
# the next leaves out would show
_SEQUENCE = [
    ("--cmax", "1", "--trace", "invariant", "--beta", "1,0,1", "--ins", "T13"),
    ("--cmax", "1", "invariant", "--beta", "1,0,1", "--ins", "T13"),
    ("--cmax", "1", "--format", "json", "invariant", "--beta", "1,0,1", "--ins", "T13"),
    ("--cmax", "1", "--format", "json", "verify", "--id", "2", "3"),
    ("--cmax", "1", "verify", "--id", "1"),
    ("--cmax", "1", "verify", "--all"),
    ("--cmax", "1", "verify"),
    ("--cmax", "1", "--format", "json", "product", "T1", "T3"),
    ("--cmax", "0", "product", "T1", "T3"),
    ("--cmax", "0", "--ytrunc", "0", "gamma", "T3", "T3", "T8"),
    ("--cmax", "0", "--format", "csv", "product", "T1", "T3"),
    ("--cmax", "0", "product", "T1"),
    ("--cmax", "0", "seeds-export"),
]


def _run_all(sequence):
    results = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def test_consecutive_runs_match_fresh_parsers(monkeypatch):
    monkeypatch.delenv("QHILB_SEEDS", raising=False)
    shared = _run_all(_SEQUENCE)
    with mock.patch.object(cli, "_parser", cli.make_parser):
        fresh = _run_all(_SEQUENCE)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0] * 6 + [1, 0, 0, 0, 1, 1, 0]


def test_parser_built_once_and_commands_looked_up_per_run(monkeypatch, capsys):
    built = []
    make = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "--cmax", "0", "product", "T1", "T3")[0] == 0
        # a replaced command (or build_engine) takes effect in the next run
        monkeypatch.setattr(cli, "cmd_product", lambda args: print("patched") or 0)
        assert run(capsys, "--cmax", "0", "product", "T1", "T3") == (0, "patched\n", "")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


# -- fuzz over argv ---------------------------------------------------------------

# well-formed tokens are drawn more often than garbled ones, so that most
# examples get past parsing and into the engine
_NUMBER = st.one_of(st.integers(1, 2).map(str), st.integers(-1, 3).map(str),
                    st.sampled_from(["x", "", "1.5", "9" * 20]))
_CLASS = st.one_of(
    st.tuples(*[st.integers(0, 2)] * 3).map("{0[0]},{0[1]},{0[2]}".format),
    st.tuples(*[st.integers(-1, 2)] * 3).map("{0[0]},{0[1]},{0[2]}".format),
    st.sampled_from(["1,0", "1,,1", "a,b,c", "1,0,1,2", " 1, 0, 1", "", "1,0,1.0"]))
_INSERTION = st.one_of(
    st.builds("T{}^{}".format, st.integers(1, 13), st.integers(0, 4)),
    st.builds("T{}".format, st.integers(1, 13)),
    st.builds("{}^{}".format, st.integers(-1, 15), st.integers(-1, 8)),
    st.sampled_from(["T", "^", "T4^", "4^x", "T4 T13", "T1.5", "t4", "T4^^2", "", "T14"]))


@st.composite
def _argv(draw):
    argv = ["--cmax", str(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "json", "xml"]))]
    if draw(st.booleans()):
        argv.append("--enable-bidegree-vanishing")
    command = draw(st.sampled_from(["invariant", "product", "hyper", "verify", "seeds-export"]))
    argv.append(command)
    if command == "invariant":
        if draw(st.integers(0, 5)):
            argv += ["--beta", draw(_CLASS)]
        argv += ["--ins"] + draw(st.lists(_INSERTION, min_size=1, max_size=5))
    elif command == "product":
        # two classes half the time, one to three otherwise
        argv += draw(st.lists(_INSERTION, min_size=2, max_size=2)
                     | st.lists(_INSERTION, min_size=1, max_size=3))
    elif command == "hyper":
        for flag in ("--d1", "--d2", "--l"):
            if draw(st.integers(0, 5)):
                argv += [flag, draw(_NUMBER)]
    elif command == "verify":
        argv += ["--id"] + draw(st.lists(_NUMBER, min_size=0, max_size=2))
    return argv


@given(_argv())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fuzzed_argv_exits_cleanly(argv):
    # whatever the tokens, main returns one of the documented exit codes;
    # an exception escaping it would be a traceback for the user
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("QHILB_SEEDS", None)
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


# -- fuzz over seed-file lines ------------------------------------------------------

# keys that pass the dimension axiom, so a drawn value reaches the engine;
# (1,1,c) T4^5 is the key the hyper query below needs
_SEED_KEYS = [((a, b, c), ins)
              for a in range(2) for b in range(2) for c in range(3) if (a, b, c) != (0, 0, 0)
              for n in range(1, 4)
              for ins in itertools.combinations_with_replacement(range(1, 14), n)
              if dimension_check((a, b, c), ins)] + [((1, 1, c), (4,) * 5) for c in range(3)]


def _mostly(valid, broken):
    # a line with a broken part fails as a whole, so valid parts are drawn
    # far more often, to let most seed files reach the engine
    return st.sampled_from([valid] * 3 * len(broken) + broken)


@st.composite
def _seed_line(draw):
    beta, ins = draw(st.sampled_from(_SEED_KEYS))
    fields = [
        draw(_mostly("%d,%d,%d" % beta, ["1,0", "x,0,1", "-1,0,1"])),
        draw(_mostly(" ".join(map(str, ins)), ["99", "-1 13", "T4 T14", ""])),
        draw(st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=6).map(str),
                       _mostly("1", ["1/0", "two", ""]))),
        "fuzz",
    ]
    # a line that loses its last fields misses a '|'
    return " | ".join(fields[:draw(_mostly(4, [3, 2, 1]))])


@st.composite
def _seeded_argv(draw):
    c_max = draw(st.integers(0, 2))
    argv = ["--cmax", str(c_max)]
    command = draw(st.sampled_from(["verify", "invariant", "hyper"]))
    if command == "verify":
        return argv + ["verify", "--id", "1"]
    if command == "invariant":
        beta, ins = draw(st.sampled_from([k for k in _SEED_KEYS if k[0][2] <= c_max]))
        return argv + ["invariant", "--beta", "%d,%d,%d" % beta,
                       "--ins"] + ["T%d" % i for i in ins]
    return argv + ["hyper", "--d1", "1", "--d2", "1", "--l", str(draw(st.integers(0, 1)))]


@given(st.lists(_seed_line(), min_size=1, max_size=3), _seeded_argv())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_fuzzed_seed_file_exits_cleanly(lines, argv):
    # a seed file of valid and broken lines ends in a documented exit code,
    # and a usage error says so on stderr, never in a traceback
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        seeds = Path(tmp) / "seeds.txt"
        seeds.write_text("\n".join(lines) + "\n")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--seeds", str(seeds)] + argv)
    assert code in (0, 1, 2, 3), (lines, argv)
    if code == 1:
        assert err.getvalue().startswith("error: "), (lines, argv)
