"""Command-line driver: verbs, report formats, determinism, exit codes."""

import glob
import hashlib
import os
import random
import re
import subprocess
import sys
import time

import pytest

import milnorforge
from milnorforge import bass_tate, checks, cli, rational_ring
from milnorforge.cli import main, make_field, read_bounds
from milnorforge.errors import BadInput, SelfCheckFailed
from milnorforge.rational_ring import MultiPoly


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# --- field specs and bounds -----------------------------------------------

def test_make_field_kinds():
    from milnorforge.arith.local import LocalFieldCtx
    from milnorforge.ratfunc import RatFuncCtx
    assert isinstance(make_field("padic:5", 8), LocalFieldCtx)
    assert isinstance(make_field("laurent:9", 6), LocalFieldCtx)
    assert isinstance(make_field("ratfunc:3", 8), RatFuncCtx)
    with pytest.raises(BadInput):
        make_field("padic", 8)
    with pytest.raises(BadInput):
        make_field("weird:5", 8)
    with pytest.raises(BadInput):  # no verb takes a bare finite field
        make_field("ff:5", 8)


def test_bounds_env_override(monkeypatch):
    monkeypatch.setenv("MILNOR_FORGE_BOUNDS", " oracleprec=6, ")
    b = read_bounds()
    assert b == {"oracleprec": 6}
    for raw in ("nope=1", "maxdeg=3"):
        monkeypatch.setenv("MILNOR_FORGE_BOUNDS", raw)
        with pytest.raises(BadInput):
            read_bounds()


# --- individual verbs -----------------------------------------------------

def test_ff_kgroup_verb(capsys):
    rc, out = run(capsys, ["ff-kgroup", "--q", "7", "--n", "1"])
    assert rc == 0 and "[6]" in out
    rc, out = run(capsys, ["ff-kgroup", "--q", "7", "--n", "2"])
    assert rc == 0 and "[]" in out
    rc, out = run(capsys, ["ff-kgroup", "--q", "9", "--n", "7"])
    assert rc == 0 and "[]" in out


def test_ff_kgroup_refuses_a_negative_degree(capsys):
    # K_{-1} does not exist; it once printed invariants=[8] ok=true
    rc, out = run(capsys, ["--format", "records", "ff-kgroup", "--q", "9",
                           "--n", "-1"])
    assert rc == 1
    assert out.splitlines()[0] == (
        "record cmd=ff-kgroup seed=0 op=ff-kgroup error=BadInput "
        "counterexample='K_n needs degree n >= 0, got -1' ok=false")


def test_tame_verb_frozen(capsys):
    rc, out = run(capsys, ["--field", "laurent:3", "tame", "deg:2 {pi,2}"])
    assert rc == 0
    assert "deg:1 {ff(3,1):g^1}" in out


def test_a_zero_entry_in_a_class_gives_fail_record(capsys):
    # the two terms cancel, but a symbol has no zero entry: no class is
    # built, and the run fails instead of showing the zero class
    rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                           "tame", "{0,2} - {0,2}"])
    assert rc == 1
    assert "error=ZeroEntry" in out and "ok=false" in out


def test_reduce_and_lift_verbs(capsys):
    rc, out = run(capsys, ["--field", "padic:5", "reduce", "--m", "3",
                           "{2,3}"])
    assert rc == 0 and "deg:2" in out
    rc, out = run(capsys, ["--field", "padic:5", "lift", "--m", "3",
                           "{2,3}"])
    assert rc == 0 and "p^0" in out


def test_divide_writes_verifiable_certificate(capsys, tmp_path):
    cert = tmp_path / "c.cert"
    # {8,7} = 3*{2,7} modulo relators: divisible by 3
    rc, out = run(capsys, ["--field", "padic:5", "--out", str(cert),
                           "divide", "--ell", "3", "{8,7}"])
    assert rc == 0
    assert cert.read_text().startswith("divcert v1")
    rc, out = run(capsys, ["verify-cert", str(cert)])
    assert rc == 0 and "verify_certificate" in out


def test_divide_without_out_reports_the_certificate(capsys):
    argv = ["--field", "padic:5", "divide", "--ell", "3", "{8,7}"]
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert rc == 0
    assert "verified=true" in out and "steps=" in out
    assert "divcert" not in out  # records mode prints records only
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out.startswith("divcert v1\n") and "[PASS]" in out


def test_lift_accepts_residue_field_entries(capsys):
    # g = 2 generates F_5^*, so {g^1, g^3} is {2, 3}
    argv = ["--format", "records", "--field", "padic:5", "lift", "--m", "2"]
    rc, out = run(capsys, argv + ["{ff(5,1):g^1,ff(5,1):g^3}"])
    assert rc == 0
    assert out == run(capsys, argv + ["{2,3}"])[1]


def test_residue_field_entries_need_the_g_prefix(capsys):
    # 'ab1' once read as g^1: the exponent was taken from the third
    # character on without looking at the first two
    argv = ["--format", "records", "--field", "laurent:3", "lift", "--m", "2"]
    rc, out = run(capsys, argv + ["{ff(3,1):ab1}"])
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out
    rc, out = run(capsys, argv + ["{ff(3,1):g^-1}"])
    assert rc == 0
    assert out == run(capsys, argv + ["{ff(3,1):g^1}"])[1]


@pytest.mark.parametrize("argv", [
    ["--field", "laurent:3", "tame", "deg:2 {pi,2}"],
    ["--field", "padic:5", "divide", "--ell", "3", "{8,7}"],
])
def test_unwritable_out_gives_fail_record(capsys, tmp_path, argv):
    path = tmp_path / "missing-dir" / "x"
    rc, out = run(capsys, ["--format", "records", "--out", str(path)] + argv)
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out


def _python(args, timeout, optimize=False):
    src = os.path.dirname(os.path.dirname(milnorforge.__file__))
    # under `python -O -m pytest` every subprocess runs under -O too
    flags = ["-O"] if optimize or sys.flags.optimize else []
    return subprocess.run(
        [sys.executable, *flags, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=timeout,
    )


def _cli_subprocess(args, timeout, optimize=False):
    return _python(["-m", "milnorforge.cli", *args], timeout, optimize)


def test_divide_rejects_degree_one_class_under_python_O():
    out = _cli_subprocess(["--format", "records", "--field", "padic:5",
                           "divide", "--ell", "3", "deg:1 {2}"],
                          timeout=60, optimize=True)
    assert out.returncode == 1, out.stderr
    assert "error=BadInput" in out.stdout and "Traceback" not in out.stderr


def test_ff_kgroup_at_its_bound():
    # q = FIELD_BOUND, and q = 2^16, whose table build makes it the
    # slowest field under that bound: each in seconds
    for q in ("65536", "1048576"):
        out = _cli_subprocess(["--format", "records", "ff-kgroup",
                               "--q", q, "--n", "4"], timeout=60)
        assert out.returncode == 0, out.stderr
        assert "invariants=[]" in out.stdout


@pytest.mark.parametrize("q", [65537, 3 ** 11, 1048573, 1 << 20])
def test_kgroups_and_gersten_check_past_the_tables(capsys, q):
    # no Zech tables above 2^16, yet every verb runs up to FIELD_BOUND
    for n in (1, 2, 3, 4):
        rc, out = run(capsys, ["--format", "records", "ff-kgroup",
                               "--q", str(q), "--n", str(n)])
        want = f"[{q - 1}]" if n == 1 else "[]"
        assert rc == 0 and f"invariants={want} ok=true" in out
    m = "3" if q % 2 == 0 else "2"  # the modulus is prime to p
    rc, out = run(capsys, ["--format", "records", "--field", f"laurent:{q}",
                           "gersten-check", "--n", "3", "--m", m,
                           "--samples", "3"])
    assert rc == 0 and out.count(" ok=true") == 4  # 3 samples, summary


def test_divide_at_the_table_bound():
    # certificates have O(n log q) steps, so the largest tabled residue
    # field builds and replays one in seconds
    unit = "laurent(65536,8):t^0*(3,5,7,1,9)"
    out = _cli_subprocess(["--format", "records", "--field", "laurent:65536",
                           "divide", "--ell", "3", f"{{{unit},{unit}}}"],
                          timeout=60)
    assert out.returncode == 0, out.stderr
    assert "verified=true ok=true" in out.stdout


def test_residues_above_the_table_bound():
    # F_{2^20} has no Zech tables: polynomial sums run digitwise on
    # encodings, and the discrete logs of the printed residues share one
    # baby-step table.  0.8 s on a 2-core Xeon VM; the limit sits below
    # the 12.9 s it took when every sum cost a discrete log
    out = _cli_subprocess(["--format", "records", "--field", "ratfunc:1048576",
                           "residues", "{t^2+t+1,t^2+1}"], timeout=5)
    assert out.returncode == 0, out.stderr
    assert "{ff(2,20):g^349525}" in out.stdout
    assert "{ff(2,20):g^699050}" in out.stdout


def test_root_search_over_a_large_residue_field():
    # a root lam*r/s of a polynomial over F_q(t) takes its scalar lam from
    # the linear factors of a gcd; scanning all of F_65536^x for it took
    # 67 s.  0.9-1.5 s on a 2-core Xeon VM, most of it the field's tables
    out = _cli_subprocess(["--format", "records", "--field", "ratfunc:65536",
                           "check-projection", "--samples", "2"], timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("checks=2 ok=true\n")


def test_hilbert_and_oracle_agree(capsys):
    rc, h_out = run(capsys, ["--field", "padic:2", "hilbert", "-1", "-1"])
    assert rc == 0 and "1" in h_out
    rc, o_out = run(capsys, ["--field", "padic:2", "qf-oracle", "-1", "-1"])
    assert rc == 0 and "false" in o_out.lower()


def test_residues_and_section_verbs(capsys):
    rc, out = run(capsys, ["--field", "ratfunc:3", "residues", "{t,t+-1}"])
    assert rc == 0 and "inf ->" in out
    rc, out = run(capsys, ["--field", "ratfunc:3", "section", "{t,t+-1}"])
    assert rc == 0


def test_norm_verb(capsys):
    rc, out = run(capsys, ["--field", "ratfunc:3", "norm",
                           "--pi=-1*t;0;1", "{0;1}"])
    assert rc == 0 and "deg:1" in out


@pytest.mark.parametrize("verb", ["check-reciprocity", "check-projection",
                                  "check-tower"])
def test_function_field_property_verbs(capsys, verb):
    rc, out = run(capsys, ["--field", "ratfunc:3", "--seed", "5", verb,
                           "--samples", "3"])
    assert rc == 0, out
    assert "FAIL" not in out


def test_ratring_verbs(capsys):
    rc, out = run(capsys, ["--field", "padic:3", "s-member", "5*t^0+2*t^1"])
    assert rc == 0 and "true" in out.lower()
    rc, out = run(capsys, ["--field", "padic:3",
                           "ratring-unit", "(1*t^0+6*t^1)/(7*t^0+1*t^1)"])
    assert rc == 0
    rc, out = run(capsys, ["--field", "padic:3",
                           "ratring-residue", "(1*t^0+6*t^1)/(7*t^0+1*t^1)"])
    assert rc == 0 and "(ff(3,1):g^0)/(ff(3,1):g^0 + ff(3,1):g^0*t^1)" in out


def test_delta_check_verb_true_and_false(capsys):
    rc, out = run(capsys, ["--field", "padic:5", "delta-check", "{2,3}"])
    assert rc == 0 and "in_kernel=true" in out
    rc, out = run(capsys, ["--field", "laurent:3", "delta-check",
                           "{1*t^0+1*t^1,2}"])
    assert rc == 0 and "in_kernel=false" in out  # the class moves with t


def test_base_change_check_verb(capsys):
    rc, out = run(capsys, ["--field", "padic:5", "--seed", "3",
                           "base-change-check", "--pi", "2;0;1",
                           "--samples", "2"])
    assert rc == 0, out


def test_base_change_check_sampler_reports_a_failed_self_check(capsys,
                                                              monkeypatch):
    # the sampler redraws pi only when B would not be local; a failed
    # self-check of the norm inverse must end in a FAIL record
    real = rational_ring._adj_column

    def wrong(A, M):
        adj, det = real(A, M)
        return [adj[0] + MultiPoly.one(A, 1)] + adj[1:], det

    monkeypatch.setattr(rational_ring, "_adj_column", wrong)
    rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                           "--seed", "7", "base-change-check",
                           "--samples", "2"])
    assert rc == 1
    assert "error=SelfCheckFailed" in out and "ok=false" in out


def test_check_tower_sampler_reports_a_failed_self_check(capsys, monkeypatch):
    def broken(pi1, pi2, g):
        raise SelfCheckFailed("pi-residue drifted during corrections")

    monkeypatch.setattr(checks, "functoriality_check", broken)
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "check-tower", "--samples", "2"])
    assert rc == 1
    assert "error=SelfCheckFailed" in out and "ok=false" in out


@pytest.mark.parametrize("field", ["padic:5", "laurent:3"])
def test_sampled_base_change_check_passes(capsys, field):
    rc, out = run(capsys, ["--format", "records", "--field", field, "--seed",
                           "1", "base-change-check", "--samples", "2"])
    assert rc == 0, out
    assert out.count("op=base_change_roundtrip") == 2


def test_sampled_base_change_check_reports_a_shortfall(capsys, monkeypatch):
    # every residue drawn is rejected, so all 50 draws fail: no silent pass
    monkeypatch.setattr(checks, "is_irreducible", lambda f: False)
    rc, out = run(capsys, ["--format", "records", "--field", "padic:2",
                           "base-change-check", "--samples", "1"])
    assert rc == 1
    assert "counterexample='only 0 local extensions sampled' ok=false" in out


@pytest.mark.parametrize("seed", [74, 85, 91])
def test_sampled_base_change_over_padic_2_draws_the_residue_first(capsys,
                                                                  seed):
    # these seeds drew 50 reducible residues in a row when pi's
    # coefficients were drawn before its residue
    for fmt in ("records", "text"):
        start = time.perf_counter()
        rc, out = run(capsys, ["--format", fmt, "--field", "padic:2",
                               "--seed", str(seed), "base-change-check",
                               "--samples", "1"])
        assert time.perf_counter() - start < 10
        assert rc == 0, out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 16, 25, 125])
def test_degree_32_sections_fit_the_correction_budget(capsys, q):
    # the worst of a grid of degree-32 sections spent 137 of the 256 place
    # degrees; at a budget of 64 the sections over F_3, F_5, F_7, F_9,
    # F_25 and F_125 failed
    for cls in ("{t^32+t+1,t^32+1}", "{t^32+t^3+2,t^32+t}"):
        start = time.perf_counter()
        rc, out = run(capsys, ["--format", "records", "--field",
                               f"ratfunc:{q}", "section", cls])
        assert time.perf_counter() - start < 20
        assert rc == 0 and "finite_round_trip=true" in out, out


def test_correction_budget_exhaustion_names_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(bass_tate, "BT_CORRECTION_BUDGET", 64)
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "section", "{t^32+t+1,t^32+1}"])
    assert rc == 1
    assert ("error=DegreeTooLarge counterexample='section corrections "
            "exceed the budget of 64 in place degree'") in out


def test_check_projection_sampler_is_bounded(capsys, monkeypatch):
    monkeypatch.setattr(checks.QuotCtx, "pi_is_irreducible",
                        lambda self: False)
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "check-projection", "--samples", "2"])
    assert rc == 1
    assert "counterexample='only 0 extensions sampled' ok=false" in out


def test_check_projection_sampler_reports_a_failed_self_check(capsys,
                                                              monkeypatch):
    def broken(self):
        raise SelfCheckFailed("factorization failed to re-multiply")

    monkeypatch.setattr(checks.QuotCtx, "pi_is_irreducible", broken)
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "check-projection", "--samples", "2"])
    assert rc == 1
    assert "error=SelfCheckFailed" in out and "ok=false" in out


@pytest.mark.parametrize("name,argv", [
    ("reciprocity_check", ["--field", "ratfunc:3", "check-reciprocity",
                           "--samples", "1"]),
    ("projection_formula_check", ["--field", "ratfunc:3", "check-projection",
                                  "--samples", "1"]),
    ("base_change_roundtrip", ["--field", "padic:5", "base-change-check",
                               "--pi", "2;0;1"]),
    ("k_equal", ["suite", "STEINBERG"]),
])
def test_failed_check_shows_its_counterexample(capsys, monkeypatch, name,
                                               argv):
    monkeypatch.setattr(checks, name, lambda *args: False)
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert rc == 1
    failed = [ln for ln in out.splitlines() if ln.startswith("record ")
              and ln.endswith("ok=false")]
    assert failed and all(" counterexample=" in ln for ln in failed)


def test_failed_section_round_trip_shows_its_counterexample(capsys,
                                                            monkeypatch):
    monkeypatch.setattr(bass_tate.ResidueVector, "same_finite",
                        lambda self, other: False)
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "section", "{t,t+-1}"])
    assert rc == 1
    assert out.splitlines()[0] == (
        "record cmd=section seed=0 op=bt_section "
        "output='deg:2 {ff(3,1):g^0*t^1,ff(3,1):g^1}' finite_round_trip=false "
        "counterexample='deg:2 {ff(3,1):g^0*t^1,ff(3,1):g^1 + "
        "ff(3,1):g^0*t^1}' ok=false")


def test_base_change_check_degree_five_pi():
    # X^5 - X - 1 is irreducible over F_5; inverting by Gaussian
    # elimination took minutes on this pi, the norm inverse well under 60 s
    out = _cli_subprocess(["--format", "records", "--field", "padic:5",
                           "base-change-check", "--pi=-1;-1;0;0;0;1"],
                          timeout=60)
    assert out.returncode == 0, out.stderr
    assert "ok=true" in out.stdout


@pytest.mark.parametrize("pi", [";".join(["1"] * 8),  # degree 7
                                ";".join(["1"] * 100_000), "1;x;1"])
def test_base_change_check_rejects_pi_past_bound_or_unparsable(capsys, pi):
    rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                           "base-change-check", f"--pi={pi}"])
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out


@pytest.mark.parametrize("argv", [
    # degree 6 over F_13((t)) takes about 3 s at precision 8, 10 s at 64
    ["--field", "laurent:13", "--precision", "64", "base-change-check",
     "--pi=12;12;12;12;11;10;1"],
    ["--field", "padic:5", "--precision", "16", "base-change-check",
     "--pi=4;4;4;4;4;3;1"],
    # the sampler's cubics over Laurent series at precision 256 took 11 s
    ["--field", "laurent:3", "--precision", "256", "base-change-check"],
    ["--field", "padic:5", "--precision", "1024", "base-change-check"],
])
def test_base_change_check_rejects_inputs_above_the_cost_bound(capsys, argv):
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert "error=BadInput" in out and "costs more than degree 6" in out


def test_sampled_base_change_check_at_precision_256(capsys):
    rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                           "--precision", "256", "--seed", "3",
                           "base-change-check", "--samples", "1"])
    assert rc == 0, out


def test_gersten_check_verb(capsys):
    rc, out = run(capsys, ["--field", "laurent:3", "--seed", "1",
                           "gersten-check", "--n", "2", "--m", "2",
                           "--samples", "5"])
    assert rc == 0, out


def test_gersten_check_rejects_mixed_characteristic(capsys):
    rc, out = run(capsys, ["--field", "padic:5", "gersten-check",
                           "--n", "1", "--m", "2", "--samples", "2"])
    assert rc == 1
    assert "MixedCharRejected" in out


@pytest.mark.parametrize("argv", [
    ["--field", "ratfunc:3", "check-reciprocity"],
    ["--field", "ratfunc:3", "check-projection"],
    ["--field", "ratfunc:3", "check-tower"],
    ["--field", "padic:5", "base-change-check"],
    ["--field", "laurent:3", "gersten-check", "--n", "2", "--m", "2"],
], ids=lambda argv: argv[2])
def test_sampled_verb_refuses_a_negative_sample_count(capsys, argv):
    # --samples -3 once ran no check and reported checks=0 ok=true
    rc, out = run(capsys, ["--format", "records"] + argv + ["--samples", "-3"])
    assert rc == 1
    assert "error=BadInput" in out and "checks=1 ok=false" in out
    rc, out = run(capsys, ["--format", "records"] + argv + ["--samples", "0"])
    assert rc == 0 and "checks=0 ok=true" in out


def test_base_change_check_along_pi_refuses_a_negative_sample_count(capsys):
    # with --pi the count once went unread: -3 ran the one check, ok=true
    argv = ["--format", "records", "--field", "padic:5", "base-change-check",
            "--pi", "2;0;1", "--samples"]
    rc, out = run(capsys, argv + ["-3"])
    assert rc == 1
    assert "error=BadInput" in out and "checks=1 ok=false" in out
    for count in ("0", "4"):  # any other count runs the one round trip
        rc, out = run(capsys, argv + [count])
        assert rc == 0 and "op=base_change_roundtrip index=0 ok=true" in out
        assert "checks=1 ok=true" in out


def test_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["suite", "NOT_A_SUITE"])


@pytest.mark.parametrize("name", ["STEINBERG", "FF_KGROUPS"])
def test_suites_pass(capsys, name):
    rc, out = run(capsys, ["--seed", "11", "suite", name])
    assert rc == 0, out


# --- report formats and determinism ---------------------------------------

def test_records_format_is_line_delimited_and_timing_free(capsys):
    rc, out = run(capsys, ["--field", "laurent:3", "--format", "records",
                           "--seed", "9", "tame", "deg:2 {pi,2}"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(l.startswith(("record ", "summary ")) for l in lines)
    assert lines[-1].startswith("summary cmd=tame seed=9")
    assert "s)" not in out  # no wall-clock timing in records mode


def test_records_are_byte_identical_across_runs(capsys):
    argv = ["--field", "ratfunc:3", "--format", "records", "--seed", "42",
            "check-reciprocity", "--samples", "4"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    _, other_seed = run(capsys, argv[:8] + ["41"] + argv[9:])
    assert other_seed != first


FUNCTION_FIELD_RUNS = [
    ["--field", f"ratfunc:{q}", "--seed", str(seed)] + verb
    for q in (3, 5) for seed in (0, 7)
    for verb in (
        ["residues", "{1*t^1+1,1*t^2+2} - 2*{t,(1*t^2+1)/(1*t^1+1)}"],
        ["section", "{1*t^1+1,1*t^2+2} - 2*{t,(1*t^2+1)/(1*t^1+1)}"],
        ["norm", "--pi=-1*t;0;1", "{0;1,1*t^1+1;1}"],
        ["norm", "--pi=-1*t;0;0;1", "{1*t^1;0;1,1*t^0+1*t^1;1}"],
        ["norm", "--pi=-1*t^2;0;1", "{1;1}"],  # reducible: a FAIL record
        ["check-reciprocity", "--samples", "3"],
        ["check-projection", "--samples", "2"],
        ["check-tower", "--samples", "2"],
    )]


def test_function_field_records_are_pinned(capsys):
    # the residue, section and norm records over F_3(t) and F_5(t): any
    # change to the correction sweep, the places it visits or the
    # samplers changes this digest
    h = hashlib.sha256()
    for argv in FUNCTION_FIELD_RUNS:
        _, out = run(capsys, ["--format", "records"] + argv)
        h.update(out.encode())
    assert h.hexdigest() == (
        "1d4f07b2a5903b5800f919a2943f3b3cbb1cd21deeecc5adc1d8d7eb6f46cf8a")


RECORDS_RUNS = [
    ["--seed", str(seed)] + argv
    for seed in (0, 7)
    for argv in (
        [["suite", name] for name in sorted(cli.SUITES)]
        + [["--field", "laurent:3", "gersten-check", "--n", str(n), "--m", "2",
            "--samples", "5"] for n in (1, 2, 3)]
        + [["--field", f"ratfunc:{q}"] + verb
           for q in (2, 4)
           for verb in (["check-reciprocity", "--samples", "2"],
                        ["check-projection", "--samples", "2"],
                        ["check-tower", "--samples", "1"])]
        + [["--field", field, "base-change-check", "--samples", "2"]
           for field in ("padic:5", "laurent:3")])]


def test_suite_and_check_records_are_pinned(capsys):
    # the five suites, gersten-check, the check verbs in characteristic 2
    # (where check-tower refuses its inseparable towers with BadInput) and
    # the sampled base-change-check; digest taken before the power routines
    # and the root search over F_q(t) were rewritten, and retaken when only
    # the four characteristic-2 check-tower records changed
    h = hashlib.sha256()
    for argv in RECORDS_RUNS:
        _, out = run(capsys, ["--format", "records"] + argv)
        h.update(out.encode())
    assert h.hexdigest() == (
        "9cd56a05f12ac79a8273384a06b819a8c9a09b08bf206cc2479aa1b3a143ec33")


_L9 = "laurent(9,8):t^0*(3,1)"
_L16 = "laurent(16,8):t^0*(3,5,7)"
_L25 = "laurent(25,8):t^0*(7,2)"
EXTENSION_FIELD_RUNS = [
    ["--field", "laurent:9", "tame", f"{{pi,{_L9}}}"],
    ["--field", "laurent:16", "reduce", "--m", "3",
     f"{{{_L16},laurent(16,8):t^0*(2,0,9)}}"],
    ["--field", "laurent:25", "lift", "--m", "2",
     "{ff(5,2):g^7,ff(5,2):g^3}"],
    ["--field", "laurent:65537", "tame", "{laurent(65537,8):t^0*(3,5),pi}"],
    ["--field", "laurent:1048576", "lift", "--m", "3",
     "{ff(2,20):g^5,ff(2,20):g^-1}"],
    ["--field", "laurent:9", "gersten-check", "--n", "2", "--m", "2",
     "--samples", "3"],
    ["--field", "laurent:16", "gersten-check", "--n", "3", "--m", "3",
     "--samples", "2"],
    ["--field", "laurent:25", "divide", "--ell", "3", f"{{{_L25},{_L25}}}"],
    ["--field", "ratfunc:9", "residues", "{t^2+t+1,t^3+2}"],
    ["--field", "ratfunc:27", "section", "{t^2+1,t^2+t+2}"],
    ["--field", "ratfunc:243", "check-reciprocity", "--samples", "2"],
    ["--field", "ratfunc:9", "check-projection", "--samples", "2"],
    ["--field", "ratfunc:27", "check-tower", "--samples", "1"],
    ["--field", "ratfunc:1048573", "residues", "{t^2+t+1,t^3+2}"],
    ["--field", "ratfunc:1048576", "section", "{t^2+t+1,t^2+1}"],
]


def test_extension_field_records_are_pinned(capsys):
    # records over F_9 .. F_{2^20} and over the untabled fields past
    # TABLE_BOUND, where every printed g^e is a discrete log of a stored
    # encoding; digest taken while elements still stored their exponents
    h = hashlib.sha256()
    for argv in EXTENSION_FIELD_RUNS:
        _, out = run(capsys, ["--format", "records", "--seed", "3"] + argv)
        h.update(out.encode())
    assert h.hexdigest() == (
        "ccd7c893c22aa523283deabd631d77133f13208d0471ca30708c195b7d794b16")


_RATRING_ELEMS = ["(0)/(2+1*t^1)", "(3*t^1)/(1+1*t^1)", "(2)/(2+1*t^1)",
                  "(1+1*t^1)/(2*t^0)", "(1+2*t^1+1*t^2)/(1+1*t^1)",
                  "(1+1*t^1+1*t^3)/(2*t^0+1*t^2)"]
RATRING_RUNS = [
    ["--seed", str(seed), "--field", field] + argv
    for seed in (0, 1, 2)
    for field in ("padic:3", "laurent:4", "laurent:9")
    for argv in (
        [["s-member", p] for p in ("3*t^0+1*t^1", "3*t^0+9*t^2")]
        + [["s-member", "--vars", "2", "3+1*t1*t2"]]
        + [["ratring-unit", e] for e in _RATRING_ELEMS[1:]]
        + [["ratring-unit", "--vars", "2", "(1+3*t1)/(1+t2)"]]
        + [["ratring-residue", e] for e in _RATRING_ELEMS]
        + [["delta-check", s] for s in (
            "{(1+1*t^1)/(1+1*t^2),2}", "{2,5}",
            "{(1+1*t^1)/(1+1*t^2),(1+1*t^1+1*t^3)/(1+1*t^2)}",
            "deg:1 {(1+2*t^1+1*t^2)/(1+1*t^1)}")]
        + [["base-change-check", "--samples", "2"]])]
# outside the digest: a constant numerator over a denominator in S (zero
# over F_4) and a one-sample base change, each exiting 0 within 30 s
RATRING_PASSING_RUNS = [
    ["--field", field] + argv
    for field in ("laurent:4", "laurent:9")
    for argv in (["ratring-residue", "(2)/(1+1*t^1)"],
                 ["base-change-check", "--samples", "1"])]


def test_rational_ring_records_are_pinned(capsys):
    # the A(t) verbs over Z_3, F_4[[t]] and F_9[[t]]: residues with zero,
    # constant and shared-factor numerators (in characteristic 2, 2 is a
    # zero numerator or a denominator outside S), delta checks and sampled
    # base changes; digest taken before RatFuncElem skipped forced gcds
    h = hashlib.sha256()
    for argv in RATRING_RUNS:
        _, out = run(capsys, ["--format", "records"] + argv)
        h.update(out.encode())
    assert h.hexdigest() == (
        "6a527e45d940a3bc02714ba90689511a83286e7c8706a71ff48360eda87a37db")
    for argv in RATRING_PASSING_RUNS:
        start = time.perf_counter()
        rc, out = run(capsys, ["--format", "records"] + argv)
        assert time.perf_counter() - start < 30
        assert rc == 0, out


EVERY_VERB_RUNS = [
    ["--seed", str(seed)] + argv
    for seed in (0, 1, 2)
    for argv in (
        [["ff-kgroup", "--q", "9", "--n", "1"],
         ["ff-kgroup", "--q", "7", "--n", "2"],
         ["--field", "padic:5", "tame", "deg:2 {pi,2}"],
         ["--field", "padic:5", "reduce", "--m", "2", "{2,3}"],
         ["--field", "laurent:9", "lift", "--m", "2",
          "{ff(3,2):g^3,ff(3,2):g^5}"],
         ["--field", "padic:5", "--out", "c.cert", "divide", "--ell", "3",
          "{8,7}"],
         ["verify-cert", "c.cert"],
         ["--field", "padic:2", "hilbert", "-1", "-1"],
         ["--field", "padic:5", "hilbert", "5", "2"],
         ["--field", "padic:2", "qf-oracle", "2", "-1"],
         ["--field", "ratfunc:3", "residues", "{t,1*t^1+1}"],
         ["--field", "ratfunc:3", "section", "{t,1*t^1+1}"],
         ["--field", "ratfunc:3", "norm", "--pi=-1*t;0;1", "{0;1,1*t^1+1;1}"],
         ["--field", "padic:3", "s-member", "3*t^0+1*t^1"],
         ["--field", "padic:3", "ratring-unit", "(1+1*t^1)/(2*t^0)"],
         ["--field", "padic:3", "ratring-residue", "(3*t^1)/(1+1*t^1)"],
         ["--field", "padic:3", "delta-check", "{2,5}"],
         ["--field", "padic:5", "base-change-check", "--pi", "2;0;1"],
         # above the cost bound, with and without --pi: a FAIL record
         ["--field", "padic:5", "--precision", "16", "base-change-check",
          "--pi=4;4;4;4;4;3;1"],
         ["--field", "laurent:3", "--precision", "256", "base-change-check"],
         # gersten-check refuses mixed characteristic: a FAIL record
         ["--field", "padic:5", "gersten-check", "--n", "1", "--m", "2"]]
        + [["--field", "laurent:3", "gersten-check", "--n", str(n), "--m", "2",
            "--samples", "3"] for n in (1, 2, 3)]
        + [["--field", "padic:5", "base-change-check", "--samples", "2"]]
        # check-tower over F_2(t) refuses its inseparable towers
        + [["--field", f"ratfunc:{q}", verb, "--samples", "2"]
           for q in (2, 3)
           for verb in ("check-reciprocity", "check-projection",
                        "check-tower")]
        + [["suite", name] for name in sorted(cli.SUITES)])]


def test_every_verb_and_suite_records_are_pinned(capsys, monkeypatch,
                                                 tmp_path):
    # every verb, its FAIL paths included, and every suite at seeds 0-2;
    # digest taken before the sampled checks left the command-line driver
    monkeypatch.chdir(tmp_path)  # divide writes c.cert, verify-cert reads it
    h = hashlib.sha256()
    for argv in EVERY_VERB_RUNS:
        _, out = run(capsys, ["--format", "records"] + argv)
        h.update(out.encode())
    assert h.hexdigest() == (
        "0c30aa3caa17a8817057e548b71aa569bf6fde9d270da3b4965b236b1285039a")


def test_norm_along_reducible_pi_fails(capsys):
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "norm", "--pi=-1*t^2;0;1", "{1;1}"])
    assert rc == 1
    assert out.splitlines()[0].endswith(
        "error=NotIrreducible "
        "counterexample='ff(3,1):g^1*t^2 + ff(3,1):g^0*X^2' ok=false")


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.txt"
    rc, out = run(capsys, ["--field", "laurent:3", "--format", "records",
                           "--out", str(path), "tame", "deg:2 {pi,2}"])
    assert rc == 0
    assert path.read_text() == out


def test_bad_input_exits_nonzero_with_error_record(capsys):
    rc, out = run(capsys, ["--field", "padic:5", "tame", "deg:2 {0,2}"])
    assert rc == 1
    assert "error=" in out or "FAIL" in out


# --- trust boundaries: bad input ends in a FAIL record --------------------

def test_oracle_sweep_above_bound_fails_fast(capsys):
    rc, out = run(capsys, ["--format", "records", "--field", "padic:101",
                           "qf-oracle", "3", "5"])
    assert rc == 1
    assert "error=SweepTooLarge" in out and "ok=false" in out


@pytest.mark.parametrize("verb", ["hilbert", "qf-oracle"])
def test_pairing_verbs_reject_laurent_fields(capsys, verb):
    rc, out = run(capsys, ["--format", "records", "--field", "laurent:3",
                           verb, "1", "2"])
    assert rc == 1
    assert "error=ContextMismatch" in out and "ok=false" in out


def test_oracle_precision_below_head_fails(capsys, monkeypatch):
    monkeypatch.setenv("MILNOR_FORGE_BOUNDS", "oracleprec=2")
    rc, out = run(capsys, ["--format", "records", "--field", "padic:2",
                           "qf-oracle", "1", "1"])
    assert rc == 1
    assert "error=PrecisionTooLow" in out and "ok=false" in out


@pytest.mark.parametrize("raw", ["oracleprec=x", "bogus=1", "oracleprec=1_0",
                                 "oracleprec=+8", "oracleprec=\u0663",
                                 "maxq=8"])
def test_bad_bounds_give_fail_record(capsys, monkeypatch, raw):
    monkeypatch.setenv("MILNOR_FORGE_BOUNDS", raw)
    rc, out = run(capsys, ["--format", "records", "--field", "padic:2",
                           "hilbert", "3", "5"])
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out


_OVER_DEGREE = ";".join(["1"] * (cli.MAX_POLY_DEGREE + 2))


@pytest.mark.parametrize("argv", [
    # a dense list of 10^9 coefficients was once built for this
    ["--field", "ratfunc:3", "residues", "{t^999999999,t}"],
    ["--field", "ratfunc:3", "residues", "{t^20*t^20,t}"],  # accumulated
    ["--field", "ratfunc:3", "section", "{(1)/(t^33+1),t}"],
    ["--field", "ratfunc:3", "norm", f"--pi={_OVER_DEGREE}", "{0;1}"],
    ["--field", "ratfunc:3", "norm", "--pi=-1*t;0;1", f"{{{_OVER_DEGREE}}}"],
    ["--field", "padic:5", "s-member", "1+t^999999999"],
    ["--field", "padic:5", "s-member", "--vars", "2", "1+t1*t2^99999"],
    ["--field", "laurent:3", "delta-check", "{1+t^33}"],
])
def test_polynomial_above_the_degree_bound_fails_fast(capsys, argv):
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert "error=BadInput" in out and "exceeds bound" in out


def test_polynomial_at_the_degree_bound_is_accepted(capsys):
    d = cli.MAX_POLY_DEGREE
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "residues", f"{{t^{d}+t+1,t^{d}+1}}"])
    assert rc == 0, out
    pi = ";".join(["-1*t"] + ["0"] * (d - 1) + ["1"])
    rc, out = run(capsys, ["--format", "records", "--field", "ratfunc:3",
                           "norm", f"--pi={pi}", "{0;1}"])
    assert "exceeds bound" not in out


@pytest.mark.parametrize("q", [2, 4])
def test_check_tower_refuses_characteristic_two(capsys, q):
    # X^2 + c*t and Y^2 - (theta + s) are inseparable when p = 2: the
    # sampler once spent up to 1.3 s on 50 futile draws
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records", "--field", f"ratfunc:{q}",
                           "check-tower", "--samples", "1"])
    assert time.perf_counter() - start < 0.5
    assert rc == 1
    assert "error=BadInput" in out and "inseparable" in out


@pytest.mark.parametrize("argv", [
    ["--field", "ratfunc:3", "residues", "{t,}"],
    ["--field", "padic:5", "tame", "{2,,3}"],
    ["--field", "padic:5", "tame", "{,2}"],
    ["--field", "laurent:3", "divide", "--ell", "2", "{2,2,}"],
])
def test_empty_class_entry_gives_fail_record(capsys, argv):
    # an empty part beside a comma was once dropped: {t,} ran as {t}
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert rc == 1
    assert "error=BadInput" in out and "empty entry" in out
    assert "ok=false" in out


def test_empty_braces_are_the_degree_zero_symbol(capsys):
    ctx = make_field("padic:5", 8)
    a = cli.parse_class(ctx, "{}", lambda e: cli.parse_local_element(ctx, e))
    assert a.degree == 0 and a.serialize() == "deg:0 {}"
    rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                           "lift", "--m", "2", "{}"])
    assert rc == 0
    assert "output='deg:0 {}' ok=true" in out


def test_verify_cert_lenient_number_gives_fail_record(capsys, tmp_path):
    # int() would read `+3`; certificate numbers are ASCII -?[0-9]+ only
    cert = tmp_path / "c.cert"
    rc, _ = run(capsys, ["--field", "padic:5", "--out", str(cert),
                         "divide", "--ell", "3", "{8,7}"])
    assert rc == 0
    cert.write_text(cert.read_text().replace("\nell 3\n", "\nell +3\n"))
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records", "verify-cert", str(cert)])
    assert time.perf_counter() - start < 10
    assert rc == 1
    assert "error=PatternMismatch" in out and "'ell +3'" in out
    assert "ok=false" in out


def test_verify_cert_degree_below_2_gives_fail_record(capsys, tmp_path):
    # a certificate with no terms once replayed as ok=true in any degree
    cert = tmp_path / "d.cert"
    cert.write_text("divcert v1\nctx padic(5,8)\nell 3\ndegree -2\n")
    rc, out = run(capsys, ["--format", "records", "verify-cert", str(cert)])
    assert rc == 1
    assert out.splitlines()[0] == (
        "record cmd=verify-cert seed=0 op=verify-cert error=PatternMismatch "
        "counterexample=\"certificate line 'degree -2': certificates need "
        "degree >= 2\" ok=false")


# a step with a zero entry once passed its side condition (y*z = 0 = e[pos])
# and its relator cancelled alpha: {5,2} and {t,2} replayed as divisible
# by 2, though hilbert 5 2 over padic:5 is the non-square g^3
_ZERO_ENTRY_CERTS = {
    "padic5": "ctx padic(5,8)\nell 2\ndegree 2\n"
              "alpha 1 ; padic(5,8):1*p^1 | padic(5,8):2*p^0\n"
              "step BILINEAR_EXPAND -1 0 ; padic(5,8):0 | padic(5,8):2*p^0 ; "
              "padic(5,8):0 | padic(5,8):1*p^1\n",
    "laurent3": "ctx laurent(3,4)\nell 2\ndegree 2\n"
                "alpha 1 ; laurent(3,4):t^1*(1,0,0,0) | "
                "laurent(3,4):t^0*(2,0,0,0)\n"
                "step BILINEAR_EXPAND -1 0 ; laurent(3,4):0 | "
                "laurent(3,4):t^0*(2,0,0,0) ; laurent(3,4):0 | "
                "laurent(3,4):t^1*(1,0,0,0)\n",
}


@pytest.mark.parametrize("case", sorted(_ZERO_ENTRY_CERTS))
def test_verify_cert_zero_entry_gives_fail_record(capsys, tmp_path, case):
    cert = tmp_path / "z.cert"
    cert.write_text("divcert v1\n" + _ZERO_ENTRY_CERTS[case])
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records", "verify-cert", str(cert)])
    assert time.perf_counter() - start < 10
    assert rc == 1
    (record,) = [ln for ln in out.splitlines() if ln.startswith("record ")]
    assert record.endswith(" ell=2 steps=1 counterexample='step 0 "
                           "(BILINEAR_EXPAND): entry 0 is zero' ok=false")


# the builder emits only BILINEAR_EXPAND, HENSEL_ROOT and STEINBERG_ZERO; a
# hand-written certificate over Z_5 cancels {2,3} + {3,2} + {2,-2} + {2,2}
# - {2,-1} by one SWAP, one MINUS_SELF and one SELF_TO_MINUS_ONE step
_KINDS_CERT = "\n".join([
    "divcert v1", "ctx padic(5,8)", "ell 2", "degree 2",
    "alpha 1 ; padic(5,8):2*p^0 | padic(5,8):3*p^0",
    "alpha 1 ; padic(5,8):3*p^0 | padic(5,8):2*p^0",
    "alpha 1 ; padic(5,8):2*p^0 | padic(5,8):390623*p^0",
    "alpha 1 ; padic(5,8):2*p^0 | padic(5,8):2*p^0",
    "alpha -1 ; padic(5,8):2*p^0 | padic(5,8):390624*p^0",
    "step SWAP 1 0,1 ; padic(5,8):2*p^0 | padic(5,8):3*p^0",
    "step MINUS_SELF 1 0 ; padic(5,8):2*p^0 | padic(5,8):390623*p^0",
    "step SELF_TO_MINUS_ONE 1 0 ; padic(5,8):2*p^0 | padic(5,8):2*p^0",
]) + "\n"


def test_every_step_kind_replays_from_a_file(tmp_path):
    # it replays with ok=true; with the SWAP at 0,0 it ends in ok=false
    # naming the step and exits 1, each within 10 s
    cert = tmp_path / "kinds.cert"
    cert.write_text(_KINDS_CERT)
    out = _cli_subprocess(["--format", "records", "verify-cert", str(cert)],
                          timeout=10)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "ok=true" in out.stdout
    cert.write_text(_KINDS_CERT.replace("\nstep SWAP 1 0,1 ;",
                                        "\nstep SWAP 1 0,0 ;"))
    out = _cli_subprocess(["--format", "records", "verify-cert", str(cert)],
                          timeout=10)
    assert out.returncode == 1, out.stdout + out.stderr
    assert ("counterexample='step 0 (SWAP): swap of equal positions'"
            in out.stdout)


def test_verify_cert_missing_file_gives_fail_record(capsys, tmp_path):
    rc, out = run(capsys, ["--format", "records", "verify-cert",
                           str(tmp_path / "missing.txt")])
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out


# --- the precision bound and oversized integers -----------------------------

_DIGITS = "7" * 5000  # past Python's 4300-digit int/str conversion limit

_OVERSIZED = {
    # a 4,893-digit unit would not serialize
    "padic_precision_7000": (
        ["--precision", "7000", "--field", "padic:5", "lift", "--m", "2",
         "{ff(5,1):g^1}"], None, "BadInput"),
    # once a stall: LaurentSeries.constant padded 10^6 coefficients
    "laurent_precision_10^6": (
        ["--precision", "1000000", "--field", "laurent:3", "tame",
         "deg:2 {pi,2}"], None, "BadInput"),
    "oracleprec_5000": (["suite", "HILBERT_TABLE"], None, "BadInput"),
    # a 31-digit prime or prime power once meant trial division to 10^15
    "padic_prime_above_field_bound": (
        ["--field", "padic:1000000000000000000000000000057", "tame",
         "{2,3}"], None, "FieldTooLarge"),
    "laurent_q_above_field_bound": (
        ["--field", "laurent:1000000000000000000000000000057", "tame",
         "{2,3}"], None, "FieldTooLarge"),
    # one step past FIELD_BOUND = 2^20, the one residue-field bound
    "ff_kgroup_q_above_field_bound": (
        ["ff-kgroup", "--q", "1048577", "--n", "2"], None, "FieldTooLarge"),
    "divide_q_above_field_bound": (
        ["--field", "laurent:1048577", "divide", "--ell", "2",
         "{laurent(1048577,8):t^0*(3,5),laurent(1048577,8):t^0*(6,1)}"],
        None, "FieldTooLarge"),
    "divide_ell_3_q_above_field_bound": (
        ["--field", "laurent:1048577", "divide", "--ell", "3",
         "{laurent(1048577,8):t^0*(3,5),laurent(1048577,8):t^0*(6,1)}"],
        None, "FieldTooLarge"),
    "gersten_check_q_above_field_bound": (
        ["--field", "laurent:1048577", "gersten-check", "--n", "3", "--m",
         "2"], None, "FieldTooLarge"),
    "lift_entry_digits": (
        ["--field", "padic:5", "lift", "--m", "2", f"{{{_DIGITS},1}}"], None,
        "BadInput"),
    "certificate_ctx_digits": (
        ["verify-cert"], f"divcert v1\nctx padic(5,{_DIGITS})\nell 3\n"
        "degree 2\n", "PatternMismatch"),
    "certificate_ctx_precision": (
        ["verify-cert"], "divcert v1\nctx laurent(9,1000000)\nell 2\n"
        "degree 2\n", "BadInput"),
    "certificate_unit_digits": (
        ["verify-cert"], "divcert v1\nctx padic(5,8)\nell 3\ndegree 2\n"
        f"alpha 1 ; padic(5,8):{_DIGITS}*p^0 | padic(5,8):2*p^0\n",
        "PatternMismatch"),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_oversized_precision_or_integer_fails_fast(capsys, monkeypatch,
                                                   tmp_path, case):
    argv, cert, error = _OVERSIZED[case]
    monkeypatch.setenv("MILNOR_FORGE_BOUNDS", "oracleprec=5000")
    if cert is not None:
        path = tmp_path / "c.cert"
        path.write_text(cert)
        argv = argv + [str(path)]
    start = time.perf_counter()
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert f"error={error}" in out and "ok=false" in out


# --- certificates at the precision bound and at the FIELD_BOUND edges -------

def _edge_certificate(tmp_path, fmt, q, prec, sha):
    """Build a degree-2 certificate over F_q[[t]] at precision prec by a
    CLI `divide` within 120 s, check its pinned sha256, return its path."""
    cert = tmp_path / "edge.cert"
    unit = f"laurent({q},{prec}):t^0*"
    out = _cli_subprocess(
        fmt + ["--field", f"laurent:{q}", "--precision", str(prec),
               "--out", str(cert), "divide", "--ell", "3",
               f"{{{unit}(3,5,7,1,9),{unit}(6,1,0,2,11)}}"], timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == sha
    return cert


_RECORDS = ["--format", "records"]


# README promises seconds at MAX_UNIT_BITS: a certificate over F_16[[t]] at
# precision 819 is built and replayed; certificates grow as log q, so
# F_1024[[t]] at precision 372 and F_65536[[t]] at precision 240 are built
# too, each within 120 s.  The texts are pinned: their ell-th roots take
# powers by base-p digits and Frobenius, which in characteristic 2 replace
# every squaring, and must give the bytes square-and-multiply gave
@pytest.mark.parametrize("fmt, q, prec, sha, replay", [
    ([], 16, 819,
     "f390e8584db8470be58318c1cf628e0fe895d13f41d2d07d6e63a8dceb7b2587",
     True),
    (_RECORDS, 1024, 372,
     "f8656baab05253359c189e887c8a3d31f69383364de5029d70e25eeca7110112",
     False),
    (_RECORDS, 65536, 240,
     "744e993d1a1f3016d31e64b734e969ab4089eb152995e07a4ff48ac3bb0351b0",
     False),
], ids=["F_16", "F_1024", "F_65536"])
def test_certificates_at_the_precision_bound(tmp_path, fmt, q, prec, sha,
                                             replay):
    cert = _edge_certificate(tmp_path, fmt, q, prec, sha)
    if replay:
        out = _cli_subprocess(["verify-cert", str(cert)], timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr


def test_padic_certificate_at_the_precision_bound():
    out = _cli_subprocess(["--field", "padic:5", "--precision", "1365",
                           "divide", "--ell", "3", "{8,7,11}"], timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


# FIELD_BOUND = 2^20 is the one residue-field bound: over F_{2^20}[[t]] at
# precision 195 and F_1048573[[t]] at precision 204 (the MAX_UNIT_BITS
# edges), both without Zech tables, a pinned certificate is built and
# replayed and a degree-3 gersten-check runs, each within 120 s; one step
# past the bound is in _OVERSIZED
@pytest.mark.parametrize("q, prec, sha", [
    (1 << 20, 195,
     "22c413a768773359141c632c54341a02cdca1dee39e5ec9eebd5f8505f2d53e1"),
    (1048573, 204,
     "c88a32048765c69278d61f135509f7dbfe70116b3ac9cd8d57345c4d3b69ecb6"),
], ids=["F_2^20", "F_1048573"])
def test_residue_fields_up_to_the_field_bound(tmp_path, q, prec, sha):
    cert = _edge_certificate(tmp_path, _RECORDS, q, prec, sha)
    for argv in (["verify-cert", str(cert)],
                 ["--field", f"laurent:{q}", "--precision", str(prec),
                  "gersten-check", "--n", "3", "--m", "3", "--samples", "3"]):
        out = _cli_subprocess(_RECORDS + argv, timeout=120)
        assert out.returncode == 0, out.stdout + out.stderr


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
from milnorforge.cli import main
for argv in (["suite", "HILBERT_TABLE"],
             ["--field", "padic:5", "qf-oracle", "5", "2"]):
    if main(argv) != 0:
        raise SystemExit(f"failed: {argv}")
"""


def test_runs_without_numpy():
    out = _python(["-c", _WITHOUT_NUMPY], timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr


# --- malformed arguments end in BadInput records ----------------------------

_BAD_ARGUMENTS = [
    ["--field", "padic:x", "tame", "{2,3}"],
    ["--precision", "0", "--field", "padic:5", "tame", "{2,3}"],
    ["--precision", "-3", "--field", "laurent:3", "tame", "deg:2 {pi,2}"],
    ["--field", "padic:3", "s-member", "1*t^x"],
    # '²' passes str.isdigit but not int()
    ["--field", "padic:5", "lift", "--m", "2", "{²,1}"],
    # classes of a degree the operation does not accept
    ["--field", "padic:5", "tame", "deg:0 0"],
    ["--field", "ratfunc:3", "residues", "deg:0 0"],
    ["--field", "ratfunc:3", "section", "deg:1 {t}"],
    # integers are ASCII -?[0-9]+: int() alone takes `_`, `+`, spaces and
    # other scripts' digits
    ["--field", "padic:5", "tame", "{1_0,2}"],
    ["--field", "padic:+5", "tame", "{2,3}"],
    ["--field", "padic: 5", "tame", "{2,3}"],
    ["--field", "padic:5", "tame", "{\u0663,2}"],
    ["--field", "padic:5", "tame", "{x,2}"],
    ["--field", "laurent:3", "lift", "--m", "2", "{ff(3,1):g^1_0}"],
    ["--field", "laurent:3", "lift", "--m", "2", "{ff(3,1):g^+1}"],
    ["--field", "padic:5", "lift", "--m", "2", "{+2,1}"],
    ["--field", "padic:3", "s-member", "1*t^"],
    ["--field", "padic:3", "s-member", "1_0*t^2"],
    ["--field", "padic:5", "tame", "deg:+2 {2,3}"],
    ["--field", "padic:5", "tame", "+2*{2,3}"],
    ["--field", "padic:5", "base-change-check", "--pi", "5;+1"],
]


@pytest.mark.parametrize("argv", _BAD_ARGUMENTS)
def test_bad_argument_gives_fail_record(capsys, argv):
    rc, out = run(capsys, ["--format", "records"] + argv)
    assert rc == 1
    assert "error=BadInput" in out and "ok=false" in out


@pytest.mark.parametrize("value", ["1_0", "+8", " 8", "\u0668"])
def test_malformed_integer_option_is_a_usage_error(capsys, value):
    # argparse reads the options, so a malformed one exits 2 with usage
    with pytest.raises(SystemExit) as info:
        main(["--precision", value, "--field", "padic:5", "tame", "{2,3}"])
    assert info.value.code == 2
    assert "needs an integer" in capsys.readouterr().err


def test_element_digits_are_ascii(capsys):
    # \d in a pattern also matches other scripts' digits, which int() reads
    for entry in ("padic(5,8):\u0663*p^0", "padic(5,8):3*p^\u0660"):
        rc, out = run(capsys, ["--format", "records", "--field", "padic:5",
                               "tame", f"{{{entry},2}}"])
        assert rc == 1
        assert "error=PatternMismatch" in out and "ok=false" in out


_LOCAL_ELEMENT_REFUSALS = [
    ("padic:5", "laurent(5,8):t^0*(1,2)",
     "element 'laurent(5,8):t^0*(1,2)' does not live in "
     "LocalFieldCtx(Z_5, prec=8)"),
    ("padic:5", "padic(7,8):1*p^0",
     "element 'padic(7,8):1*p^0' does not live in LocalFieldCtx(Z_5, prec=8)"),
    ("laurent:5", "padic(5,8):1*p^0",
     "element 'padic(5,8):1*p^0' does not live in "
     "LocalFieldCtx(F_5[[t]], prec=8)"),
    ("laurent:5", "laurent(25,8):t^0*(1,2)",
     "element 'laurent(25,8):t^0*(1,2)' does not live in "
     "LocalFieldCtx(F_5[[t]], prec=8)"),
    ("padic:5", "padic(5,0):1*p^0",
     "element 'padic(5,0):1*p^0' has no digits"),
    ("laurent:5", "laurent(5,0):t^0*(1)",
     "element 'laurent(5,0):t^0*(1)' has no coefficients"),
    ("padic:5", "padic(5,8):10*p^0",
     "unit part of 'padic(5,8):10*p^0' is divisible by 5"),
    ("laurent:5", "laurent(5,8):t^0*(1,5)",
     "a coefficient of 'laurent(5,8):t^0*(1,5)' is 5 or more"),
    ("padic:5", "padic(5,8):x", "cannot parse local element 'padic(5,8):x'"),
]


@pytest.mark.parametrize("field, entry, reason", _LOCAL_ELEMENT_REFUSALS)
def test_local_element_refusal_names_its_reason(capsys, field, entry, reason):
    rc, out = run(capsys, ["--format", "records", "--field", field, "tame",
                           f"{{{entry},2}}"])
    assert rc == 1
    assert (f'record cmd=tame seed=0 op=tame error=PatternMismatch '
            f'counterexample="{reason}" ok=false\n') in out


_BAD_ARGUMENTS_SCRIPT = """
import contextlib, io, sys
from milnorforge.cli import main
for argv in {cases!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--format", "records"] + argv)
    if rc != 1 or "error=BadInput" not in buf.getvalue():
        raise SystemExit(f"{{argv}}: exit {{rc}}, {{buf.getvalue()!r}}")
"""


def test_bad_arguments_give_fail_records_under_python_O(run_python_O):
    out = run_python_O(_BAD_ARGUMENTS_SCRIPT.format(cases=_BAD_ARGUMENTS))
    assert out.returncode == 0, out.stdout + out.stderr


@pytest.mark.parametrize("big,small", [(10 ** 9, 2), (10 ** 9 + 1, 1)])
def test_section_cost_does_not_grow_with_the_coefficient(capsys, big, small):
    """Residues over F_3 only see the coefficient's parity, and a huge
    coefficient costs a few squarings, not one product per unit."""
    argv = ["--format", "records", "--field", "ratfunc:3", "section"]
    out = _cli_subprocess(argv + [f"{big}*{{t,t+1}}"], timeout=30)
    rc, expect = run(capsys, argv + [f"{small}*{{t,t+1}}"])
    assert rc == 0 and out.returncode == 0, out.stdout + out.stderr
    assert out.stdout == expect


# --- one-field mutations of a valid certificate ------------------------------

_ELEMENT = re.compile(r"(?:padic|laurent)\(\d+,\d+\):\S+")
_REPLACEMENTS = ("+1", "-1", "0", "-1!", "x", "*10")


def _replace(token: str, how: str) -> str:
    v = int(token)
    return {"+1": str(v + 1), "-1": str(v - 1), "0": "0", "-1!": "-1",
            "x": token + "x", "*10": str(10 * v + 7)}[how]


def _one_field_mutations(text: str, rng):
    """Every integer field outside the elements with every replacement,
    a seeded sample of the integer fields inside the elements, and every
    line dropped in turn (the header line is kept)."""
    lines = text.splitlines()
    for i, ln in enumerate(lines[1:], start=1):
        inside = [m.span() for m in _ELEMENT.finditer(ln)]
        for m in re.finditer(r"\d+", ln):
            in_element = any(a <= m.start() < b for a, b in inside)
            if in_element and rng.random() > 0.05:
                continue
            hows = [rng.choice(_REPLACEMENTS)] if in_element else _REPLACEMENTS
            for how in hows:
                new = _replace(m.group(), how)
                if new != m.group():
                    yield lines[:i] + [ln[:m.start()] + new + ln[m.end():]] \
                        + lines[i + 1:]
        yield lines[:i] + lines[i + 1:]


@pytest.mark.parametrize("field,cls", [
    ("padic:5", "{8,7}"),
    ("padic:5", "{2,3,7}"),
    ("laurent:9", "{laurent(9,8):t^0*(3,1),2}"),
    ("laurent:9", "{laurent(9,8):t^0*(3,1),2,laurent(9,8):t^0*(5,0,2)}"),
])
def test_mutated_certificate_fails_with_reason_or_verifies(
        capsys, tmp_path, field, cls):
    ell = "3" if field.startswith("padic") else "2"
    path = tmp_path / "c.cert"
    rc, _ = run(capsys, ["--field", field, "--out", str(path),
                         "divide", "--ell", ell, cls])
    assert rc == 0
    text = path.read_text()
    rng = random.Random(field + cls)
    count = failed = 0
    for lines in _one_field_mutations(text, rng):
        path.write_text("\n".join(lines) + "\n")
        rc, out = run(capsys, ["--format", "records", "verify-cert",
                               str(path)])
        count += 1
        if rc == 0:
            assert "ok=true" in out
            continue
        failed += 1
        (record,) = [ln for ln in out.splitlines()
                     if ln.startswith("record ")]
        assert "ok=false" in record
        assert "error=" in record or "counterexample=" in record
    assert count > 100 and failed > count // 2


# --- demos -------------------------------------------------------------------

_DEMOS = glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                             "demos", "*.py"))


@pytest.mark.parametrize("demo", sorted(_DEMOS), ids=os.path.basename)
def test_demo_runs(demo):
    # each demo runs the public API end to end and must exit 0
    out = _python([demo], timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
