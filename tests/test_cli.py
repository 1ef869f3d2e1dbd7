"""Command-line behavior: output shape, determinism, and exit codes.

Exit-code contract: 0 success, 1 verification mismatch, 2 usage or invalid
input, 3 precision budget exceeded, 4 internal error or output that cannot
be written.
"""
from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import zetarat
import zetarat.cli as cli_module
import zetarat.numerics as numerics
import zetarat.rows as rows_module
import zetarat.solver as solver_module
from zetarat.cli import main
from zetarat.polynomials import binomial_poly, shifted_legendre

# ----------------------------------------------------------------- approx


def test_approx_json_has_exactly_the_contract_keys_in_order(capsys):
    assert main(["approx", "--s", "3", "--n", "5", "--digits", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["s", "n", "alpha", "beta", "theta_bound", "decimal"]
    assert payload["s"] == 3 and payload["n"] == 5
    assert payload["alpha"] == "46937/12"
    assert payload["beta"] == "-1389489221/216000"
    assert payload["decimal"] == "1.202057045341"


def test_approx_theta_bound_is_a_plain_rational_string(capsys):
    main(["approx", "--s", "4", "--n", "3"])
    payload = json.loads(capsys.readouterr().out)
    num, den = payload["theta_bound"].split("/")
    assert int(num) > 0 and int(den) > 0


def test_approx_output_is_byte_deterministic(capsys):
    main(["approx", "--s", "5", "--n", "4", "--format", "csv"])
    first = capsys.readouterr().out
    main(["approx", "--s", "5", "--n", "4", "--format", "csv"])
    assert capsys.readouterr().out == first


def test_approx_csv_and_text_formats(capsys):
    main(["approx", "--s", "3", "--n", "2", "--format", "csv"])
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert header == "s,n,alpha,beta,theta_bound,decimal"
    assert row.startswith("3,2,")
    assert "\r" not in out
    main(["approx", "--s", "3", "--n", "2", "--format", "text"])
    assert "alpha = " in capsys.readouterr().out


def test_approx_accepts_rational_t_coefficients(capsys):
    assert main(["approx", "--s", "3", "--n", "2", "--t", "1,-1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert Fraction(payload["alpha"]) != 0


def test_output_ends_with_single_newline(capsys):
    main(["approx", "--s", "3", "--n", "1"])
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")


# ----------------------------------------------------------------- verify


def test_verify_accepts_the_winning_variant(capsys):
    assert main(["verify", "--s", "6", "--trials", "25", "--seed", "42"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_equal"] is True
    assert payload["mismatching_trials"] == 0
    assert payload["variant"] == "no-h"
    assert payload["trials"] == 25


def test_verify_rejects_the_losing_variant(capsys):
    code = main(
        ["verify", "--s", "5", "--trials", "30", "--seed", "7", "--variant", "with-h"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_equal"] is False
    assert payload["mismatching_trials"] == 9
    assert payload["first_mismatches"][0]["order"] == 5


def test_verify_is_deterministic_for_a_seed(capsys):
    main(["verify", "--s", "5", "--trials", "15", "--seed", "3"])
    first = capsys.readouterr().out
    main(["verify", "--s", "5", "--trials", "15", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_verify_text_format(capsys):
    assert main(["verify", "--trials", "5", "--format", "text"]) == 0
    assert "all_equal: True" in capsys.readouterr().out


def test_verify_that_checks_nothing_exits_two(capsys):
    for trials in ("0", "-3"):
        assert main(["verify", "--trials", trials]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need --trials >= 1\n"


def test_verify_below_order_three_names_the_flag(capsys):
    assert main(["verify", "--s", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: need --s >= 3\n"


#: perfbench/workloads.py, whose request mix assumes cmd_verify's draw order.
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    """The benchmark's workloads module, loaded without writing bytecode
    beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _capture_checks(monkeypatch):
    """Record the (L, [a, b, c]) of every trial cmd_verify checks."""
    seen = []
    check = cli_module.validate_int_rows

    def recorded(L, abc, s_max, variant):
        seen.append((L, [list(u) for u in abc]))
        return check(L, abc, s_max, variant)

    monkeypatch.setattr(cli_module, "validate_int_rows", recorded)
    return seen


def test_verify_draws_the_degrees_the_benchmark_mirrors(monkeypatch, capsys):
    """The benchmark picks verify seeds by the trial degrees that
    workloads._verify_degrees predicts; the check receives, over L = 1,
    three int lists of exactly those degrees plus one entries in -3..3."""
    workloads = _workloads(monkeypatch)
    seen = _capture_checks(monkeypatch)
    trials = 25
    for seed in (0, 1, 5, 42, 12345, 2**31 - 1):
        seen.clear()
        assert main(["verify", "--s", "5", "--trials", str(trials), "--seed", str(seed)]) == 0
        capsys.readouterr()
        degrees = []
        for L, abc in seen:
            assert L == 1
            assert len(abc) == 3 and len({len(u) for u in abc}) == 1
            assert all(type(v) is int and -3 <= v <= 3 for u in abc for v in u)
            degrees.append(len(abc[0]) - 1)
        assert degrees == workloads._verify_degrees(seed, trials), seed


def test_a_failing_with_h_run_reports_the_trials_and_degrees_it_did(monkeypatch, capsys):
    """The losing variant at seed 3: the same mismatching trials, with the
    same degrees, in json and text, as before the check took ints; each
    reported degree is that of the trial's drawn lists."""
    seen = _capture_checks(monkeypatch)
    argv = ["verify", "--variant", "with-h", "--s", "5", "--trials", "40", "--seed", "3"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    trials = [1, 2, 5, 7, 9, 10, 12, 13, 15, 17]
    assert payload["mismatching_trials"] == 16
    assert [(m["trial"], m["degree"]) for m in payload["first_mismatches"]] == [
        (t, 3) for t in trials
    ]
    assert all(len(seen[m["trial"]][1][0]) - 1 == m["degree"] for m in payload["first_mismatches"])
    assert main([*argv, "--format", "text"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "all_equal: False (16 mismatching trials)"
    assert [line.split(":")[0] for line in lines[2:]] == [f"  trial {t} (degree 3)" for t in trials]


def test_a_failing_verify_lays_out_no_trial_past_the_full_list(monkeypatch, capsys):
    """verify keeps the details of the first 10 mismatches.  Each
    mismatching trial up to the one that fills that list lays out its two
    cores; every later trial is counted by core equality alone and lays
    out nothing."""
    laid_out = []
    layout = rows_module.layout

    def counted(core):
        laid_out.append(core)
        return layout(core)

    monkeypatch.setattr(rows_module, "layout", counted)
    assert main(["verify", "--variant", "with-h", "--s", "9", "--trials", "200"]) == 1
    payload = json.loads(capsys.readouterr().out)
    kept = {m["trial"] for m in payload["first_mismatches"]}
    assert len(payload["first_mismatches"]) == 10
    assert payload["mismatching_trials"] > len(kept)
    assert len(laid_out) == 2 * len(kept)


def test_an_agreeing_verify_builds_no_fraction_no_polyspec_and_no_integer_form(monkeypatch, capsys):
    """Drawn ints go straight to the integer check: with Fraction,
    PolySpec and every binding of numerics.integer_form made to raise, a
    run whose trials all agree exits 0 with the usual bytes."""
    import zetarat.numerics as numerics_module
    import zetarat.series as series_module
    from zetarat.polynomials import PolySpec

    def refuse(*args, **kwargs):
        raise AssertionError("an agreeing verify run took the rational route")

    argv = ["verify", "--s", "9", "--trials", "30", "--seed", "5"]
    expected = (
        '{\n  "s_max": 9,\n  "trials": 30,\n  "seed": 5,\n  "variant": "no-h",\n'
        '  "all_equal": true,\n  "mismatching_trials": 0,\n  "first_mismatches": []\n}\n'
    )
    with monkeypatch.context() as m:
        for module in (numerics_module, rows_module, series_module):
            m.setattr(module, "integer_form", refuse)
        m.setattr(PolySpec, "__init__", refuse)
        m.setattr(Fraction, "__new__", refuse)
        assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


# ----------------------------------------------------------------- lemma2


def test_lemma2_counts_and_passes(capsys):
    assert main(["lemma2", "--max", "5", "--s-max", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked"] == 3 * 5 * 6 * 4
    assert payload["all_pass"] is True
    assert payload["failures"] == []


def test_lemma2_text_format(capsys):
    assert main(["lemma2", "--max", "3", "--s-max", "2", "--format", "text"]) == 0
    assert "all pass" in capsys.readouterr().out


def test_a_failing_lemma2_reports_its_first_ten_failures_in_sweep_order(monkeypatch, capsys):
    """With the residual nonzero on 12 of the 72 instances of --max 3
    --s-max 2, every instance is still counted, and json and text list the
    first 10 failures in sweep order: r outermost, then k, s and power."""

    def fails(r, k, s, power):
        return power == 2 and (r + k) % 2 == 0

    monkeypatch.setattr(cli_module, "shift_reduction_residual", lambda *inst: int(fails(*inst)))
    first = [
        {"r": r, "k": k, "s": s, "power": power}
        for r in range(1, 4)
        for k in range(4)
        for s in range(1, 3)
        for power in (1, 2, 3)
        if fails(r, k, s, power)
    ][:10]
    argv = ["lemma2", "--max", "3", "--s-max", "2"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["checked"], payload["all_pass"], payload["failures"]) == (72, False, first)
    assert main([*argv, "--format", "text"]) == 1
    assert capsys.readouterr().out == (
        "checked 72 identity instances (r 1..3, k 0..3, s 1..2, powers 1-3): "
        f"10+ failures {first}\n"
    )


def test_lemma2_that_checks_nothing_exits_two(capsys):
    for argv in (["--max", "-1"], ["--max", "0"], ["--s-max", "0"]):
        assert main(["lemma2", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: need --max >= 1 and --s-max >= 1\n"


# ------------------------------------------------------------------ table


def test_table_theta_column_is_strictly_decreasing(capsys):
    assert main(
        ["table", "--s", "3", "--n-from", "2", "--n-to", "12", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    thetas = [Fraction(row["theta_bound"]) for row in payload["rows"]]
    assert len(thetas) == 11
    assert all(a > b for a, b in zip(thetas, thetas[1:]))


def test_table_json_bytes_are_pinned(capsys):
    """The golden transcript records table's CSV and text bytes, not its
    JSON; this literal does."""
    assert main(["table", "--s", "3", "--n-from", "2", "--n-to", "4", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "s": 3,\n  "rows": [\n'
        '    {\n      "n": 2,\n'
        '      "theta_bound": "52358213760851337143242115681/61823885809478278345763904000000",\n'
        '      "theta_bound_sci": "8.47e-04",\n'
        '      "error_upper_sci": "8.43e-04",\n'
        '      "decimal": "1.2012143035"\n    },\n'
        '    {\n      "n": 3,\n'
        '      "theta_bound": "15522658048134109100441138593986041327/'
        '376394829682354658363167213513511232000000",\n'
        '      "theta_bound_sci": "4.13e-05",\n'
        '      "error_upper_sci": "4.11e-05",\n'
        '      "decimal": "1.2020979688"\n    },\n'
        '    {\n      "n": 4,\n'
        '      "theta_bound": "391914892286138555446159113769341205159261/'
        '169013323161927076954129700218398975527424000000",\n'
        '      "theta_bound_sci": "2.32e-06",\n'
        '      "error_upper_sci": "2.32e-06",\n'
        '      "decimal": "1.2020545925"\n    }\n'
        '  ]\n}\n'
    )


def test_table_csv_layout(capsys):
    assert main(["table", "--s", "4", "--n-from", "2", "--n-to", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "n,theta_bound,error_upper,decimal"
    assert len(lines) == 4
    assert "\r" not in out


def test_table_certified_error_never_exceeds_theta(capsys):
    """README's claim: at s = 3 and the default --digits 10, the printed
    error_upper is at most the printed theta for every n up to 71.  Both
    columns are certified upper bounds; n = 72 is the first row whose
    error_upper reads above theta, as the zeta references are not deep
    enough there (ROADMAP item 18)."""
    assert main(["table", "--s", "3", "--n-from", "2", "--n-to", "71", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(2, 72))
    for row in rows:
        assert Fraction(row["error_upper_sci"]) <= Fraction(row["theta_bound_sci"]), row["n"]


def test_table_text_format(capsys):
    assert main(["table", "--s", "3", "--n-to", "3", "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("n ")


def test_table_rejects_bad_degree_range(capsys):
    assert main(["table", "--s", "3", "--n-from", "5", "--n-to", "2"]) == 2


def test_approx_and_table_build_through_build_system(capsys, monkeypatch):
    """approx builds its system through the public solver.build_system once
    per request, and table once per degree, on P = shifted_legendre(n) and
    Q = binomial_poly(n)."""
    build, built = solver_module.build_system, []

    def recording_build(P, Q, T, s):
        built.append((P, Q, s))
        return build(P, Q, T, s)

    monkeypatch.setattr(solver_module, "build_system", recording_build)
    assert main(["approx", "--s", "5", "--n", "4"]) == 0
    assert main(["table", "--s", "4", "--n-from", "2", "--n-to", "4"]) == 0
    capsys.readouterr()
    assert built == [
        (shifted_legendre(n), binomial_poly(n), s) for n, s in ((4, 5), (2, 4), (3, 4), (4, 4))
    ]


def test_table_row_with_a_long_certified_error_exits_zero(capsys):
    """This row's certified error once had a denominator of more than 4300
    decimal digits, CPython's default int-to-str limit, and exited 2."""
    assert main(["table", "--s", "9", "--n-from", "118", "--n-to", "118"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n,theta_bound,error_upper,decimal", "118,6.18e-124,6.18e-124,1.0020083928"]


# ----------------------------------------------------------------- digits


def test_digits_command_shows_approx_against_reference(capsys):
    assert main(["digits", "--s", "3", "--n", "6", "--digits", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["s", "n", "digits", "approx", "reference", "error_upper"]
    assert payload["reference"] == "1.2020569032"
    assert payload["approx"].startswith("1.20205")
    mant, exp = payload["error_upper"].split("e")
    assert float(mant) * 10 ** int(exp) < 1e-8


def test_digits_past_the_int_str_limit_exits_zero(capsys):
    """4300 decimals are a 4301-digit integer in the renderer, one past
    CPython's default int-to-str limit; the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    assert main(["digits", "--s", "3", "--n", "2", "--digits", "4300"]) == 0
    assert sys.get_int_max_str_digits() == limit
    payload = json.loads(capsys.readouterr().out)
    with mpmath.workdps(4330):
        assert payload["reference"] == mpmath.nstr(mpmath.zeta(3), 4301)
    assert payload["approx"].startswith("1.2012143035404155112120957495974911897")
    assert len(payload["approx"]) == 4302
    assert payload["error_upper"] == "8.43e-04"


def test_digits_with_a_large_alpha_exits_zero(capsys):
    """alpha ~ 6e8 at n = 9: rendering 5000 digits once asked a refinement
    at 10016 digits, past the budget, and exited 3."""
    assert main(["approx", "--s", "5", "--n", "9"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert main(["digits", "--s", "5", "--n", "9", "--digits", "5000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    alpha, beta = Fraction(fit["alpha"]), Fraction(fit["beta"])
    with mpmath.workdps(5040):
        value = alpha.numerator * mpmath.zeta(2) / alpha.denominator
        value += mpmath.mpf(beta.numerator) / beta.denominator
        assert payload["approx"] == mpmath.nstr(value, 5001, strip_zeros=False)
        assert payload["reference"] == mpmath.nstr(
            mpmath.zeta(5), 5001, strip_zeros=False
        )


# -------------------------------------------------------------- exit codes


def test_singular_system_exits_two_with_message(capsys):
    assert main(["approx", "--s", "4", "--n", "2", "--t", "0,1"]) == 2
    assert "singular system" in capsys.readouterr().err


def test_a_singular_request_computes_no_row_bound(monkeypatch, capsys):
    """The system refuses a zero diagonal before any row bound runs: with
    the series walk that every row bound takes made to raise, a singular
    approx still exits 2 with the singular-system message, naming the
    lowest zero order.  At T = 2 - x, n = 1 only order 3 is singular: its
    lead a0 b0 c0 = 2 meets the zeta(3) extra block, -2."""

    def refuse(*args, **kwargs):
        raise AssertionError("a row bound was computed")

    monkeypatch.setattr(solver_module, "special_series_numerators", refuse)
    for argv, order in (
        (["approx", "--s", "5", "--n", "3", "--t=0,1"], 4),
        (["approx", "--s", "4", "--n", "1", "--t=2,-1"], 3),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: singular system: zero leading coefficient in the order-{order} row\n"
        )


def test_invalid_rational_list_exits_two(capsys):
    assert main(["approx", "--s", "3", "--n", "2", "--t", "1,oops"]) == 2
    assert "invalid rational list" in capsys.readouterr().err


def test_oversized_t_exits_two(capsys):
    """T above degree n names its degree, trailing zeros not counted."""
    for t in ("1,2,3", "1,2,3,0"):
        assert main(["approx", "--s", "3", "--n", "1", "--t", t]) == 2
        assert capsys.readouterr() == ("", "error: degree 2 exceeds target degree 1\n"), t


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "--s", "3", "--n", "1"],
        ["digits", "--s", "5", "--n", "1"],
        ["table", "--s", "4", "--n-from", "1", "--n-to", "3"],
    ],
    ids=" ".join,
)
def test_trailing_zeros_of_t_do_not_count_toward_its_degree(argv, capsys):
    """T = 1 given as 1,0,0 has degree 0, not 2: at n = 1 it prints the
    bytes of --t 1."""
    runs = []
    for t in ("1", "1,0,0"):
        runs.append((main([*argv, "--t", t]), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_precision_budget_exits_three(capsys):
    assert main(["approx", "--s", "3", "--n", "2", "--digits", "20000"]) == 3
    assert "budget" in capsys.readouterr().err


def test_digits_over_budget_fails_before_rendering(capsys):
    """digits 9952 at n = 8 renders within budget, but its error bound needs
    9952 + 40 + 9 reference digits: the request fails before rendering."""
    start = time.perf_counter()
    code = main(["digits", "--s", "3", "--n", "8", "--digits", "9952"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: requested 10001 digits exceeds budget of 10000\n"
    assert elapsed < 1.0


_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def _renders_from_their_own_start(monkeypatch):
    """Make cmd_digits's two renders ignore the references error_upper hands
    them and start at their own depth, as they did before."""
    monkeypatch.setattr(
        cli_module,
        "render_decimal",
        lambda a, b, d, p=2, first=None: numerics.render_decimal(a, b, d, p),
    )


@pytest.mark.parametrize(
    "argv",
    [c["argv"] for c in _GOLDEN if c["argv"][:1] == ["digits"]]
    + [["digits", "--s", "3", "--n", "8", "--digits", "9952"]],
    ids=" ".join,
)
def test_digits_renders_from_the_error_references_as_from_its_own_start(
    argv, capsys, monkeypatch
):
    """A digits request takes zeta(2) and zeta(s) once, at the error bound's
    depth, and both renders start from them: the bytes and the exit code
    are those of renders that start at their own depth."""
    runs = []
    for patch in (None, _renders_from_their_own_start):
        if patch:
            patch(monkeypatch)
        runs.append((main(list(argv)), capsys.readouterr()))
    assert runs[0] == runs[1]


def _no_row_bound(monkeypatch):
    """Make every step of a row bound raise: the settle, the series walk it
    takes and the theta fold."""

    def refuse(*args, **kwargs):
        raise AssertionError("a row bound was reached")

    for name in ("_settled", "_theta_total", "special_series_numerators"):
        monkeypatch.setattr(solver_module, name, refuse)


def test_digits_reaches_no_row_bound(capsys, monkeypatch):
    """digits prints no theta, so it settles no row bound and folds none:
    with every step of a row bound made to raise, each digits case of the
    golden file gives its recorded exit code and bytes.  approx still
    certifies, so each of its golden requests that exits 0, --help aside,
    exits 4 under the same patch, with nothing on stdout."""
    _no_row_bound(monkeypatch)
    for case in _GOLDEN:
        command = case["argv"][:1]
        if command == ["digits"]:
            got = main(list(case["argv"]))
            assert (got, *capsys.readouterr()) == (
                case["exit"], case["stdout"], case["stderr"]
            ), case["argv"]
        elif command == ["approx"] and case["exit"] == 0 and "--help" not in case["argv"]:
            assert main(list(case["argv"])) == 4, case["argv"]
            assert capsys.readouterr().out == "", case["argv"]


def test_digits_builds_through_build_system_and_checks_both_routes(capsys, monkeypatch):
    """The solve that digits takes alone still builds its system through
    solver.build_system, once per request, and still runs both routes:
    routes that disagree exit 4."""
    build, built = solver_module.build_system, []

    def recording_build(P, Q, T, s):
        built.append((P, Q, s))
        return build(P, Q, T, s)

    monkeypatch.setattr(solver_module, "build_system", recording_build)
    assert main(["digits", "--s", "5", "--n", "4"]) == 0
    capsys.readouterr()
    assert built == [(shifted_legendre(4), binomial_poly(4), 5)]

    cramer = solver_module._solve_cramer

    def skewed(reduced):
        alpha, beta, weights = cramer(reduced)
        return alpha, beta + 1, weights

    monkeypatch.setattr(solver_module, "_solve_cramer", skewed)
    assert main(["digits", "--s", "5", "--n", "4"]) == 4
    assert capsys.readouterr() == ("", "internal error: solver routes disagree\n")


def test_an_unsettled_digits_render_exits_three_from_either_start(capsys, monkeypatch):
    """With zeta stood in by [0.0004, 0.0006] at every depth, the approx
    render never settles at 3 decimals: digits exits 3 with the same
    message from error_upper's references as from the render's own start."""
    monkeypatch.setattr(numerics, "_zeta_enclosure", lambda p, d: (4, 6, 10**4))
    argv = ["digits", "--s", "3", "--n", "2", "--t=1", "--digits", "3"]
    runs = []
    for patch in (None, _renders_from_their_own_start):
        if patch:
            patch(monkeypatch)
        runs.append((main(argv), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 3
    assert runs[0][1].err == "error: rendering needs more than 10000 digits\n"


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["digits", "--s", "5", "--n", "8", "--digits", "12"], [(2, 66), (5, 66)]),
        (
            ["table", "--s", "3", "--n-from", "2", "--n-to", "4"],
            [(p, w) for w in (52, 53, 54) for p in (2, 3)],
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v[0], str) else None,
)
def test_a_settled_certificate_takes_each_zeta_value_once(argv, taken, capsys, monkeypatch):
    """error_upper takes zeta(2) and zeta(s) once per certificate, and the
    renders that settle on their first try take no other enclosure."""
    calls = []
    enclosure = numerics._zeta_enclosure

    def counting(p, digits):
        calls.append((p, digits))
        return enclosure(p, digits)

    monkeypatch.setattr(numerics, "_zeta_enclosure", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == taken


def test_the_largest_accepted_digits_request_keeps_its_bytes(capsys):
    """Every byte of the 9951-digit request, past the 60 digits the golden
    file reaches: both renders start from error_upper's references."""
    assert main(["digits", "--s", "3", "--n", "8", "--digits", "9951"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 20011
    assert hashlib.sha256(out).hexdigest() == (
        "172a7ff0294589e595cda7cd04ff46166d9f0f19df83110b9392c685522f74b1"
    )


#: (argv, exit, stderr) of requests whose --digits fails before any row
#: work.  At n = 200 the rows and bounds alone take about 0.9 s (Python
#: 3.11.7, x86-64), so a check made after them would miss the time limit.
DIGITS_FAIL_FAST = (
    (
        ["approx", "--s", "9", "--n", "200", "--digits", "20000"],
        3,
        "error: requested 20008 digits exceeds budget of 10000\n",
    ),
    (
        ["digits", "--s", "9", "--n", "200", "--digits", "9993"],
        3,
        "error: requested 10001 digits exceeds budget of 10000\n",
    ),
    (["approx", "--s", "9", "--n", "200", "--digits", "0"], 2, "error: digits must be >= 1\n"),
    (["digits", "--s", "9", "--n", "200", "--digits", "-3"], 2, "error: digits must be >= 1\n"),
    (
        ["table", "--s", "9", "--n-from", "200", "--n-to", "200", "--digits", "0"],
        2,
        "error: digits must be >= 1\n",
    ),
    (
        ["table", "--s", "9", "--n-from", "200", "--n-to", "200", "--digits", "20000"],
        3,
        "error: requested 20008 digits exceeds budget of 10000\n",
    ),
)


def test_invalid_digits_fail_before_the_rows(capsys):
    for argv, code, err in DIGITS_FAIL_FAST:
        start = time.perf_counter()
        got = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, "", err), argv
        assert elapsed < 0.3, argv


def test_degree_below_one_fails_before_the_rows(capsys, monkeypatch):
    """n < 1 is rejected by the command, not by a polynomial constructor
    or by the analytic bound after every row is built."""

    def no_rows(*args):
        raise AssertionError("rows built for a rejected degree")

    monkeypatch.setattr(solver_module, "shifted_legendre", no_rows)
    monkeypatch.setattr(solver_module, "row_core", no_rows)
    for command in ("approx", "digits"):
        for n in ("0", "-1"):
            argv = [command, "--s", "3", "--n", n]
            got = main(argv)
            captured = capsys.readouterr()
            assert (got, captured.out, captured.err) == (
                2,
                "",
                "error: n must be >= 1\n",
            ), argv


def test_internal_invariant_failure_exits_four(capsys, monkeypatch):
    """Solver routes that disagree are a bug, not invalid input."""
    cramer = solver_module._solve_cramer

    def skewed(reduced):
        alpha, beta, weights = cramer(reduced)
        return alpha + 1, beta, weights

    monkeypatch.setattr(solver_module, "_solve_cramer", skewed)
    assert main(["approx", "--s", "3", "--n", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: solver routes disagree\n"


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    """An exception no command raises on purpose is a bug: exit 4 with the
    traceback and one summary line, never 1 (a mismatch) or 2 (bad input)."""

    def broken(exc):
        def kernel(*args):
            raise exc

        return kernel

    cases = (
        (rows_module, "oracle_core", KeyError("boom"), ["verify", "--s", "5", "--trials", "2"],
         "internal error: KeyError: 'boom'"),
        (solver_module, "row_core", ZeroDivisionError("division by zero"),
         ["approx", "--s", "3", "--n", "2"], "internal error: ZeroDivisionError: division by zero"),
    )
    for module, name, exc, argv, line in cases:
        with monkeypatch.context() as m:
            m.setattr(module, name, broken(exc))
            got = main(argv)
        captured = capsys.readouterr()
        assert (got, captured.out) == (4, ""), argv
        assert captured.err.startswith("Traceback (most recent call last):\n"), argv
        assert captured.err.endswith(f"\n{line}\n"), argv


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_pipe_exits_four_with_one_line(capsys, monkeypatch):
    """Output that cannot be written is neither a mismatch (1) nor a bug
    with a traceback: exit 4, one line on stderr."""
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["verify", "--s", "5", "--trials", "2"]) == 4
    assert capsys.readouterr().err == "error: cannot write the output: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", (["approx", "--s", "3", "--n", "4"], ["--help"]))
def test_a_full_disk_exits_four_with_one_line_and_nothing_at_shutdown(argv):
    """Cold, with stdout on /dev/full: exit 4 and one line on stderr, no
    traceback and no "Exception ignored" from the flush at exit, for a
    command's output and for argparse's help alike."""
    env = dict(os.environ, PYTHONPATH=str(Path(zetarat.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so the flush at exit has data to fail on
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "zetarat", *argv],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            check=False,
        )
    assert run.returncode == 4
    assert run.stderr == b"error: cannot write the output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout_full, code",
    (
        (["approx", "--s", "2", "--n", "4"], False, 2),  # invalid input
        (["approx", "--s", "3"], False, 2),  # argparse's usage error
        (["approx", "--s", "3", "--n", "4"], True, 4),  # output that cannot be written
    ),
)
def test_a_full_stderr_keeps_the_exit_code(argv, stdout_full, code):
    """Cold, with stderr on /dev/full: the message is lost, the exit code
    is not, and nothing is printed at shutdown (exit 120 would say a flush
    at exit failed)."""
    env = dict(os.environ, PYTHONPATH=str(Path(zetarat.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so the flush at exit has data to fail on
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "zetarat", *argv],
            env=env,
            stdout=full if stdout_full else subprocess.PIPE,
            stderr=full,
            check=False,
        )
    assert run.returncode == code
    assert stdout_full or run.stdout == b""


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["approx", "--s", "3"]) == 2  # missing --n
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "approx" in capsys.readouterr().out


def test_one_parser_per_process_prints_what_a_fresh_parser_prints(capsys, monkeypatch):
    """main reuses one parser; --help still wraps to each call's COLUMNS."""
    cases = (
        (["approx", "--s", "3"], "80"),  # usage error: missing --n
        (["approx", "--help"], "80"),
        (["approx", "--help"], "120"),
        (["approx", "--s", "3", "--n", "4", "--t", "1,-1/2"], "80"),
    )

    def run(argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    cli_module._parser.cache_clear()
    reused = [run(argv, columns) for argv, columns in cases]
    assert cli_module._parser.cache_info().misses == 1
    monkeypatch.setattr(cli_module, "_parser", cli_module._parser.__wrapped__)
    fresh = [run(argv, columns) for argv, columns in cases]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert reused[1][1] != reused[2][1]  # the usage line wraps at 80, not at 120


# ------------------------------------------------------------ determinism


def test_output_does_not_depend_on_the_hash_seed():
    """Two interpreters with different string-hash seeds print the same bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(zetarat.__file__).parents[1]))
    commands = (
        ["verify", "--s", "6", "--trials", "5", "--seed", "4"],
        ["approx", "--s", "5", "--n", "6", "--t", "1,-1/2", "--format", "text"],
    )
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "zetarat", *argv],
                env={**env, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                check=False,
            )
            for hash_seed in ("0", "4242")
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout
