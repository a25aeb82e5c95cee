import hashlib
import json
import os
import subprocess
import sys

import pytest

from mfal import checks
from mfal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_j_text(capsys):
    code, out, _ = run(capsys, "expand", "j", "--order", "3")
    assert code == 0
    assert "q^-1 + 744 + 196884 q + 21493760 q^2" in out


def test_expand_delta(capsys):
    code, out, _ = run(capsys, "expand", "Delta", "--order", "3")
    assert code == 0
    assert "q - 24 q^2" in out


def test_expand_json_round_trip(capsys):
    code, out, _ = run(capsys, "expand", "E4", "--order", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["denom"] == 1
    assert ["1/1", "240/1"] in payload["terms"]
    from mfal.qseries import QSeries

    series = QSeries.from_json(payload)
    assert series.coefficient(1) == 240


def test_expand_names_f_k_by_its_weight(capsys):
    code, out, _ = run(capsys, "expand", "F_k:+4", "--order", "6", "--format", "json")
    assert code == 0
    assert json.loads(out)["name"] == "F_k:4"


def test_expand_unknown_form_exits_2(capsys):
    code, _, err = run(capsys, "expand", "nosuch")
    assert code == 2
    assert "unknown form" in err


@pytest.mark.parametrize("argv, message", [
    (("expand", "F_k:3", "--order", "8"), "error: F_k:3: weakly holomorphic forms of odd"),
    (("expand", "F_k:x"), "unknown form 'F_k:x'; known: E2, "),
    (("expand", "F_k:"), "unknown form 'F_k:'; known: E2, "),
    (("eval", "F_k:5", "--tau", "1i"), "error: F_k:5: weakly holomorphic forms of odd"),
])
def test_bad_f_k_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_alia_json_schema(capsys):
    code, out, _ = run(capsys, "alia", "A1", "principal", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["h1", "a_-1", "a_1"]
    ef = [r for r in payload["brackets"] if r["x"] == "a_1" and r["y"] == "a_-1"]
    assert len(ef) == 1
    assert ef[0]["coeff"] == {"eps": 1, "w4": 1, "w6": 1}
    assert ef[0]["target"] == "h1"


def test_alia_text(capsys):
    code, out, _ = run(capsys, "alia", "A1", "principal")
    assert code == 0
    assert "j(j-1728)" in out


def test_alia_bad_orbit_exits_2(capsys):
    code, _, err = run(capsys, "alia", "A1", "subregular")
    assert code == 2


def test_hilbert_json(capsys):
    code, out, _ = run(capsys, "hilbert", "2", "Gamma1", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    weights = dict(map(tuple, payload["weights"]))
    assert weights[-2] == 1 and weights[0] == 1 and weights[12] == 4


def test_hilbert_bad_group(capsys):
    code, _, err = run(capsys, "hilbert", "2", "Gamma7", "12")
    assert code == 2


def test_eval_s_check(capsys):
    code, out, _ = run(capsys, "eval", "E4", "--tau", "0.3+1.1i", "--check", "S",
                       "--order", "48")
    assert code == 0
    assert "residual" not in out or "e-" in out


def test_eval_e2_anomaly(capsys):
    code, out, _ = run(capsys, "eval", "E2", "--tau", "0.2+1.3i", "--check", "S",
                       "--order", "48")
    assert code == 0


def test_eval_t_check(capsys):
    code, out, _ = run(capsys, "eval", "lambda", "--tau", "0.1+1.2i", "--check", "T",
                       "--order", "48")
    assert code == 0


def test_eval_rejects_lower_half_plane(capsys):
    code, _, err = run(capsys, "eval", "E4", "--tau", "0.3-1.1i")
    assert code == 2


@pytest.mark.parametrize("tau, check", [("200i", "none"), ("200i", "S"), ("200i", "T"),
                                        ("0.001i", "S")])
def test_eval_overflow_exits_2_with_one_line(capsys, tau, check):
    # j(200i) overflows a float, and at 0.001i so does j(-1/tau) of the S law
    code, out, err = run(capsys, "eval", "j", "--tau", tau, "--check", check, "--order", "8")
    assert code == 2
    assert out == "" and err.count("\n") == 1 and "overflows" in err


@pytest.mark.parametrize("tau", ["nan+1i", "1+nani", "1e400i"])
def test_eval_refuses_a_tau_that_is_not_finite(capsys, tau):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "E4", "--tau", tau])
    assert exc.value.code == 2
    assert "is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "0", "junk"])
def test_eval_refuses_a_tolerance_that_is_not_finite_and_positive(capsys, tol):
    # a nan tolerance let a 5.5e-02 residual of the S law exit 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "E4", "--tau", "0.01+0.02i", "--check", "S", "--tol", tol])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


def test_eval_reads_a_tau_with_a_leading_minus_after_an_equals_sign(capsys):
    # the parser takes "-0.5+1i" after a space for an option (only "-" and
    # numbers such as -3 are values), and the help names the --tau=... spelling
    with pytest.raises(SystemExit) as exc:
        main(["eval", "E4", "--tau", "-0.5+1i"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "eval", "E4", "--tau=-0.5+1i", "--order", "48")
    assert code == 0
    assert out.startswith("E4((-0.5+1j)) = ")
    code, out, _ = run(capsys, "eval", "E4", "--tau=-0.5+1i", "--check", "S", "--order", "48")
    assert code == 0 and "tau^4" in out
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    assert "--tau=-0.5+1i" in capsys.readouterr().out


def test_eval_tolerance_exceeded_exits_1(capsys):
    code, _, err = run(capsys, "eval", "E4", "--tau", "0.3+1.1i", "--check", "S",
                       "--order", "48", "--tol", "1e-30")
    assert code == 1
    assert "exceeds tolerance" in err


def test_eval_t_check_needs_cyclotomic(capsys):
    # theta2 exponents live on the 1/8 lattice: no exact T-shift
    code, _, err = run(capsys, "eval", "theta2", "--tau", "0.1+1.2i", "--check", "T")
    assert code == 2
    assert "T-check unavailable" in err


def test_verify_core_json(capsys):
    code, out, _ = run(capsys, "verify", "core", "--order", "24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "core"
    assert all(c["status"] == "pass" for c in payload["checks"])
    ids = [c["id"] for c in payload["checks"]]
    assert ids == sorted(ids, key=ids.index)  # deterministic order preserved


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "theta", "--order", "24", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "theta", "--order", "24", "--format", "json")
    a = json.loads(out1)
    b = json.loads(out2)
    strip = lambda p: [(c["id"], c["status"], c["detail"]) for c in p["checks"]]
    assert strip(a) == strip(b)
    assert code1 == code2 == 0


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert err == "unknown suite 'bogus'; choose from core, theta, gamma, alia, loop, all\n"
    assert err.strip().split("choose from ")[1].split(", ") == [*checks.SUITES, "all"]


def test_verify_rejects_a_suite_flag(capsys):
    # the suite is the positional argument only; a second spelling that
    # overrode it would run one suite and silently drop the other
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "theta", "--order", "20")
    assert exc.value.code == 2
    assert "--suite" in capsys.readouterr().err


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MFAL_ORDER", "5")
    code, out, _ = run(capsys, "expand", "Delta")
    assert code == 0
    assert "O(q^5)" in out
    monkeypatch.setenv("MFAL_ORDER", "junk")
    code, out, _ = run(capsys, "expand", "Delta", "--order", "4")
    assert code == 0
    assert "O(q^4)" in out


def test_expand_rejects_nonpositive_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "j", "--order", "-5"])
    assert exc.value.code == 2
    assert "--order: must be >= 1" in capsys.readouterr().err


def test_hilbert_rejects_negative_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "-3", "Gamma1", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert "argument n: must be >= 0" in err.err and "weight" not in err.out


@pytest.mark.parametrize("value", ["-5", "junk"])
def test_bad_order_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("MFAL_ORDER", value)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "j"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


def test_bad_order_env_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("MFAL_ORDER", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["expand", "j"])
    assert exc.value.code == 2
    assert "MFAL_ORDER" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["alia", "A1", "principal"], ["hilbert", "2", "Gamma1", "6"]])
def test_subcommands_without_an_order_ignore_a_bad_mfal_order(capsys, monkeypatch, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for value in ("abc", "0"):
        monkeypatch.setenv("MFAL_ORDER", value)
        assert run(capsys, *argv) == (0, out, "")


def test_alia_takes_no_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alia", "A1", "principal", "--order", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 5" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["eta", "theta3"])
def test_eval_s_check_refuses_forms_without_the_level_one_law(capsys, form):
    # eta and theta3 carry multipliers; f(-1/tau) = tau^k f(tau) is not their law
    code, out, err = run(capsys, "eval", form, "--tau", "1i", "--check", "S",
                         "--order", "32")
    assert code == 2
    assert form in err and "no S law" in err
    assert "residual" not in out


@pytest.mark.parametrize("form", ["E4", "E2", "j", "Delta", "F_k:-2"])
def test_eval_s_check_integer_weight_level_one(capsys, form):
    code, out, _ = run(capsys, "eval", form, "--tau", "0.3+1.1i", "--check", "S",
                       "--order", "48")
    assert code == 0
    assert "|f(-1/tau)" in out


# sha256 of the text output of `mfal alia TYPE ORBIT`, recorded before the
# Chevalley signs came from Carter's recursion
ALIA_TEXT_DIGESTS = {
    ("A1", "principal"): "963c753960d8e32ec0fcc920015b28495690d52978ad5cebf9a3e6e98ffb4d4d",
    ("A2", "principal"): "0a97a2d4483d9dc06ef87f663f0ab5c32bf40966b06b76881b15dcf727f5ff92",
    ("B2", "principal"): "f62cb102e4f24c880cf8acb6f7337f6b752f54c0c022b0f8aa975989d7edc6b7",
    ("B2", "subregular"): "b839c009872642e7772c482632cfeaad3dadf6a6b42ef20268060ecb5470710c",
    ("G2", "principal"): "093688c84803f475d80de1b885150bef668ef1c2c382a32038ba7897b2092994",
    ("G2", "subregular"): "50edd209459ab77b15a2bc3f060c8016ebb2a5eb1d27645148349aca32113d1f",
}


@pytest.mark.parametrize("type_label, orbit", sorted(ALIA_TEXT_DIGESTS))
def test_alia_text_digest(capsys, type_label, orbit):
    code, out, _ = run(capsys, "alia", type_label, orbit)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ALIA_TEXT_DIGESTS[(type_label, orbit)]


# sha256 of `mfal expand j --order 1024 --format json`, recorded before
# qseries.kronecker_mul had a decimal path; 7 of this order's products take
# that path (see README, "Big products")
EXPAND_J_1024_JSON = "4c767708ab8f03d563b822ebdc56aaf70522dbe81a0c83691099917e07e7f1ad"


def test_expand_j_1024_json_digest(capsys):
    code, out, _ = run(capsys, "expand", "j", "--order", "1024", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPAND_J_1024_JSON


def last_line_of(code: str) -> str:
    """The last line a fresh interpreter running ``code`` prints."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def mfal_modules_after(argv=None, module="mfal.cli") -> list:
    """The mfal modules a fresh interpreter holds after ``import module``
    and, unless argv is None, ``mfal.cli.main(argv)``."""
    code = f"import sys, {module}; "
    if argv is not None:
        code += f"mfal.cli.main({argv!r}); "
    code += "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mfal'))"
    return last_line_of(code).split()


def test_each_subcommand_imports_only_its_own_modules():
    assert mfal_modules_after() == ["mfal", "mfal.cli"]
    expand = mfal_modules_after(["expand", "j", "--order", "8"])
    assert expand == ["mfal", "mfal.cli", "mfal.modforms", "mfal.poly", "mfal.qseries"]
    alia = mfal_modules_after(["alia", "A1", "principal"])
    # no mfal.sl2: a bracket table needs no symmetric power; no mfal.linalg: it
    # reads the grading of its triple and solves nothing
    assert alia == ["mfal", "mfal.alia", "mfal.cli", "mfal.liealg", "mfal.poly", "mfal.sparse"]


#: the parser tokens (``test_verify_report.parser_tokens``) of the modules
#: `mfal expand j` loads; every process compiles them with no bytecode
#: cache, so the congruence forms, the derivations, the float laws and the
#: rendering of the other commands stay out of them
EXPAND_TOKEN_BOUND = 8500


def test_expand_compiles_few_parser_tokens():
    from test_verify_report import parser_tokens

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    paths = [os.path.join(src, *name.split(".")) for name in mfal_modules_after(
        ["expand", "j", "--order", "8"])]
    tokens = sum(parser_tokens(os.path.join(path, "__init__.py") if os.path.isdir(path)
                               else path + ".py") for path in paths)
    assert tokens <= EXPAND_TOKEN_BOUND


@pytest.mark.parametrize("form", ["phi1", "mu", "f_gamma5"])
def test_expand_of_a_congruence_form_imports_its_builders(capsys, form):
    loaded = mfal_modules_after(["expand", form, "--order", "8"])
    assert loaded == ["mfal", "mfal.cli", "mfal.congruence", "mfal.modforms", "mfal.poly",
                      "mfal.qseries"]
    code, out, _ = run(capsys, "expand", form, "--order", "8")
    assert code == 0 and out.startswith(f"{form} (weight ")


def test_eval_imports_the_float_laws():
    loaded = mfal_modules_after(["eval", "E4", "--tau", "1i", "--order", "8"])
    assert loaded == ["mfal", "mfal.cli", "mfal.modforms", "mfal.numeric", "mfal.poly",
                      "mfal.qseries"]


@pytest.mark.parametrize("argv", [["expand", "j", "--order", "8"], ["expand", "F_k:-20"]])
def test_expand_compiles_no_sparse_ring(argv):
    """A q-expansion builds no polynomial ring: only series code is compiled."""
    assert "mfal.sparse" not in mfal_modules_after(argv)


#: the mfal modules beyond mfal, mfal.cli, mfal.checks and mfal.poly that
#: `mfal verify <suite>` loads
VERIFY_MODULES = {
    "core": ["checks_core", "derivations", "liealg", "linalg", "modforms", "numeric", "qseries",
             "quasimodular", "sl2", "sparse", "vvmf"],
    "theta": ["checks_theta", "congruence", "modforms", "numeric", "qseries"],
    "gamma": ["checks_gamma", "congruence", "modforms", "qseries"],
    "alia": ["alia", "checks_alia", "liealg", "linalg", "sparse"],
    "loop": ["alia", "checks_loop", "cyclotomic", "liealg", "linalg", "loopext", "sl2", "sparse"],
}
#: the modules each suite must not load
VERIFY_SKIPS = {
    "theta": {"liealg", "alia", "loopext", "quasimodular", "sparse", "vvmf", "derivations"},
    "gamma": {"liealg", "alia", "loopext", "quasimodular", "sparse", "vvmf", "derivations",
              "numeric"},
    "loop": {"qseries", "modforms", "quasimodular", "vvmf", "congruence", "derivations",
             "numeric"},
    "core": {"alia", "loopext", "congruence"},
    "alia": {"loopext", "vvmf", "quasimodular", "modforms", "qseries", "congruence",
             "derivations", "numeric"},
}


@pytest.mark.parametrize("suite", VERIFY_MODULES)
def test_each_verify_suite_imports_only_its_own_modules(suite):
    loaded = mfal_modules_after(["verify", suite, "--order", "8"])
    own = ["mfal." + name for name in ["checks", "cli", "poly", *VERIFY_MODULES[suite]]]
    assert loaded == sorted(["mfal", *own])
    assert not {"mfal." + name for name in VERIFY_SKIPS[suite]} & set(loaded)


@pytest.mark.parametrize("suite", VERIFY_MODULES)
def test_no_check_imports_a_module(suite):
    """No module is first imported while a check runs: run_suite loads the
    suite's modules before its first timer starts."""
    code = ("import sys; from mfal import checks; "
            f"checks.load({suite!r}); before = set(sys.modules); "
            f"checks.run_suite({suite!r}, 8); print(sorted(set(sys.modules) - before))")
    assert last_line_of(code) == "[]"


@pytest.mark.parametrize("module", ["mfal.liealg", "mfal.alia", "mfal.cyclotomic", "mfal.loopext",
                                    "mfal.checks_loop"])
def test_algebra_half_loads_no_qseries_module(module):
    loaded = mfal_modules_after(module=module)
    assert module in loaded
    assert not {"mfal.qseries", "mfal.modforms", "mfal.quasimodular", "mfal.vvmf"} & set(loaded)


def test_phi_loads_no_qseries_module():
    """Phi_n and its S law need Sym^n and the quasimodular ring, no series:
    the q-series bridge of quasimodular imports modforms and qseries when
    called."""
    phi_modules = ["mfal", "mfal.linalg", "mfal.poly", "mfal.quasimodular", "mfal.sl2",
                   "mfal.sparse", "mfal.vvmf"]
    assert mfal_modules_after(module="mfal.vvmf") == phi_modules
    s_law = ("import sys, mfal.vvmf; "
             "assert all(lhs == rhs for lhs, rhs in map(mfal.vvmf.s_law, (1, 2, 3))); "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mfal'))")
    assert last_line_of(s_law).split() == phi_modules
    loaded = mfal_modules_after(module="mfal.quasimodular")
    assert "mfal.quasimodular" in loaded
    assert not {"mfal.qseries", "mfal.modforms"} & set(loaded)


def test_loopext_loads_no_root_system():
    """EvaluationRep imports liealg when it is built, not loopext's import."""
    assert mfal_modules_after(module="mfal.loopext") == [
        "mfal", "mfal.cyclotomic", "mfal.linalg", "mfal.loopext", "mfal.poly", "mfal.sl2",
        "mfal.sparse"]


def test_tables_load_no_elimination():
    """liealg imports linalg only where it eliminates or forms a matrix."""
    assert mfal_modules_after(module="mfal.liealg") == ["mfal", "mfal.liealg", "mfal.poly"]
    assert mfal_modules_after(module="mfal.alia") == [
        "mfal", "mfal.alia", "mfal.liealg", "mfal.poly", "mfal.sparse"]


def test_building_the_six_tables_solves_no_triple():
    """A table reads only the grading of its triple: the H, E, F solves, which
    import linalg, do not run."""
    code = ("import sys, mfal.alia, mfal.liealg; "
            "[mfal.alia.alia_table(*key).bracket_records() for key in mfal.liealg.ORBIT_LABELS]; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mfal'))")
    assert last_line_of(code).split() == [
        "mfal", "mfal.alia", "mfal.liealg", "mfal.poly", "mfal.sparse"]


def test_the_series_kernel_lives_in_qseries():
    from mfal import poly, qseries

    assert callable(qseries.kronecker_mul)
    assert not hasattr(poly, "kronecker_mul")


def test_the_command_line_loads_no_argparse():
    """One table and its parser read argv: neither the import nor a command
    pays for argparse."""
    probe = "print('argparse' in sys.modules)"
    assert last_line_of(f"import sys, mfal.cli; {probe}") == "False"
    expand = "mfal.cli.main(['expand', 'j', '--order', '8'])"
    assert last_line_of(f"import sys, mfal.cli; {expand}; {probe}") == "False"


def test_help_comes_from_the_command_table(capsys):
    from mfal.cli import COMMANDS

    assert list(COMMANDS) == ["expand", "alia", "hilbert", "eval", "verify"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in COMMANDS)
    for command, (_, _, options) in COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: mfal {command} [-h] ")
        assert options and all(flag in out for flag, *_ in options)


@pytest.mark.parametrize("argv, message", [
    (["eval", "E4", "--tau"], "mfal eval: error: argument --tau: expected one argument"),
    (["eval", "E4"], "mfal eval: error: the following arguments are required: --tau"),
    (["expand"], "mfal expand: error: the following arguments are required: form"),
    (["expand", "j", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["hilbert", "2", "Gamma1", "x"], "mfal hilbert: error: argument kmax: invalid value: 'x'"),
    (["alia", "E8", "principal"], "argument type: invalid choice: 'E8'"),
    # options are spelled in full: a prefix of --order is an unknown flag
    (["expand", "j", "--ord", "5"], "mfal expand: error: unrecognized arguments: --ord 5"),
    (["nosuch"], "mfal: error: argument command: invalid choice: 'nosuch'"),
    ([], "mfal: error: the following arguments are required: command"),
])
def test_usage_errors_exit_2_under_the_usage_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: mfal") and message in error


def test_a_value_after_an_equals_sign_or_a_space(capsys):
    assert run(capsys, "expand", "Delta", "--order=4") == run(capsys, "expand", "Delta",
                                                               "--order", "4")
    code, out, _ = run(capsys, "expand", "--format=json", "E4", "--order", "3")
    assert code == 0 and json.loads(out)["trunc"] == "3/1"
