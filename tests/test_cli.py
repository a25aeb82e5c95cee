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


def test_verify_suite_flag_form(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theta", "--order", "20",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["suite"] == "theta"


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
# kronecker_mul had a decimal path; this order takes it (see README)
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
    assert alia == ["mfal", "mfal.alia", "mfal.cli", "mfal.liealg", "mfal.linalg", "mfal.poly"]


#: the mfal modules beyond mfal, mfal.cli, mfal.checks and mfal.poly that
#: `mfal verify <suite>` loads
VERIFY_MODULES = {
    "core": ["checks_core", "liealg", "linalg", "modforms", "qseries", "quasimodular", "vvmf"],
    "theta": ["checks_theta", "modforms", "qseries"],
    "gamma": ["checks_gamma", "modforms", "qseries"],
    "alia": ["alia", "checks_alia", "liealg", "linalg", "modforms", "qseries"],
    "loop": ["alia", "checks_loop", "cyclotomic", "liealg", "linalg", "loopext"],
}
#: the modules each suite must not load
VERIFY_SKIPS = {
    "theta": {"liealg", "alia", "loopext", "quasimodular", "vvmf"},
    "gamma": {"liealg", "alia", "loopext", "quasimodular", "vvmf"},
    "loop": {"qseries", "modforms", "quasimodular", "vvmf"},
    "core": {"alia", "loopext"},
    "alia": {"loopext", "vvmf", "quasimodular"},
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
