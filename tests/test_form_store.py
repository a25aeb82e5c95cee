"""The form store (mfal.modforms.named_form) and its golden gate.

GOLDEN_64 holds the sha256 of ``json.dumps(named_form(name, 64).series.to_json())``
for every registered name and every F_k:k with k even in [-24, 24], recorded
before the store existed (each form then built by its own function with its
own padding).  A form must read the same whether it is built directly or cut
from a deeper build.
"""

import hashlib
import json
import sys
import tokenize
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from mfal import checks, congruence, derivations, modforms as mf
from mfal.qseries import QSeries

checks.load("all")  # the rows of every suite

NAMES = list(mf.REGISTERED_NAMES) + [f"F_k:{k}" for k in range(-24, 25, 2)]

GOLDEN_64 = {
    "E2": "5595677876ba5854f0a66b5437810170fcee8bd2604f18081c5b86b04b1fc0c7",
    "E4": "f0c9d83217a5d7e7d45da25b8ac92d723ac46ad2640d5d55717d707fbf9a53d9",
    "E6": "4e7216be011237a16e25fdb2d04567ce666a8804c0ef9d8270d29f90f86c9856",
    "E8": "50d15eb92cf236cc26390359f29216f6e8001521663ed4ce72580d72877086ee",
    "E10": "2939893befcf85df1d01fa0f443c1f3da025db344ae129a8d6176aa84deeacb3",
    "E14": "1d1da0335c78d68bb979663093befbdccb29677a3a1649789904ccf7c484a359",
    "Delta": "262ad911a69fd026d9001937b129cdeaea65d291950af09bc6df08e4287c56c9",
    "j": "a67066b049bea81605f6defd44fd1745df9da29081a3cafb60e1a88720707a9f",
    "j-1728": "51728c9fcb6ea40d8956a936dcce480b8f21098404225e173ea053beb02a280e",
    "eta": "0fbad06cbd9393bc362f2ef38404742df1f24731d0e990f70951f2a15be9dea2",
    "theta2": "647cdc7ec4a0d04400f6ec38d4eb5740b24d4b5b4d8747075db94dec86e78504",
    "theta3": "88dbb446135debaa2f322104f877efa1e1ce5a83e7dd4bbc0aa7c03fef8901b6",
    "theta4": "08c2e628e9d798641bec0c664427ea61b9d2bfe7af7bcefee24326ce8ffa3bac",
    "lambda": "993d9fef67f12c895c34c28d0900fc540a6dca43b2ca5862af6d494743428d7f",
    "mu": "e662c577725ef7dad10979cc1b35cabbd3e619632e7b0c5c660f75d0b5e87f52",
    "phi1": "3eab92e533ac36290e2b7579cefb565e56e1cccc963377fb493333888db92573",
    "phi2": "a5f582fc284b3a519a08b3ecaf068f2beb470b117ccaa82012b9019fd397edde",
    "F2": "96f8e433a93318ca1c56439079da25f97db6b3977aca869811e8de8ab6819f88",
    "H2": "8659c851132b85ddd3739dc66ade543c3325212cc62400da66664a157e529953",
    "f_gamma5": "6dd2878e86f9bd2978762eb5467a87045673a561dcbf8c24d0be948f806baab3",
    "F_k:-24": "932d9b703e162104f329ce68e7f6206ed4dde8d17aa42964ce667df07418b597",
    "F_k:-22": "9a13519402f9d3310fdb053eced8597cc24db726b2eaf3d9ccda13c530f0f92f",
    "F_k:-20": "35bb78d8cb49203412309b25d0ef003bffb4f228ffa8c1cafc49b433e1f7214b",
    "F_k:-18": "dad5f09d9737bd76a8aaa2a2187bf7388b4052136084f3d65c03aeb4ca20ecff",
    "F_k:-16": "b9f3220adcbbb2a4ffdd4577130ebd6e29e20bff58416bbcacf242138aaa6ecb",
    "F_k:-14": "bdf19944be81aed64bf29e01ab08eb2dfdad9ace973560581da04748d546bd8c",
    "F_k:-12": "168831b2f23cbbb81876bbe66f8bb72748f301871c4be3b9cfd379a552f15c87",
    "F_k:-10": "862c3291e396baf1f2552581d5f2013c923098d71da210e6d76e910aece9d4b0",
    "F_k:-8": "c2da28310284a24f37ef3b8ed39536991442f744ca82de006fde6a88ad313526",
    "F_k:-6": "9fdf82adb0b94e73cc5dd3bf2e29adc41e24e928989790ce065075a86700b117",
    "F_k:-4": "0ba7984dd3e9fdad87999371e8fcdb18256d6af52967f42359342bc3c539aff1",
    "F_k:-2": "53069b667f78d5781ae65e918c0775c8cca2eba66ce25ce560130b7d93d395e6",
    "F_k:0": "cedf4d45153965fe452d13fce1c7cb5a501741f02899a45bcc678d1aba1c2a75",
    "F_k:2": "fe46172e1aa77a5ce1737c3706857bc0217d972420e4582d9dc34639b8b1e1ab",
    "F_k:4": "f0c9d83217a5d7e7d45da25b8ac92d723ac46ad2640d5d55717d707fbf9a53d9",
    "F_k:6": "4e7216be011237a16e25fdb2d04567ce666a8804c0ef9d8270d29f90f86c9856",
    "F_k:8": "50d15eb92cf236cc26390359f29216f6e8001521663ed4ce72580d72877086ee",
    "F_k:10": "2939893befcf85df1d01fa0f443c1f3da025db344ae129a8d6176aa84deeacb3",
    "F_k:12": "262ad911a69fd026d9001937b129cdeaea65d291950af09bc6df08e4287c56c9",
    "F_k:14": "1d1da0335c78d68bb979663093befbdccb29677a3a1649789904ccf7c484a359",
    "F_k:16": "a7e84d1c4f9e36d6182395255ca3ca3fac97a2dbff71a07af844bf8815733bbe",
    "F_k:18": "7c91b97cb4cba849a50b018e5c38d56ab778a149c6f78f659f1cffd526f6ecfd",
    "F_k:20": "96960a292dbe34194cce9bc06d34612dcd8fc7343f21ee6b35137a4c20cd9a41",
    "F_k:22": "2da7502040bc37708ec14f62e4a5ab7d44fdc87ffcba063f32326957d264e7ea",
    "F_k:24": "060687e557887a827f73c2935e511c2c6bf411b26a63d0cec06855bb729c1378",
}


def digest(form):
    return hashlib.sha256(json.dumps(form.series.to_json()).encode()).hexdigest()


@pytest.fixture
def empty_store(monkeypatch):
    monkeypatch.setattr(mf, "_STORE", {})


@pytest.mark.parametrize("name, unbuilt", [
    ("j", "E6"), ("j-1728", "E4"), ("F_k:-18", "E4"), ("F_k:-20", "E6"),
])
def test_a_monomial_builds_no_factor_of_exponent_zero(empty_store, name, unbuilt):
    # Delta^-1 E4^3, Delta^-1 E6^2, Delta^-2 E6 and Delta^-2 E4 ask the store
    # only for the factors they multiply, not for E**0
    mf.named_form(name, 64)
    assert unbuilt not in mf._STORE


def test_golden_names_cover_the_registry():
    assert sorted(GOLDEN_64) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_golden_order_64(name):
    assert digest(mf.named_form(name, 64)) == GOLDEN_64[name]


@pytest.mark.parametrize("name", ["E4", "Delta", "eta", "theta2", "lambda", "F_k:-10", "F_k:8"])
def test_cut_equals_direct_build(empty_store, name):
    deep = mf.named_form(name, 40)
    cut = mf.named_form(name, 24)
    assert cut is not deep
    mf._STORE.clear()
    assert cut.series.to_json() == mf.named_form(name, 24).series.to_json()


def test_each_depth_is_built_once(empty_store, monkeypatch):
    calls = []
    build = mf.eisenstein

    def counted(k, order=mf.DEFAULT_ORDER):
        calls.append((k, order))
        return build(k, order)

    monkeypatch.setattr(mf, "eisenstein", counted)
    e4 = mf.named_form("E4", 30)
    assert mf.named_form("E4", 30) is e4
    assert mf.named_form("E4", 20).series.trunc == 20
    assert calls == [(4, 30)]
    mf.named_form("E4", 31)
    assert calls == [(4, 30), (4, 31)]


def test_level_one_quotients_are_monomials():
    j = mf.named_form("j", 32).series
    jm = mf.named_form("j-1728", 32).series
    assert (j - 1728).agrees(jm)
    assert mf.level_one_monomial(-1, 3, 0, 32).agrees(j)
    assert mf.duke_jenkins(0, 32)[3].agrees(QSeries.constant(1, trunc=32))
    pref = derivations.delta_derivation_prefactor(32)
    assert pref.trunc == 32
    assert pref.agrees(mf.level_one_monomial(-1, 1, 1, 31).shift_exponents(1))


def test_depth_rule():
    # Delta^-2 E4: valuation -2, and Delta's relative precision is its depth less 1
    assert mf.depth(32, (1, -2), (0, 1)) == 35
    # Delta^3: valuation 3, so Delta built at 30 (relative precision 29) reaches 32
    assert mf.depth(32, (1, 3)) == 30
    assert (mf.named_form("Delta", 30).series ** 3).trunc == 32
    assert mf.depth(10, (Fraction(-2, 5), 5)) == Fraction(58, 5)
    series = mf.named_form("E4", 36).series * mf.named_form("Delta", 36).series ** -2
    assert series.trunc >= 32
    # no factor, or only zero exponents: the order itself
    assert mf.depth(32) == mf.depth(32, (1, 0)) == 32
    # a product that vanishes below the order keeps one unit past its valuation
    assert mf.depth(2, (1, 3)) == 2
    assert mf.duke_jenkins(36, 2)[3].trunc == 2


def test_depth_of_rescaled_factors():
    # eta(4 tau)^4 eta(2 tau)^-2: valuation 1/2, eta(2 tau) has relative precision 2 D
    deep = mf.depth(32, (Fraction(1, 24), 4, 4), (Fraction(1, 24), -2, 2))
    assert deep == Fraction(63, 4) + Fraction(1, 24)
    eta = mf.named_form("eta", Fraction(63, 4)).series
    assert (eta.rescale_tau(4) ** 4 * eta.rescale_tau(2) ** -2).trunc == 32


@pytest.mark.parametrize("spec", [[(4, 4), (2, -2)], [(3, 3), (1, -1)], [(1, 2), (2, -4)]])
def test_eta_quotient_depth_is_exact(empty_store, spec):
    # eta is built at the least depth whose product still reaches the order
    order = 32
    assert mf.eta_quotient(spec, order).trunc == order
    eta = mf.named_form("eta", mf._STORE["eta"][0]).series
    (m1, r1), (m2, r2) = spec
    assert (eta.rescale_tau(m1) ** r1 * eta.rescale_tau(m2) ** r2).trunc == order


def test_gamma5_form_depth_is_exact(empty_store):
    # q T(1, 5)^5 / eta_cube(1) has valuation 1: the sums are built to depth
    # order - 1, and to depth 1 at order 1, where the form vanishes below q
    f = congruence.gamma5_form_f(32)
    assert f.series.trunc == 32
    zero = congruence.gamma5_form_f(1).series
    assert (zero.nums, zero.trunc) == ([], 1)


@pytest.mark.parametrize(
    "ell, n4, n6", [(-1, 3, 0), (-1, 0, 2), (-2, 2, 1), (-2, 0, 0), (2, 1, 1), (3, 0, 0)]
)
def test_level_one_monomial_depth_is_exact(empty_store, ell, n4, n6):
    # the product level_one_monomial builds, before its final truncation
    order = 32
    deep = mf.depth(order, (0, n4), (0, n6), (1, ell))
    series = mf.named_form("E4", deep).series ** n4 * mf.named_form("E6", deep).series ** n6
    series = series * mf.named_form("Delta", deep).series ** ell
    assert series.trunc == order


def test_depth_of_a_negative_valuation_power_times_another_factor(empty_store):
    # j^2 alone loses one unit; multiplied onto E4 it costs E4 its valuation 2
    assert mf.depth(32, (-1, 2)) == 33
    assert mf.depth(32, (0, 1), (-1, 2)) == 34
    j = mf.named_form("j", 33).series
    assert (j**2).trunc == 32
    deep = mf.depth(32, (0, 1), (-1, 2))
    series = mf.named_form("E4", deep).series * mf.named_form("j", deep).series ** 2
    assert series.trunc == 32


def test_two_routes_do_not_share_store_entries(empty_store):
    # corrupt one route's stored form: the dual-route checks must see it
    for name, check_id in (
        ("Delta", "modforms.delta_dual_route"),
        ("eta", "modforms.delta_dual_route"),
        ("E8", "modforms.eisenstein_powers"),
        ("E4", "modforms.eisenstein_powers"),
    ):
        mf._STORE.clear()
        assert checks.check_identity(check_id, 24)[0]
        form = mf.named_form(name, 40)
        wrong = form.series + QSeries.from_terms([(3, 1)], trunc=40)
        bad = mf.NamedForm(name, form.weight, form.group, wrong)
        mf._STORE[name] = (Fraction(40), {Fraction(40): bad})
        assert not checks.check_identity(check_id, 24)[0], name


def test_store_forms_unchanged_by_suite():
    for name in NAMES:
        mf.named_form(name, 24)
    held = [form for _, cuts in list(mf._STORE.values()) for form in list(cuts.values())]
    before = [json.dumps(form.series.to_json()) for form in held]
    report = checks.run_suite("all", 24)
    assert all(passed for _, passed, _, _ in report)
    assert [json.dumps(form.series.to_json()) for form in held] == before


def test_store_under_thread_contention(empty_store):
    names = ("E4", "Delta", "j", "F_k:-6")
    requests = [(name, order) for order in (12, 20, 16, 24) for name in names]
    expected = {}
    for name, order in requests:
        mf._STORE.clear()
        expected[name, order] = json.dumps(mf.named_form(name, order).series.to_json())
    mf._STORE.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(mf.named_form, n, o) for n, o in requests * 4]
            forms = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (name, order), form in zip(requests * 4, forms):
        assert json.dumps(form.series.to_json()) == expected[name, order]


def test_f_k_spellings_are_one_store_entry(empty_store):
    forms = [mf.named_form(name, 24) for name in ("F_k:4", "F_k:+4", "F_k: 4")]
    assert forms[0] is forms[1] is forms[2]
    assert forms[0].name == "F_k:4"
    assert [key for key in mf._STORE if key.startswith("F_k")] == ["F_k:4"]


@pytest.mark.parametrize("first, second, generators", [
    ("phi1", "phi2", "gamma3_generators"), ("phi2", "phi1", "gamma3_generators"),
    ("F2", "H2", "gamma2_generators"), ("H2", "F2", "gamma2_generators"),
])
def test_one_build_stores_both_forms_of_a_pair(monkeypatch, first, second, generators):
    # a fresh store, which does not outlive this test
    monkeypatch.setattr(mf, "_STORE", {})
    calls, build = [], getattr(congruence, generators)
    monkeypatch.setattr(congruence, generators, lambda order: calls.append(order) or build(order))
    pair = {name: mf.named_form(name, 32) for name in (first, second)}
    assert calls == [32]
    assert {name: form.series.to_json() for name, form in pair.items()} == {
        form.name: form.series.to_json() for form in build(32)}
    mf.named_form(second, 16)  # a cut of the stored form
    assert calls == [32]


def test_verify_gamma_builds_the_gamma3_pair_once(monkeypatch):
    monkeypatch.setattr(mf, "_STORE", {})
    calls, build = [], congruence.gamma3_generators
    monkeypatch.setattr(congruence, "gamma3_generators", lambda order: calls.append(order) or build(order))
    assert all(passed for _, passed, _, _ in checks.run_suite("gamma", 32))
    assert calls == [32]


def test_only_modforms_names_the_store():
    """The store's layout is modforms' own: scanning the package's sources
    as ``parser_tokens`` does, no other module names ``_STORE``."""

    def names(path):
        with open(path, "rb") as fh:
            return {tok.string for tok in tokenize.tokenize(fh.readline)
                    if tok.type == tokenize.NAME}

    sources = sorted(Path(mf.__file__).parent.glob("*.py"))
    assert [path.name for path in sources if "_STORE" in names(path)] == ["modforms.py"]
