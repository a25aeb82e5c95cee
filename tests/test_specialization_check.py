"""`alia.specialization`: det K(j) over Q[j] against the cocycle exponents."""

from mfal import alia, checks_alia


def test_specialization_is_exact_over_qj():
    passed, detail = checks_alia.check_specialization(32)
    assert passed, detail
    for key, ab in ((("A1", "principal"), (2, 2)), (("A2", "principal"), (6, 4)),
                    (("B2", "principal"), (6, 6)), (("B2", "subregular"), (6, 6)),
                    (("G2", "principal"), (10, 8)), (("G2", "subregular"), (10, 8))):
        assert f"{key[0]} {key[1]} {ab}" in detail


def test_specialization_fails_on_one_wrong_cocycle_exponent(monkeypatch):
    build = alia.alia_table

    def patched(type_label, orbit):
        table = build(type_label, orbit)
        if (type_label, orbit) == ("B2", "subregular"):
            pair = next(p for p in table.cocycles.w6 if p[0] == tuple(-x for x in p[1]))
            table.cocycles.w6[pair] = 1 - table.cocycles.w6[pair]
        return table

    # the edited table is built fresh and does not outlive this test
    monkeypatch.setattr(alia, "_TABLE_CACHE", {})
    monkeypatch.setattr(alia, "alia_table", patched)
    passed, detail = checks_alia.check_specialization(32)
    assert not passed
    assert "('B2', 'subregular')" in detail
