"""`alia.specialization`: det K(j) over Q[j] against the cocycle exponents."""

import re

from mfal import alia, checks

checks.load("alia")

#: the lemma that names the exponents (a, b) computed for one orbit
EXPONENTS = re.compile(r"(\w+) (\w+): det K\(j\) = c j\^a \(j-1728\)\^b, \(a, b\) = \((\d+), (\d+)\)")


def test_specialization_is_exact_over_qj():
    passed, detail = checks.check_identity("alia.specialization", 32)
    assert passed, detail
    _, sides = checks.IDENTITIES["alia.specialization"]
    found = {}
    for name, _, _ in sides(32):
        if match := EXPONENTS.fullmatch(name):
            found[match[1], match[2]] = int(match[3]), int(match[4])
    assert found == {("A1", "principal"): (2, 2), ("A2", "principal"): (6, 4),
                     ("B2", "principal"): (6, 6), ("B2", "subregular"): (6, 6),
                     ("G2", "principal"): (10, 8), ("G2", "subregular"): (10, 8)}


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
    # one w6 flipped from 1 to 0 lowers b by one, and det K(j) keeps its old form
    assert checks.check_identity("alia.specialization", 32) == (
        False, "failed: B2 subregular: det K(j) = c j^a (j-1728)^b, (a, b) = (6, 5)")
