"""The ladder's reports against the committed corpus.

Strings, modes, counts, levels and worst sets must match exactly; a
float must lie within 1e-12 of the stored value, relative to the larger
of 1 and its size, so a BLAS or numpy build that rounds an eigenvalue
differently passes while a changed report does not.  A change that
moves a report on purpose regenerates the corpus with
``tests/report_corpus.py``.
"""

import json

from report_corpus import CORPUS, corpus


def mismatches(actual, expected, path="$"):
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        if not abs(actual - expected) <= 1e-12 * max(1.0, abs(expected)):
            yield f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            yield f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected.keys() & actual.keys():
            yield from mismatches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            yield f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            yield from mismatches(a, e, f"{path}[{i}]")
    elif type(actual) is not type(expected) or actual != expected:
        yield f"{path}: {actual!r} != {expected!r}"


def test_reports_match_the_corpus():
    expected = json.loads(CORPUS.read_text())
    actual = json.loads(json.dumps(corpus()))
    assert len(expected) == 140
    assert list(mismatches(actual, expected)) == []


def test_comparison_catches_changes():
    entry = json.loads(CORPUS.read_text())[0]
    report = entry["result"]["reports"][0]
    assert not list(mismatches(entry, entry))
    for key, value in (("margin", report["margin"] + 1e-9), ("worst_set", report["worst_set"] + ["+1 X"])):
        changed = json.loads(json.dumps(entry))
        changed["result"]["reports"][0][key] = value
        assert len(list(mismatches(changed, entry))) == 1
    changed = json.loads(json.dumps(entry))
    changed["result"]["level"] = "p-bin" if entry["result"]["level"] != "p-bin" else "invalid"
    assert list(mismatches(changed, entry)) == [f"$.result.level: {changed['result']['level']!r} != {entry['result']['level']!r}"]
