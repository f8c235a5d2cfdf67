"""Acceptance suite: every criterion at exact equality, one line each."""

from ciqc.acceptance import CRITERIA, RING_DESCRIPTORS, TOY_MODELS, run_all
from ciqc.geometry import describe, require_reconstruction_domain


def test_acceptance_criteria():
    results = run_all()
    assert len(results) == len(CRITERIA)
    failures = []
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append((name, detail))
    assert not failures, failures


def test_every_case_is_a_canonical_in_domain_descriptor():
    # run_all filters on describe's (n, d), so a case with d unsorted, or
    # outside the reconstruction domain, could never be selected by verify
    for name, _, cases in CRITERIA:
        assert cases, name
        for case in cases:
            if case == TOY_MODELS:
                continue
            n, d = case[:2]
            desc = describe(n, d)
            assert desc.d == d, (name, case)
            require_reconstruction_domain(desc)


def test_run_all_ring_and_origin_counts(monkeypatch):
    # every criterion gets its ring from acceptance._ring, so each of the 16
    # descriptors builds one ring and one J-series; each ring memoizes its
    # origin jet and its F^(1) jet, and the one-point and genus-one criteria
    # read its J-series
    from ciqc import acceptance, reconstruct, smallqh
    builds, origins, jets, f1s = [], [], [], []

    def counted(*args, _real=acceptance.build_ring):
        builds.append(args)
        return _real(*args)

    monkeypatch.setattr(acceptance, "build_ring", counted)

    def counted_j(*args, _real=smallqh.small_j):
        jets.append(args)
        return _real(*args)

    monkeypatch.setattr(smallqh, "small_j", counted_j)
    real_init = smallqh.AmbientOrigin.__init__

    def counted_init(self, *args):
        origins.append(args)
        real_init(self, *args)

    monkeypatch.setattr(smallqh.AmbientOrigin, "__init__", counted_init)

    def counted_f1(*args, _real=reconstruct.f1_series):
        f1s.append((args[0].n, args[0].d))
        return _real(*args)

    monkeypatch.setattr(reconstruct, "f1_series", counted_f1)
    acceptance._kept_ring.cache_clear()
    assert all(ok for _, ok, _ in run_all())
    assert len(builds) == 16
    assert len(origins) <= 11
    assert len(jets) == 16
    # F^(1) once per ring that reads it: criteria 5, 6 and 7 share the jets
    # of X_3(3), X_4(3), X_5(3), X_3(2,2), X_5(2,2); criterion 6's X_5(2,3),
    # X_6(2,3) and X_4(2,2,2) have (n-1)/a fractional, so their root set {0}
    # reads no F^(1)
    assert sorted(f1s) == sorted(RING_DESCRIPTORS[:5])
    # kept: the 10 rings two criteria read, not the cubics n = 9..12 (only
    # criterion 7 reads them; criterion 8 reads no ring) or (6,(2,3)) and
    # (4,(2,2,2)) (criterion 6 alone)
    assert acceptance._kept_ring.cache_info().currsize == 10
