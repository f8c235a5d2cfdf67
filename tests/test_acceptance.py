"""Acceptance suite: every criterion at exact equality, one line each."""

from ciqc.acceptance import CRITERIA, run_all


def test_acceptance_criteria():
    results = run_all()
    assert len(results) == len(CRITERIA)
    failures = []
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures.append((name, detail))
    assert not failures, failures


def test_run_all_ring_and_origin_counts(monkeypatch):
    # rings are built only by the criteria; each ring memoizes its origin jet
    # and keeps its J-series, which the one-point criterion reads for n <= 5
    from ciqc import acceptance, genus_one, smallqh
    builds, origins, jets = [], [], []
    for module in (acceptance, genus_one):
        def counted(*args, _real=module.build_ring):
            builds.append(args)
            return _real(*args)

        monkeypatch.setattr(module, "build_ring", counted)

    def counted_j(*args, _real=smallqh.small_j, **kwargs):
        jets.append(args)
        return _real(*args, **kwargs)

    for module in (acceptance, smallqh):
        monkeypatch.setattr(module, "small_j", counted_j)
    real_init = smallqh.AmbientOrigin.__init__

    def counted_init(self, *args):
        origins.append(args)
        real_init(self, *args)

    monkeypatch.setattr(smallqh.AmbientOrigin, "__init__", counted_init)
    acceptance._ring.cache_clear()
    assert all(ok for _, ok, _ in run_all())
    assert len(builds) == 22
    assert len(origins) <= 11
    assert len(jets) == 25
