"""Validators for the output of each benchmark op, and their self-test.

``check(op, rc, out, err)`` raises ``Invalid`` when an op's exit code is not
the expected one, when stderr holds a traceback, or when stdout fails the
op's validation: pinned values from the paper where the op has them, and a
full parse of every rational otherwise.  ``mutations`` derives wrong outputs
from an accepted one (a ``c`` of 1, roots ``0 5``, a ``FAIL`` line, a
low-degree residual term, ...); ``self_test`` confirms the validator rejects
every one of them.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_RAT = re.compile(r"-?\d+(/\d+)?\Z")


class Invalid(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise Invalid(reason)


def rational(text) -> Fraction:
    _require(isinstance(text, str) and _RAT.match(text), f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise Invalid(f"zero denominator: {text!r}")


def _qpoly(value):
    """A q-polynomial is emitted as [[exponent, "p/q"], ...]."""
    _require(isinstance(value, list), f"not a q-polynomial: {value!r}")
    for item in value:
        _require(isinstance(item, list) and len(item) == 2
                 and isinstance(item[0], int) and item[0] >= 0,
                 f"bad q-term {item!r}")
        rational(item[1])


def _json(out: bytes):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Invalid(f"stdout is not JSON: {exc}")


def _roots(values, op):
    roots = sorted(rational(r) for r in values)
    _require(len(roots) > 0, "no roots")
    if "roots" in op.expect:
        want = sorted(Fraction(r) for r in op.expect["roots"])
        _require(roots == want, f"roots {roots} != {want}")


def _series_terms(terms):
    _require(isinstance(terms, list), "terms is not a list")
    for term in terms:
        _require(isinstance(term.get("monomial"), list), "term without monomial")
        _qpoly(term.get("coefficient"))


def _low_terms(terms, s_slot=True):
    """Terms of total t-degree <= 1 (in the s^0 slice when s_slot)."""
    low = 0
    for term in terms:
        mono = term["monomial"]
        if s_slot and mono[-1] != 0:
            continue
        low += sum(mono[:-1] if s_slot else mono) <= 1
    return low


def _check_verify(op, out):
    lines = out.decode().splitlines()
    _require(len(lines) == 10, f"{len(lines)} report lines, expected 10")
    for i, line in enumerate(lines, start=1):
        _require(line.startswith(f"PASS  {i} "), f"line {i}: {line[:60]!r}")


def _check_info(op, out):
    data = _json(out)
    _require(data.get("n") == op.n and data.get("d") == list(op.d),
             "descriptor does not echo the input")
    _require(data.get("exceptional") is False, "descriptor marked exceptional")


def _check_smallqh(op, out):
    data = _json(out)
    c = rational(data.get("c"))
    if "c" in op.expect:
        _require(c == Fraction(op.expect["c"]), f"c = {c}, expected {op.expect['c']}")
    rational(data.get("c_conjecture"))
    for name in ("multH", "g", "ginv"):
        rows = data.get(name)
        _require(isinstance(rows, list) and len(rows) == op.n + 1, f"bad {name}")
        for row in rows:
            for entry in row:
                _qpoly(entry)
    for name in ("M", "W"):
        rows = data.get(name)
        _require(isinstance(rows, list) and len(rows) == op.n + 1, f"bad {name}")
        for row in rows:
            for entry in row:
                rational(entry)


def _check_f1(op, out):
    data = _json(out)
    _qpoly(data.get("constant"))
    for name in ("tau_jet", "t_jet"):
        jet = data.get(name)
        _require(isinstance(jet, dict) and jet.get("terms"), f"empty {name}")
        _series_terms(jet["terms"])


def _check_f2(op, out):
    data = _json(out)
    _roots(data.get("roots") or [], op)
    grads = data.get("gradients")
    _require(isinstance(grads, list) and len(grads) == len(data["roots"]),
             "one gradient per root expected")
    for grad in grads:
        _qpoly(grad.get("value"))
        for name in ("tau_gradient", "t_gradient"):
            _require(len(grad.get(name) or []) == op.n + 1, f"bad {name}")
            for entry in grad[name]:
                _qpoly(entry)


def _check_f2_tsv(op, out):
    lines = out.decode().split("\n")
    _require(len(lines) == 3 and lines[0] == "roots" and lines[2] == "",
             "expected a header line and one row")
    _roots(lines[1].split("\t"), op)


def _check_higherk(op, out):
    if op.expect["rc"] == 2:
        _require(out == b"", "unsupported descriptor printed output")
        return
    data = _json(out)
    records = data.get("records")
    _require(isinstance(records, list) and records, "no records")
    for rec in records:
        rational(rec.get("coefficient"))
        _require(isinstance(rec.get("order"), int), "record without order")


def _check_genus1(op, out):
    data = _json(out)
    _require(data.get("n") == op.n, "n does not echo the input")
    for name in ("hn11", "h10", "psi11"):
        rational(data.get(name))
    _require(rational(data.get("f2")) == 1, f"genus-one f2 = {data.get('f2')}")


def _check_fano_lines(op, out):
    data = _json(out)
    _require(data.get("n") == op.n, "n does not echo the input")
    checks = data.get("checks") or {}
    norm = checks.get("normalization") or {}
    _require(norm.get("ok") is True
             and rational(norm.get("value")) == rational(norm.get("expected")),
             "normalization identity fails")
    quartic = checks.get("quartic") or {}
    value = rational(quartic.get("value"))
    _require(quartic.get("ok") is True
             and value == rational(quartic.get("closed_form"))
             == rational(quartic.get("euler_value")),
             "quartic identity fails")
    if "quartic" in op.expect:
        _require(value == op.expect["quartic"],
                 f"quartic = {value}, expected {op.expect['quartic']}")
    _require(rational(checks.get("f2_at_zero")) == 1, "lines-variety f2 != 1")
    if op.expect.get("all"):
        prim = checks.get("primitive_square_class") or {}
        _require(prim.get("matches_closed_form") is True, "z-class mismatch")
        for z in prim.get("z") or [None]:
            rational(z)
        _require(isinstance(checks.get("rank_estimates"), dict),
                 "missing rank estimates")


def _check_residual(op, out):
    data = _json(out)
    mixed, pure, ambient = data.get("eq_mixed"), data.get("eq_pure"), data.get("ambient")
    _require(isinstance(mixed, dict) and mixed and isinstance(pure, list)
             and isinstance(ambient, dict), "residual report is incomplete")
    reduced = [t for terms in mixed.values() for t in terms] + pure
    _series_terms(reduced)
    for terms in ambient.values():
        _series_terms(terms)
    low = _low_terms(reduced)
    if op.expect.get("tampered"):
        _require(low > 0, "tampered potential shows no low-degree residual")
        return
    _require(low == 0, f"{low} residual terms of degree <= 1 in the s^0 slice")
    low_ambient = sum(_low_terms(t, s_slot=False) for t in ambient.values())
    _require(low_ambient == 0, f"{low_ambient} ambient residual terms of degree <= 1")


CHECKS = {
    "verify": _check_verify, "info": _check_info, "smallqh": _check_smallqh,
    "f1": _check_f1, "f2": _check_f2, "f2-tsv": _check_f2_tsv,
    "higherk": _check_higherk, "genus1": _check_genus1,
    "fano-lines": _check_fano_lines, "residual": _check_residual,
}


def check(op, rc: int, out: bytes, err: bytes) -> None:
    _require(b"Traceback" not in err, "traceback on stderr")
    _require(rc == op.expect["rc"], f"exit code {rc}, expected {op.expect['rc']}")
    if rc == 2:
        _require(b"domain error" in err, "exit 2 without a domain error message")
    CHECKS[op.kind](op, out)


# --- self-test ---------------------------------------------------------------


def _edit_json(out, edit):
    data = json.loads(out)
    edit(data)
    return json.dumps(data, indent=2).encode() + b"\n"


def _set(path, value):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _low_term(n):
    return {"monomial": [0] * (n + 2), "coefficient": [[1, "1"]]}


def _strip_low(data):
    for key, terms in data["eq_mixed"].items():
        data["eq_mixed"][key] = [t for t in terms if not _low_terms([t])]
    data["eq_pure"] = [t for t in data["eq_pure"] if not _low_terms([t])]


def mutations(op, rc, out, err):
    """Wrong variants of an accepted (rc, out, err); each must be rejected."""
    wrong = [("traceback", rc, out, err + b"Traceback (most recent call last):\n"),
             ("exit code", 3 if rc != 3 else 0, out, err)]
    kind = op.kind
    if kind == "verify":
        wrong.append(("FAIL line", rc, out.replace(b"PASS", b"FAIL", 1), err))
        wrong.append(("missing line", rc, b"".join(out.splitlines(True)[:-1]), err))
    elif kind == "f2-tsv":
        wrong.append(("roots 0 5", rc, b"roots\n0\t5\n", err) if "roots" in op.expect
                     else ("decimal root", rc, b"roots\n1.5\n", err))
    elif kind == "higherk" and rc == 2:
        wrong.append(("records", rc, b'{"records": []}\n', err))
    elif kind == "higherk":
        wrong.append(("bad coefficient", rc,
                      _edit_json(out, _set(["records", 0, "coefficient"], "1/0")), err))
    else:
        wrong.append(("not JSON", rc, out[: len(out) // 2], err))
        edits = {
            "info": [("wrong n", _set(["n"], op.n + 1))],
            "smallqh": [("c of 1", _set(["c"], "1"))] if "c" in op.expect
            else [("decimal c", _set(["c"], "0.5"))],
            "f1": [("bad coefficient", _set(["constant"], [[0, "x"]]))],
            "f2": [("roots 0 5", _set(["roots"], ["0", "5"]))] if "roots" in op.expect
            else [("no gradients", _set(["gradients"], []))],
            "genus1": [("f2 of 2", _set(["f2"], "2"))],
            "fano-lines": [("quartic off", _set(["checks", "quartic", "value"], "81")),
                           ("lines f2", _set(["checks", "f2_at_zero"], "0"))],
            "residual": [("residuals removed", _strip_low)] if op.expect.get("tampered")
            else [("low-degree term", lambda d: d["eq_pure"].append(_low_term(op.n)))],
        }[kind]
        for label, edit in edits:
            wrong.append((label, rc, _edit_json(out, edit), err))
    return wrong


def self_test(samples):
    """Feed every validator the mutations of one accepted output per op
    kind; return the mutations that were wrongly accepted."""
    accepted = []
    for op, rc, out, err in samples:
        for label, mrc, mout, merr in mutations(op, rc, out, err):
            try:
                check(op, mrc, mout, merr)
            except Invalid:
                continue
            accepted.append(f"{op.label}: {label}")
    return accepted
