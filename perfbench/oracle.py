"""Independent checks of every benchmark output.

The counts are the paper's (arXiv:1606.04387), written out here rather
than read from ``minsos.expected_counts``, and the residuals are recomputed
with numpy from the returned forms, not taken from the package's own
verifiers.  Each check raises CheckFailed with the reason.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_REL = 1e-8  # residual bound, relative to max(1, largest coefficient)
DISTINCT_REL = 1e-6  # two-squares classes must differ by more than this


class CheckFailed(Exception):
    pass


def scroll_counts(genus):
    """4^g complex and 2^g psd rank-3 Gram matrices; 2^g indefinite for odd g."""
    psd = 2**genus
    indefinite = psd if genus % 2 == 1 else 0
    return {"complex": 4**genus, "real": psd + indefinite, "psd": psd, "indefinite": indefinite}


def cone_counts(d):
    """Balanced factor pairs of the 2d roots of the reduced binary form.

    All unordered pairs: binom(2d, d)/2.  Conjugate pairs (psd): 2^(d-1).
    Pairs of real factors (indefinite): binom(d, d/2)/2 for even d, else 0.
    """
    psd = 2 ** (d - 1)
    indefinite = math.comb(d, d // 2) // 2 if d % 2 == 0 else 0
    return {
        "complex": math.comb(2 * d, d) // 2,
        "real": psd + indefinite,
        "psd": psd,
        "indefinite": indefinite,
    }


def two_squares_count(d):
    """Inequivalent f = p^2 + q^2 for d simple conjugate root pairs."""
    return 2 ** (d - 1)


def _tol(coeffs):
    return RESIDUAL_REL * max(1.0, max((abs(float(c)) for c in coeffs), default=0.0))


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_counts(got, want):
    for key, value in want.items():
        _require(got.get(key) == value, "%s count %r, expected %d" % (key, got.get(key), value))


def form_coefficients(form):
    """Exponent tuple -> float coefficient of a Biform or TermPoly."""
    return {expo: complex(c).real for expo, c in form.terms.items()}


def sos_residual(form, rep):
    """max |coefficient of sum sign_i l_i^2 - f| over the representation basis."""
    monos = np.array(rep.basis.monomials)
    vecs = np.array([[float(c) for c in v] for v in rep.vectors])
    G = (vecs.T * np.array(rep.signs, dtype=float)) @ vecs
    got = {}
    n = len(monos)
    for a in range(n):
        for b in range(n):
            key = tuple(int(e) for e in monos[a] + monos[b])
            got[key] = got.get(key, 0.0) + G[a, b]
    want = form_coefficients(form)
    keys = set(got) | set(want)
    return max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)


def check_certificate(form, rep, psd):
    """A rank-3 signed sum of squares of form; all signs + when psd."""
    resid = sos_residual(form, rep)
    tol = _tol(form_coefficients(form).values())
    _require(resid <= tol, "certificate residual %.3e > %.3e" % (resid, tol))
    _require(len(rep.vectors) == 3, "certificate has %d squares, not 3" % len(rep.vectors))
    vecs = np.array([[float(c) for c in v] for v in rep.vectors])
    _require(np.linalg.matrix_rank(vecs, tol=1e-8 * np.abs(vecs).max()) == 3, "squares are dependent")
    if psd:
        _require(all(s == 1 for s in rep.signs), "psd certificate with a negative square")
    else:
        _require(set(rep.signs) == {1, -1}, "indefinite certificate with one-signed squares")


def check_enumeration(form, report, want):
    """Counts against the table; every real point carries a verifying certificate."""
    check_counts(report.counts, want)
    psd = [e for e in report.entries if e["psd"]]
    _require(len(psd) == want["psd"], "%d psd entries, expected %d" % (len(psd), want["psd"]))
    for entry in report.entries:
        rep = entry.get("representation")
        if entry["psd"]:
            _require(rep is not None, "psd entry without a certificate")
        if rep is not None:
            check_certificate(form, rep, entry["psd"])


def _coeffs(form):
    return np.array([complex(c).real for c in form.coeffs])


def check_two_squares(f, reps, d):
    """2^(d-1) pairwise distinct classes, each with p^2 + q^2 = f."""
    want = two_squares_count(d)
    _require(len(reps) == want, "%d two-squares classes, expected %d" % (len(reps), want))
    fc = _coeffs(f)
    tol = _tol(fc)
    grams = []
    for rep in reps:
        p, q = (np.array([float(c) for c in v]) for v in rep.vectors)
        resid = float(np.max(np.abs(np.convolve(p, p) + np.convolve(q, q) - fc)))
        _require(resid <= tol, "two-squares residual %.3e > %.3e" % (resid, tol))
        grams.append((np.outer(p, p) + np.outer(q, q)).ravel())
    # pairwise distances through |a - b|^2 = |a|^2 + |b|^2 - 2 a.b
    grams = np.array(grams)
    sq = np.einsum("ij,ij->i", grams, grams)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * grams @ grams.T
    np.fill_diagonal(dist2, np.inf)
    scale = float(np.sqrt(sq.max()))
    _require(float(np.sqrt(max(dist2.min(), 0.0))) > DISTINCT_REL * scale,
             "two classes share a Gram matrix")


def check_factor(A, result):
    """B B^T = A coefficientwise with exactly n+1 columns of full rank."""
    n = A.n
    _require(result.rank == n + 1 and len(result.columns) == n + 1,
             "rank %d with %d columns, expected %d" % (result.rank, len(result.columns), n + 1))
    entries = [[_coeffs(A.entries[i][j]) for j in range(n)] for i in range(n)]
    tol = _tol(np.concatenate([e for row in entries for e in row]))
    cols = [[_coeffs(form) for form in col] for col in result.columns]
    for i in range(n):
        for j in range(i, n):
            got = sum(np.convolve(col[i], col[j]) for col in cols)
            want = entries[i][j]
            if len(want) != len(got):  # a zero entry may carry another degree
                _require(not np.any(want), "degree mismatch at (%d, %d)" % (i, j))
                want = np.zeros_like(got)
            resid = float(np.max(np.abs(got - want)))
            _require(resid <= tol, "factor residual %.3e > %.3e at (%d, %d)" % (resid, tol, i, j))
    B = np.array([np.concatenate(col) for col in cols])
    _require(np.linalg.matrix_rank(B) == n + 1, "factor columns are dependent")
