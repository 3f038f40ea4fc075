"""Text file formats for vectors, polynomials, forms, functions and
certificates.

All writers emit canonical, deterministically ordered text so that equal
objects always serialize to identical bytes.

  vectors      header ``p=<p> n=<n>``, one vector per line of digits
  polynomial   header ``p n k``, ``const <num>/<p^m>``, monomial lines
               ``i_1 ... i_n j c``
  form         header ``p n k`` (plus ``affine``), lines
               ``<subset-mask> j_1 ... j_|I| : c`` with 1-based indices and
               bit (i-1) of the mask set iff slot i is in the subset
  function     header ``p n exact m=<m> den=<den>``; one line per point:
               its phi(p^m) coefficients over Z[zeta_{p^m}]
  certificate  header ``p n k cert <terms>``; per term a ``term <mask>``
               line followed by ``L``-prefixed and ``R``-prefixed factor
               entries in the form line syntax
"""
from __future__ import annotations

import numpy as np

from .analysis import BoundedFunction
from .cyclotomic import ring
from .errors import HofaError
from .fpspace import Subspace, check_prime
from .mforms import TENSOR_CAP, MultiaffineForm, MultilinearForm
from .ncpoly import MAX_DEPTH, Monomial, NcPoly
from .rank import CertTerm, RankCertificate
from .torus import TorusValue


class FormatError(HofaError, ValueError):
    pass


def _number(tok: str, parse):
    try:
        return parse(tok)
    except ValueError:
        raise FormatError(f"not a number: {tok!r}") from None


def _space(p_tok: str, n_tok: str) -> tuple:
    """(p, n) from header tokens: a supported prime and a dimension >= 0."""
    p, n = _number(p_tok, int), _number(n_tok, int)
    try:
        check_prime(p)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    if n < 0:
        raise FormatError(f"negative dimension n={n}")
    return p, n


# -- vectors / subspaces --


def dump_vectors(p: int, n: int, vectors) -> str:
    lines = [f"p={p} n={n}"]
    for v in vectors:
        lines.append(" ".join(str(int(a)) for a in v))
    return "\n".join(lines) + "\n"


def load_vectors(text: str):
    """Parse a vectors file into (p, n, vectors); malformed text is a FormatError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = [tok.partition("=") for tok in (lines[0].split() if lines else [])]
    if [(key, eq) for key, eq, _ in head] != [("p", "="), ("n", "=")]:
        raise FormatError("a vectors file starts with the header 'p=<p> n=<n>'")
    p, n = _space(head[0][2], head[1][2])
    vecs = []
    for ln in lines[1:]:
        v = tuple(_number(t, int) for t in ln.split())
        if len(v) != n or not all(0 <= a < p for a in v):
            raise FormatError(f"vector line {ln!r} needs {n} entries in 0..{p - 1}")
        vecs.append(v)
    return p, n, vecs


def dump_subspace(U: Subspace) -> str:
    return dump_vectors(U.p, U.n, U.basis)


def load_subspace(text: str) -> Subspace:
    """Parse a subspace from its spanning vectors; malformed text is a FormatError."""
    p, n, vecs = load_vectors(text)
    # the canonical form holds n x n entries, as a bilinear form does
    if n * n > TENSOR_CAP:
        raise FormatError(f"dimension n={n} is too large for a subspace")
    return Subspace.from_basis(p, n, vecs)


# -- polynomials --


def dump_poly(P: NcPoly) -> str:
    k = P.degree()
    lines = [f"{P.p} {P.n} {k}"]
    lines.append(f"const {P.constant.num}/{P.p}^{P.constant.m}")
    for m in P.monomials:
        lines.append(" ".join(str(e) for e in m.exponents) + f" {m.depth} {m.coeff}")
    return "\n".join(lines) + "\n"


def load_poly(text: str) -> NcPoly:
    """Parse a polynomial file; malformed text is a FormatError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 3 or len(lines) < 2:
        raise FormatError("a polynomial file needs a 'p n k' header and a const line")
    p, n = _space(head[0], head[1])
    _number(head[2], int)
    const_tok = lines[1].split()
    num_s, _, den_s = const_tok[-1].partition("/")
    base_s, caret, m_s = den_s.partition("^")
    if len(const_tok) != 2 or const_tok[0] != "const" or not caret:
        raise FormatError("missing const line 'const <num>/<p>^<m>'")
    if _number(base_s, int) != p:
        raise FormatError("constant denominator is not a power of p")
    m = _number(m_s, int)
    # NcPoly rejects deeper constants too, but only after TorusValue.make has built p**m
    if not 0 <= m <= MAX_DEPTH + 1:
        raise FormatError(f"constant depth exponent {m} is outside 0..{MAX_DEPTH + 1}")
    const = TorusValue.make(p, _number(num_s, int), m)
    monos = []
    for ln in lines[2:]:
        toks = [_number(t, int) for t in ln.split()]
        if len(toks) != n + 2 or toks[n] < 0:
            raise FormatError(f"monomial line {ln!r} needs {n} exponents, a depth >= 0 and a coefficient")
        monos.append(Monomial(tuple(toks[:n]), toks[n], toks[n + 1]))
    if len({(mo.exponents, mo.depth) for mo in monos}) != len(monos):
        raise FormatError("repeated monomial")
    try:
        return NcPoly.make(p, n, const, monos)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# -- forms --


def _mask_of(slots, k: int) -> int:
    return sum(1 << s for s in slots)


def _slots_of(mask: int, k: int):
    return tuple(s for s in range(k) if mask >> s & 1)


def _entry_lines(tag, form) -> list:
    """One '<tag> <1-based indices> : <c>' line per nonzero entry of the form."""
    return [" ".join([str(tag), *(str(j + 1) for j in idx), ":", str(c)]) for idx, c in form.entries()]


def dump_form(T: MultilinearForm) -> str:
    lines = [f"{T.p} {T.n} {T.k}"] + _entry_lines((1 << T.k) - 1, T)
    return "\n".join(lines) + "\n"


def dump_multiaffine(phi: MultiaffineForm) -> str:
    lines = [f"{phi.p} {phi.n} {phi.k} affine"]
    for slots, comp in phi.components:  # the constant, if present, is nonzero
        lines += _entry_lines(_mask_of(slots, phi.k), comp)
    return "\n".join(lines) + "\n"


def _parse_form_lines(lines, p, n, k):
    full = (1 << k) - 1
    comps: dict = {}
    for ln in lines:
        head, colon, val = ln.partition(":")
        toks = [_number(t, int) for t in head.split()]
        if not colon or not toks or not 0 <= toks[0] <= full:
            raise FormatError(f"form line {ln!r} needs '<subset-mask> <indices> : <c>'")
        mask, idx = toks[0], tuple(t - 1 for t in toks[1:])
        if len(idx) != len(_slots_of(mask, k)) or not all(0 <= i < n for i in idx):
            raise FormatError(f"form line {ln!r} needs one index in 1..{n} per slot of its subset")
        store = comps.setdefault(mask, {})
        store[idx] = (store.get(idx, 0) + _number(val.strip(), int)) % p
    return comps


def load_form(text: str) -> MultilinearForm | MultiaffineForm:
    """Parse a form file; malformed text is a FormatError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) not in (3, 4) or head[3:] not in ([], ["affine"]):
        raise FormatError("a form header reads 'p n k' or 'p n k affine'")
    p, n = _space(head[0], head[1])
    k = _number(head[2], int)
    affine = len(head) == 4
    # with n >= 2, k >= 25 already exceeds the tensor cap
    if not 0 <= k <= (4 if affine else 24) or max(n, 2) ** k > TENSOR_CAP:
        raise FormatError(f"arity k={k} is out of range for n={n}")
    comps = _parse_form_lines(lines[1:], p, n, k)
    if not affine:
        entries = comps.get((1 << k) - 1, {})
        if set(comps) - {(1 << k) - 1}:
            raise FormatError("plain form file contains non-full subsets")
        return MultilinearForm.from_entries(p, n, k, entries)
    built = {}
    for mask, entries in comps.items():
        slots = _slots_of(mask, k)
        if not slots:
            built[()] = entries.get((), 0)
        else:
            built[slots] = MultilinearForm.from_entries(p, n, len(slots), entries)
    return MultiaffineForm.make(p, n, k, built)


# -- functions --


def dump_function(f: BoundedFunction) -> str:
    lines = [f"{f.p} {f.n} exact m={f.ring.m} den={f.den}"]
    for col in range(f.size):
        lines.append(" ".join(str(int(v)) for v in f.coeffs[:, col]))
    return "\n".join(lines) + "\n"


def load_function(text: str) -> BoundedFunction:
    """Parse a function file; a malformed or unbounded table is a FormatError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) < 3 or head[2] != "exact":
        raise FormatError("function header must read 'p n exact m=<m> den=<den>'")
    p, n = _space(head[0], head[1])
    rows = [ln.split() for ln in lines[1:]]
    # p >= 2 gives p^n > n, so n < len(rows) is checked before p**n
    if not n < len(rows) or len(rows) != p**n:
        raise FormatError(f"expected p^n rows for p={p}, n={n}, found {len(rows)}")
    opts = {"m": 1, "den": 1}
    for tok in head[3:]:
        key, eq, val = tok.partition("=")
        if key not in opts or not eq:
            raise FormatError(f"bad header option {tok!r}")
        opts[key] = _number(val, int)
    m, den = opts["m"], opts["den"]
    if not 0 < den < 2**63:
        raise FormatError(f"den={den} is not a positive int64")
    table = [[_number(t, int) for t in r] for r in rows]
    width = len(table[0])
    # phi(p^m) >= m, so m <= width is checked before p**(m-1)
    if any(len(r) != width for r in table) or not 0 <= m <= width or width != (
        1 if m == 0 else p ** (m - 1) * (p - 1)
    ):
        raise FormatError(f"every row needs phi({p}^{m}) coefficients")
    if not all(-(2**63) <= c < 2**63 for r in table for c in r):
        raise FormatError("a coefficient is not an int64")
    fn = BoundedFunction(p, n, ring(p, m), np.array(table, dtype=np.int64).T, den)
    if not fn.check_bounded():
        raise FormatError("function exceeds sup-norm 1")
    return fn


# -- certificates --


def dump_certificate(cert: RankCertificate) -> str:
    f = cert.claimed_form
    lines = [f"{f.p} {f.n} {f.k} cert {len(cert.terms)}"]
    for t in cert.terms:
        lines.append(f"term {_mask_of(t.slots, f.k)}")
        for tag, factor in (("L", t.left), ("R", t.right)):
            if factor.k == 0:
                lines.append(f"{tag} : {int(factor.coeffs)}")
                continue
            lines += _entry_lines(tag, factor)
    return "\n".join(lines) + "\n"


def dump_witness_bundle(form, bs) -> str:
    """Witness bundle: a [form] section plus [b1]..[b7] function sections."""
    parts = ["[form]"]
    if isinstance(form, MultiaffineForm):
        parts.append(dump_multiaffine(form).rstrip())
    else:
        parts.append(dump_form(form).rstrip())
    for i, b in enumerate(bs, start=1):
        parts.append(f"[b{i}]")
        parts.append(dump_function(b).rstrip())
    return "\n".join(parts) + "\n"


def load_witness_bundle(text: str):
    sections: dict = {}
    current = None
    for ln in text.splitlines():
        s = ln.strip()
        if s.startswith("[") and s.endswith("]"):
            current = s[1:-1]
            sections[current] = []
        elif current is not None:
            sections[current].append(ln)
    if "form" not in sections:
        raise FormatError("witness bundle is missing the [form] section")
    form = load_form("\n".join(sections["form"]))
    bs = []
    for i in range(1, 8):
        key = f"b{i}"
        if key not in sections:
            raise FormatError(f"witness bundle is missing [{key}]")
        bs.append(load_function("\n".join(sections[key])))
    return form, tuple(bs)


def load_certificate(text: str, claimed: MultilinearForm) -> RankCertificate:
    """Parse a certificate for ``claimed``; malformed text is a FormatError."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[3] != "cert":
        raise FormatError("a certificate header reads 'p n k cert <terms>'")
    p, n = _space(head[0], head[1])
    k, count = _number(head[2], int), _number(head[4], int)
    if (p, n, k) != (claimed.p, claimed.n, claimed.k):
        raise FormatError("certificate header does not match the claimed form")
    # one [mask, L lines, R lines] per term
    blocks = []
    for ln in lines[1:]:
        tag, _, rest = ln.strip().partition(" ")
        if tag == "term":
            mask = _number(rest, int)
            if not 0 < mask < (1 << k) - 1:
                raise FormatError(f"term line {ln!r} needs a proper nonempty subset mask")
            blocks.append([mask, [], []])
        elif tag in ("L", "R") and blocks:
            blocks[-1][1 if tag == "L" else 2].append(rest)
        else:
            raise FormatError(f"certificate line {ln!r} is not a term or a factor entry after one")
    if len(blocks) != count:
        raise FormatError(f"header announces {count} terms, found {len(blocks)}")
    terms = []
    for mask, left, right in blocks:
        slots = _slots_of(mask, k)
        factors = []
        for arity, rows in ((len(slots), left), (k - len(slots), right)):
            full = (1 << arity) - 1
            entries = _parse_form_lines([f"{full} {r}" for r in rows], p, n, arity).get(full, {})
            factors.append(MultilinearForm.from_entries(p, n, arity, entries))
        terms.append(CertTerm(slots, *factors))
    return RankCertificate(claimed, tuple(terms))
