import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import analysis as an
from hofa import mforms as mf
from hofa import rank as rk
from hofa import serialize as sz
from hofa.cyclotomic import ring
from hofa.fpspace import random_subspace
from hofa.ncpoly import random_poly


def test_poly_round_trip():
    rng = random.Random(0)
    for t in range(25):
        p, n = rng.choice([(2, 2), (3, 2), (2, 3)])
        P = random_poly(p, n, rng.choice([1, 2, 3]), True, seed=t)
        assert sz.load_poly(sz.dump_poly(P)) == P


def test_form_round_trip():
    rng = random.Random(1)
    for t in range(25):
        p, n, k = rng.choice([(2, 2, 3), (3, 2, 2), (2, 3, 3)])
        T = mf.random_form(rng, p, n, k)
        assert sz.load_form(sz.dump_form(T)) == T


def test_multiaffine_round_trip():
    rng = random.Random(2)
    for t in range(10):
        p, n = rng.choice([(2, 2), (3, 2)])
        comps = {
            (0, 1, 2): mf.random_form(rng, p, n, 3),
            (0, 2): mf.random_form(rng, p, n, 2),
            (1,): mf.random_form(rng, p, n, 1),
            (): rng.randrange(p),
        }
        phi = mf.MultiaffineForm.make(p, n, 3, comps)
        assert sz.load_form(sz.dump_multiaffine(phi)) == phi


def test_function_round_trip():
    rng = random.Random(3)
    for t in range(10):
        p, n = rng.choice([(2, 2), (3, 2)])
        f = an.random_unimodular_exact(rng, p, n, rng.choice([1, 2]))
        g = sz.load_function(sz.dump_function(f))
        assert np.array_equal(g.coeffs, f.coeffs)
        assert g.den == f.den and g.ring.N == f.ring.N


def test_float_function_header_is_a_format_error():
    with pytest.raises(sz.FormatError, match="'p n exact m=<m> den=<den>'"):
        sz.load_function("2 1 float\n0.5 0.5\n-1.0 0.0\n")


def test_p5_function_just_past_modulus_one_is_rejected():
    # (D - 832040 + 1346269 (zeta + zeta^4)) / D with zeta + zeta^4 = 1/phi: modulus 1 + 8e-26
    rows = ["3999999999997821691 0 -1346269 -1346269"] + ["0 0 0 0"] * 4
    with pytest.raises(sz.FormatError, match="sup-norm"):
        sz.load_function("\n".join(["5 1 exact m=1 den=4000000000000000000"] + rows))
    rows[0] = "3999999999997821690 0 -1346269 -1346269"
    f = sz.load_function("\n".join(["5 1 exact m=1 den=4000000000000000000"] + rows))
    assert sz.load_function(sz.dump_function(f)) == f


def test_certificate_round_trip():
    T = mf.MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1, (1, 1, 1): 1})
    cert = rk.prank_certificate_search(T)
    c2 = sz.load_certificate(sz.dump_certificate(cert), T)
    assert len(c2) == len(cert)
    assert rk.verify_certificate(c2).ok


def test_subspace_round_trip():
    rng = random.Random(4)
    for _ in range(10):
        U = random_subspace(rng, 3, 4)
        assert sz.load_subspace(sz.dump_subspace(U)) == U


def test_witness_bundle_round_trip():
    rng = random.Random(5)
    T = mf.random_form(rng, 2, 2, 3)
    bs = tuple(an.random_mu_p_function(rng, 2, 2) for _ in range(7))
    form, loaded = sz.load_witness_bundle(sz.dump_witness_bundle(T, bs))
    assert form == T
    for a, b in zip(bs, loaded):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_dump_is_deterministic():
    rng = random.Random(6)
    T = mf.random_form(rng, 3, 2, 3)
    assert sz.dump_form(T) == sz.dump_form(mf.MultilinearForm(3, 2, 3, T.coeffs.copy()))


def test_format_errors():
    with pytest.raises(sz.FormatError):
        sz.load_poly("2 2 1\nnope 1/2^1\n")
    with pytest.raises(sz.FormatError):
        sz.load_witness_bundle("[b1]\n2 1 exact m=1 den=1\n1\n1\n")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 1\n",
        "2 1 exakt\n1\n1\n",
        "x 1 exact\n1\n1\n",
        "4 1 exact m=1\n1\n1\n",
        "2 1 exact m=1 q=2\n1\n1\n",
        "2 1 exact m den=1\n1\n1\n",
        "2 1 exact m=1\n",
        "2 2 exact m=1\n1\n1\n",
        "2 1 exact m=1\n1\n1 0\n",
        "2 1 exact m=2\n1\n1\n",
        "2 1 exact m=1\n1\nz\n",
        "2 1 exact m=1\n1\n1.0\n",
        "2 1 exact m=1\n99999999999\n1\n",
        "2 1 float\n1 0\n0.5\n",
        "2 1 float\n1 0\nnope 0\n",
        "2 1 exact m=1 den=0\n1\n1\n",
        "2 1 exact m=1 den=-2\n1\n1\n",
        "2 1 exact m=1 den=1\n2\n1\n",
        "2 1 exact m=3 den=2\n1 2 0 0\n0 0 0 0\n",
        "2 1 exact m=4 den=1\n0 1 0 0 0 0 0 0\n0 2 0 0 0 0 0 0\n",
        "2 1 float\n0.8 0.8\n0 0\n",
        "2 1 float\nnan 0\n0 0\n",
    ],
)
def test_load_function_rejects_malformed_and_unbounded(text):
    with pytest.raises(sz.FormatError):
        sz.load_function(text)


@pytest.mark.parametrize(
    "text, match", [("2 1 exact m=1\n99999999999\n1\n", "sup-norm"), (f"2 1 exact m=1\n{2**63}\n1\n", "int64")]
)
def test_load_function_coefficient_errors(text, match):
    with pytest.raises(sz.FormatError, match=match):
        sz.load_function(text)


def test_large_denominator_function_round_trips():
    # den = 4 * 10^9: products of two values pass int64, so the table is kept on Python integers
    den = 4 * 10**9
    c = np.array([[7 * den // 10, 7 * den // 10], [-7 * den // 10, 0]]).T
    f = an.BoundedFunction(2, 1, ring(2, 2), c, den)
    assert f.check_bounded()
    g = sz.load_function(sz.dump_function(f))
    assert g == f and g.coeffs.dtype == object and np.array_equal(g.coeffs, f.coeffs)


@st.composite
def _function_texts(draw):
    """Function files near the valid format, with mistakes in every field."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4 if p == 2 else 1))
    m = draw(st.integers(0, 2))
    mode = draw(st.sampled_from(["exact", "float", "exakt"]))
    fields = [str(p), str(n), mode]
    if mode != "float":
        options = [f"m={m}", "den=1", "den=2", "den=0", "den=-1", "q=1", "m"]
        fields += draw(st.lists(st.sampled_from(options), max_size=2))
    off = draw(st.sampled_from([0, 0, 0, 1, -1]))
    width = 2 if mode == "float" else (1 if m == 0 else p ** (m - 1) * (p - 1))
    values = ["0.5", "-0.5", "0.8", "nan", "inf"] if mode == "float" else ["2", "-2"]
    token = st.sampled_from(["0", "1", "-1", "0", "1", "-1", "x"] + values)
    rows = draw(
        st.lists(
            st.lists(token, min_size=max(0, width + off), max_size=max(0, width + off)).map(" ".join),
            min_size=p**n,
            max_size=p**n,
        )
    )
    return "\n".join([" ".join(fields)] + rows[: len(rows) + draw(st.sampled_from([0, 0, 0, -1]))])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _function_texts()))
def test_load_function_fuzz(text):
    """Any text loads (and then round-trips) or raises FormatError; no float table loads."""
    try:
        f = sz.load_function(text)
    except sz.FormatError:
        return
    assert text.split()[2] == "exact"
    g = sz.load_function(sz.dump_function(f))
    assert np.array_equal(g.coeffs, f.coeffs) and g.den == f.den


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2\n",
        "2 2 3 affin\n",
        "2 2 3 affine extra\n",
        "4 2 3\n",
        "2 -1 3\n",
        "2 2 x\n",
        "2 2 -1\n",
        "2 2 5 affine\n",
        "2 2 25\n",
        "2 5000 3\n",
        "2 2 3\n8 1 1 1 : 1\n",
        "2 2 3\n7 1 1 : 1\n",
        "2 2 3\n7 1 1 3 : 1\n",
        "2 2 3\n7 0 1 1 : 1\n",
        "2 2 3\n7 1 1 1 1\n",
        "2 2 3\n7 1 1 1 : x\n",
        "2 2 3\n3 1 1 : 1\n",
        "2 2 3\n: 1\n",
        "2 2 3 affine\n0 1 : 1\n",
    ],
)
def test_load_form_rejects_malformed(text):
    with pytest.raises(sz.FormatError):
        sz.load_form(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2 1\n",
        "2 2\nconst 0/2^0\n",
        "4 2 1\nconst 0/4^0\n",
        "2 -1 1\nconst 0/2^0\n",
        "2 2 x\nconst 0/2^0\n",
        "2 2 1\nconst 1/3^1\n",
        "2 2 1\nconst 1/2\n",
        "2 2 1\nconst 1/2^x\n",
        "2 2 1\nconst 1/2^99999999\n",
        "2 2 1\nconst 1/2^-1\n",
        "2 2 1\nconst 0/2^0 extra\n",
        "2 2 1\nconst 0/2^0\n1 0 0\n",
        "2 2 1\nconst 0/2^0\n1 0 -1 1\n",
        "2 2 1\nconst 0/2^0\n2 0 0 1\n",
        "2 2 1\nconst 0/2^0\n1 0 0 3\n",
        "2 2 1\nconst 0/2^0\n0 0 0 1\n",
        "2 2 1\nconst 0/2^0\n1 0 9 1\n",
        "2 2 1\nconst 0/2^0\n1 0 0 1\n1 0 0 1\n",
        "2 2 1\nconst 0/2^0\n1 x 0 1\n",
    ],
)
def test_load_poly_rejects_malformed(text):
    with pytest.raises(sz.FormatError):
        sz.load_poly(text)


_TOKENS = ["0", "1", "2", "3", "4", "7", "8", "-1", "x"]


@st.composite
def _form_texts(draw):
    """Form files near the valid format, with mistakes in every field."""
    head = [draw(st.sampled_from(["2", "3", "4"])), str(draw(st.integers(-1, 3))), str(draw(st.integers(-1, 5)))]
    head += draw(st.sampled_from([[], ["affine"], ["affin"]]))
    line = st.builds(
        lambda toks, sep, val: " ".join(toks) + sep + val,
        st.lists(st.sampled_from(_TOKENS), max_size=5),
        st.sampled_from([" : ", " : ", " "]),
        st.sampled_from(["0", "1", "2", "-1", "x"]),
    )
    return "\n".join([" ".join(head)] + draw(st.lists(line, max_size=4)))


@st.composite
def _poly_texts(draw):
    """Polynomial files near the valid format, with mistakes in every field."""
    p = draw(st.sampled_from([2, 3, 4]))
    head = f"{p} {draw(st.integers(-1, 3))} {draw(st.sampled_from(['1', '3', 'x']))}"
    const = draw(
        st.sampled_from(["const 0/{p}^0", "const 1/{p}^1", "const 5/{p}^2", "const 1/{p}^9", "const 1/3^1",
                         "const 1/{p}", "nope 1/{p}^1", "const 1/{p}^-1"])
    ).format(p=p)
    monos = draw(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=3))
    return "\n".join([head, const] + monos)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _form_texts()))
def test_load_form_fuzz(text):
    """Any text loads (and then round-trips) or raises FormatError."""
    try:
        T = sz.load_form(text)
    except sz.FormatError:
        return
    dump = sz.dump_multiaffine if isinstance(T, mf.MultiaffineForm) else sz.dump_form
    assert sz.load_form(dump(T)) == T


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _poly_texts()))
def test_load_poly_fuzz(text):
    """Any text loads (and then round-trips) or raises FormatError."""
    try:
        P = sz.load_poly(text)
    except sz.FormatError:
        return
    assert sz.load_poly(sz.dump_poly(P)) == P


@pytest.mark.parametrize(
    "text",
    ["", "p=2\n", "p=2 n=x\n", "p=4 n=2\n", "p=2 n=-1\n", "p=2 n=2 q=1\n", "q=2 n=2\n", "p2 n2\n",
     "p=2 n=2\n1 2\n", "p=2 n=2\n1\n", "p=2 n=2\n1 0 1\n", "p=3 n=2\n-1 0\n", "p=2 n=2\n1 x\n", "p=2 n=5000\n"],
)
def test_load_subspace_rejects_malformed(text):
    with pytest.raises(sz.FormatError):
        sz.load_subspace(text)


def _claimed_form():
    return mf.MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1, (1, 1, 1): 1})


@pytest.mark.parametrize(
    "text",
    ["", "2 2 3\n", "2 2 3 cert\n", "2 2 3 cart 0\n", "2 2 3 cert x\n", "3 2 3 cert 0\n", "2 3 3 cert 0\n",
     "2 2 2 cert 0\n", "4 2 3 cert 0\n", "2 2 3 cert 1\nQ\n", "2 2 3 cert 1\nL 1 : 1\n", "2 2 3 cert 1\nterm\n",
     "2 2 3 cert 1\nterm x\n", "2 2 3 cert 1\nterm 0\n", "2 2 3 cert 1\nterm 7\n", "2 2 3 cert 1\nterm 1 2\n",
     "2 2 3 cert 2\nterm 1\n", "2 2 3 cert 1\nterm 1\nL 1 1 : 1\n", "2 2 3 cert 1\nterm 1\nR 1 : 1\n",
     "2 2 3 cert 1\nterm 1\nL 3 : 1\n", "2 2 3 cert 1\nterm 1\nL 1 1\n", "2 2 3 cert 1\nterm 1\nL 1 : x\n",
     "2 2 3 cert 1\nterm 1\nX 1 : 1\n"],
)
def test_load_certificate_rejects_malformed(text):
    with pytest.raises(sz.FormatError):
        sz.load_certificate(text, _claimed_form())


@st.composite
def _vector_texts(draw):
    """Vector files near the valid format, with mistakes in every field."""
    p, n = draw(st.sampled_from(["2", "3", "4", "x"])), draw(st.sampled_from(["0", "1", "2", "3", "-1"]))
    head = draw(st.sampled_from([f"p={p} n={n}", f"p={p}", f"n={n} p={p}", f"p={p} n={n} q=1"]))
    rows = st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x"]), max_size=4).map(" ".join)
    return "\n".join([head] + draw(st.lists(rows, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _vector_texts()))
def test_load_subspace_fuzz(text):
    """Any text loads (and then round-trips) or raises FormatError."""
    try:
        p, n, vecs = sz.load_vectors(text)
        U = sz.load_subspace(text)
    except sz.FormatError:
        return
    assert sz.load_vectors(sz.dump_vectors(p, n, vecs)) == (p, n, vecs)
    assert sz.load_subspace(sz.dump_subspace(U)) == U


@st.composite
def _certificate_texts(draw):
    """Certificate files for the claimed F_2^2 trilinear form, with mistakes in every field."""
    head = draw(st.sampled_from(["2 2 3 cert {c}", "2 2 3 cert", "2 2 3 cart {c}", "3 2 3 cert {c}", "2 2 3 cert x"]))
    entry = st.builds(
        lambda tag, idx, sep, val: " ".join([tag, *idx]) + sep + val,
        st.sampled_from(["L", "R", "X"]),
        st.lists(st.sampled_from(["1", "2", "3", "0", "x"]), max_size=3),
        st.sampled_from([" : ", " : ", " "]),
        st.sampled_from(["0", "1", "3", "-1", "x"]),
    )
    term = st.sampled_from(["term 1", "term 2", "term 4", "term 6", "term 0", "term 7", "term x", "term"])
    body = draw(st.lists(st.one_of(term, entry), max_size=6))
    count = sum(ln.startswith("term") for ln in body) + draw(st.sampled_from([0, 0, 0, 1]))
    return "\n".join([head.format(c=count)] + body)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), _certificate_texts()))
def test_load_certificate_fuzz(text):
    """Any text loads (and then round-trips) or raises FormatError."""
    T = _claimed_form()
    try:
        cert = sz.load_certificate(text, T)
    except sz.FormatError:
        return
    assert sz.load_certificate(sz.dump_certificate(cert), T) == cert
