"""Exact in-place character transforms over F_p^n, and the scratch arrays of
one column-kernel call.

A transform runs over axis 1 of a (planes, p^n, columns) array of
Z[zeta_{p^m}] coefficient planes: a Walsh-Hadamard butterfly for p = 2, a
radix-3 butterfly on the coefficient planes for p = 3, and a radix-p
butterfly on them for p >= 5, where multiplying by omega = zeta^{p^{m-1}}
shifts blocks of planes.  Their temporaries, like every large array of an
exact U^k call in ``analysis``, come from one ``_scratch`` per call.
"""
from __future__ import annotations

import math

import numpy as np

from .cyclotomic import CycloRing
from .errors import InternalCheckError, PreconditionError


# scratch names whose arrays are never live at the same time, so they share
# one array's bytes: the column source's index sums die once its planes are
# built, the transform's temporaries when it returns, the Gram fold's
# conjugates once |tau|^2 is formed, the squares' first products once the
# squares are, and ``_pair_sums``' float blocks within its call
_SHARED_SCRATCH = {name: "shared" for name in ("index", "transform", "gram conj", "square terms", "float block")}


def _scratch():
    """``buffer(name, shape, dtype)`` for one column-kernel call: the named
    scratch array of that shape and dtype, a view of bytes that are
    reallocated only when a request needs more than they hold, so a chunk
    loop allocates no large array.  It is overwritten by the next request
    of its name; the column sources, the sum and the transform use distinct
    names, and the names of ``_SHARED_SCRATCH`` one set of bytes.  A request
    on another dtype reuses the bytes too; a request on object dtype, whose
    arrays have no bytes to lend, replaces them by an object array, and the
    next one on a numeric dtype replaces that.  Views are kept by shape and
    dtype, so a repeated request costs three lookups."""
    arrays, views = {}, {}  # views: slot -> (shape, dtype) -> array

    def buffer(name, shape, dtype):
        slot = _SHARED_SCRATCH.get(name, name)
        kept = views.get(slot)
        if kept is None:
            kept = views[slot] = {}
        out = kept.get((shape, dtype))
        if out is None:
            dt = np.dtype(dtype)
            count = math.prod(shape) * (1 if dt.hasobject else dt.itemsize)
            have = arrays.get(slot)
            if have is None or have.dtype.hasobject != dt.hasobject or have.size < count:
                kept.clear()  # no longer kept: freed once its last view is dropped
                arrays[slot] = have = None
                arrays[slot] = have = np.empty(count, dtype=object if dt.hasobject else np.uint8)
            out = kept[shape, dtype] = have[:count].reshape(shape) if dt.hasobject else np.ndarray(shape, dt, have)
        return out

    return buffer


def _coordinate_weight(terms) -> int:
    """The largest sum of |c| over the terms (j, k, ((m, c), ...)) that add c
    z_j z_k to one coordinate m: with every |z_j| <= B, each product and
    each partial sum of a coordinate stays within B^2 times it."""
    weight = {}
    for _, _, coords in terms:
        for m, c in coords:
            weight[m] = weight.get(m, 0) + abs(c)
    return max(weight.values())


def _wht_inplace(a: np.ndarray, buffer=None) -> np.ndarray:
    """Walsh-Hadamard transform over axis 1 of a (planes, 2^n, columns) array.

    The transform axis is outermost within a plane, so every butterfly
    runs over contiguous blocks of at least one row of columns.  The
    differences go through one array of ``buffer`` (``_scratch``).  Every
    array a stage writes, the differences too, holds transforms over 2^stage
    points, within 2^stage times the input's largest embedding, so no entry
    passes the bound the callers check for the output.
    """
    planes, size, cols = a.shape
    tmp = (buffer or _scratch())("transform", (a.size // 2,), a.dtype)
    h = 1
    while h < size:
        v = a.reshape(planes, size // (2 * h), 2, h * cols)
        x0 = v[:, :, 0]
        x1 = v[:, :, 1]
        diff = np.subtract(x0, x1, out=tmp.reshape(x0.shape))
        x0 += x1
        x1[...] = diff
        h *= 2
    return a


def _radix3_inplace(a: np.ndarray, sign: int, buffer=None) -> np.ndarray:
    """Character transform sum_x a(x) omega^{sign <chi, x>} over axis 1 of a
    (planes, 3^n, columns) array of Z[zeta_{3^m}] coefficient planes, m >= 1.

    With e = 3^{m-1} and z = A + zeta^e B (A, B the low and high halves of
    the planes), omega = zeta^e acts as omega z = -B + zeta^e (A - B).  Each
    butterfly maps (x0, x1, x2) to x0 + x1 + x2, t + w and t - (v + w), with
    v = x1 - x2, t = x0 - x2 and w = omega v; these are x0 + omega^{+-1} x1 +
    omega^{-+1} x2.  Every intermediate is a ring element no larger in any
    embedding than a stage output, which bounds its coefficients.  v, t and
    w go to one array of ``buffer`` (``_scratch``), w holding t + w once v
    has taken it.
    """
    planes, size, cols = a.shape
    e = planes // 2
    tmp = (buffer or _scratch())("transform", (3, a.size // 3), a.dtype)
    h = 1
    while h < size:
        v3 = a.reshape(planes, size // (3 * h), 3, h * cols)
        x0, x1, x2 = v3[:, :, 0], v3[:, :, 1], v3[:, :, 2]
        v, t, w = tmp.reshape((3,) + x0.shape)
        np.subtract(x1, x2, out=v)
        np.subtract(x0, x2, out=t)
        np.negative(v[e:], out=w[:e])
        np.subtract(v[:e], v[e:], out=w[e:])
        x0 += x1
        x0 += x2
        v += w
        w += t  # x0 + omega x1 + omega^2 x2
        t -= v  # x0 + omega^2 x1 + omega x2
        x1[...], x2[...] = (w, t) if sign > 0 else (t, w)
        h *= 3
    return a


def _radixp_inplace(a: np.ndarray, p: int, sign: int, buffer=None) -> np.ndarray:
    """Character transform sum_x a(x) omega^{sign <chi, x>} over axis 1 of a
    (planes, p^n, columns) array of Z[zeta_{p^m}] coefficient planes, m >= 1.

    With e = p^{m-1}, the planes split into p - 1 blocks of e, and z =
    sum_j omega^j B_j with omega = zeta^e, B_{p-1} = 0.  On p blocks omega^k
    z is the cyclic shift of the blocks by k, so each stage forms y_s =
    sum_t omega^{sign st} x_t as a sum of shifted blocks, in one array of
    ``buffer`` (``_scratch``).  Since 1 + omega + ... + omega^{p-1} = 0, it
    reads y back to the power basis in place, as B_j - B_{p-1}.  The
    blocks of a stage's output are the coefficients of transforms over
    p^stage points, and each block of y, like each of its partial sums, is
    a sum of at most p blocks of the last stage's output.  So both stay
    within sqrt(p - 1) p^stage times the largest modulus of an input value
    in any embedding (a coefficient is at most sqrt(p - 1) times that), the
    bound on the output's coefficients that the callers check.
    """
    planes, size, cols = a.shape
    e = planes // (p - 1)
    y = (buffer or _scratch())("transform", (p, e, size * cols), a.dtype)
    h = 1
    while h < size:
        v = a.reshape(p - 1, e, size // (p * h), p, h * cols)
        out = y.reshape((p,) + v.shape[1:])
        out[...] = 0
        for s in range(p):
            for t in range(p):
                k = sign * s * t % p  # y_s gains omega^k x_t: block j of x_t lands on block j + k
                out[k : k + p - 1, :, :, s] += v[: p - k, :, :, t]
                if k > 1:
                    out[: k - 1, :, :, s] += v[p - k :, :, :, t]
        np.subtract(out[: p - 1], out[p - 1], out=v)
        h *= p
    return a


def _transform_inplace(R: CycloRing, p: int, a: np.ndarray, sign: int, buffer=None) -> np.ndarray:
    """Exact character transform over axis 1 of (degree, p^n, columns) planes
    in R, through the scratch of ``buffer`` (``_scratch``) if given."""
    if not a.flags.c_contiguous:  # the butterflies write through reshaped views
        raise InternalCheckError("in-place transform needs a C-contiguous array")
    if p == 2:
        return _wht_inplace(a, buffer)
    if R.N % p:
        raise PreconditionError(f"ring Z[zeta_{R.N}] has no {p}-th roots of unity")
    return _radix3_inplace(a, sign, buffer) if p == 3 else _radixp_inplace(a, p, sign, buffer)
