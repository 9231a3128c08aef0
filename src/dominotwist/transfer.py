"""Plug/floor transfer matrices for cylinders base x [0,N].

A plug is a balanced subset of base cells, encoded as a bitmask over the
base's cell order (plugs.enumerate_plugs, re-exported here).  Entry
A[p0][p1] counts the tilings of one floor given vertical dominoes
entering from below at p0 and leaving upward at p1, so
(A^N)[empty][empty] counts cylinder tilings.  The signed companion At
weights each floor tiling by its twist contribution

    tw(f) = (tk(f) + inv(sigma_f) + inv_bl + inv_wh) mod 2

where tk multiplies the base Kasteleyn signs over the floor's dominoes,
sigma_f matches black to white base labels, and inv_bl/inv_wh count the
inversions of h = 1_q - 1_p over each colour's labels, for the plugs p
below and q above.  (At^N)[empty][empty] is then the cylinder defect:
twist-0 count minus twist-1 count.  cylinder_defect gets it without
plugs, from the cylinder's block-tridiagonal Kasteleyn matrix.

The plug part is one masked bit parity.  With r(x) the rank of cell x
among the k cells of its colour, inv(h) on one colour is

    sum_{x in q} (k-1-r(x)) + sum_{y in p} r(y) - C(|q|,2) - C(|p|,2)
        - #{x in q, y in p : r(x) < r(y)},

the pairs of a q cell and a later cell and of an earlier cell and a p
cell, less those inside q or p and those counted twice.  Plugs are
balanced, so the binomials recur with equal sizes on the other colour
and |q| is even.  Hence, with Y the cells of odd rank and S(p) the XOR
over y in p of the cells of y's colour ranked before y, inv_bl + inv_wh
= |p & Y| + |q & (Y ^ S(p))| mod 2 (rows_signed; plug_inversions is the
scalar reference).  tests/test_transfer.py checks each entry of A and At
against the floor's region, and their products along each plug sequence
against twist.

All matrix entries and powers are exact integers; floating point appears
only in spectral_estimates.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, mul, sub

import numpy as np

from .kasteleyn import bareiss_determinant, inversion_count, sign_matrix
from .plugs import (MAX_MATRIX_PLUGS, TransferError, check_defect_base, check_matrix_plugs,
                    enumerate_plugs, is_plug)
from .regions import Region, region_spec

MAX_POWER_ITERATIONS = 200_000
CACHE_FORMAT_VERSION = 1


# A symmetry g of the base permutes its cells and so its plugs, with
# A[gp][gq] = A[p][q].  A maps vectors constant on each plug orbit, such as
# e_empty, to such vectors, and on them (A v)[rep_o] = sum_o' R[o][o'] v[o']
# with the lumped matrix R[o][o'] = sum_{q in o'} A[rep_o][q], built from the
# representatives' rows alone.  A floor is vertical when p | q is full; as
# A[p][q] != 0 needs p & q = 0, then q = ~p and A[p][q] = 1 (no cells left).
# So the vertical part of A is the complement map J, which commutes with g:
# on orbit vectors (J v)[o] = v[comp[o]], comp[o] being the orbit of ~rep_o.

def _base_symmetries(base: Region) -> list[tuple[int, ...]]:
    """Cell permutations of the reflections of single axes and transpositions
    of equal-extent axes of the bounding box that map the cells onto
    themselves; identities and repeats are dropped."""
    if not base.cells:
        return []
    bbox = base.bounding_box
    maps = []
    for k, (lo, hi) in enumerate(bbox):
        maps.append(lambda c, k=k, s=lo + hi: c[:k] + (s - c[k],) + c[k + 1:])
    for k in range(base.dim):
        for m in range(k + 1, base.dim):
            d = bbox[m][0] - bbox[k][0]
            if bbox[k][1] + d == bbox[m][1]:
                maps.append(lambda c, k=k, m=m, d=d: tuple(
                    c[m] - d if a == k else c[k] + d if a == m else x
                    for a, x in enumerate(c)))
    index = base.index
    identity = tuple(range(len(base.cells)))
    perms = []
    for f in maps:
        perm = tuple(index.get(f(c), -1) for c in base.cells)
        if -1 not in perm and perm != identity and perm not in perms:
            perms.append(perm)
    return perms


class TransferMatrices:
    """Count matrix A and signed matrix At over a base's plugs, as CSR
    matrices indexed by plug index, with everything else derived from the
    base; each part is built on first use.  plugs is the int64 array of
    enumerate_plugs(base), the one form every kernel reads.

    count_table[m] counts tilings of the cells in mask m using only in-base
    dominoes, the permanent of |K| on the mask; signed_table[m] is the
    corresponding sum of (-1)^(tk + inv(sigma)), the determinant of the
    Kasteleyn submatrix on the mask's black rows and white columns taken in
    label order.  Both come from _minors, a Laplace expansion along each
    mask's lowest cell on slice views of the table.
    """

    def __init__(self, base: Region):
        self.base = base
        self.plugs = np.array(enumerate_plugs(base), dtype=np.int64)  # checks the base first
        self.full = (1 << len(base.cells)) - 1

    @property
    def size(self) -> int:
        return len(self.plugs)

    @property
    def nnz(self) -> tuple[int, int]:
        return self.rows_count.nnz, self.rows_signed.nnz

    def dense_count(self) -> np.ndarray:
        return self.rows_count.dense()

    def dense_signed(self) -> np.ndarray:
        return self.rows_signed.dense()

    def _minors(self, signed: bool) -> np.ndarray:
        """The minor of K on every cell mask: the determinant if signed, else
        the permanent of |K| (every sign +1, no row or column parity).

        Laplace expansion along the mask's lowest cell i, its row of K if i
        is black and its column if white, gives table[m] = sum over the
        neighbours j of i in m of +-table[m ^ (1 << i | 1 << j)], a mask whose
        cells all lie above i.  The term's sign is K's entry on the edge
        times -1 for each cell of j's colour strictly between i and j in m.
        So the cells are taken from the last label to the first, and for
        each later neighbour j the masks with lowest cell i and bit j set are
        filled at once, from entries already final: one reshape puts bits j
        and i on their own axes, with the bits between them on the middle
        axis, and the slice with both bits clear (and none below i) adds
        into the slice with both set.  Masks whose cells cannot all be
        matched keep 0, and the empty mask holds 1."""
        base = self.base
        kb = sign_matrix(base)
        br, wr = base.black_rank, base.white_rank
        black_bits = sum(1 << b for b in base.black_cells)
        table = np.zeros(self.full + 1, dtype=np.int64)
        table[0] = 1
        for i in reversed(range(len(base.cells))):
            for j in base.neighbors[i]:
                if j < i:
                    continue
                view = table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
                term = view[:, 0, :, 0, 0]
                if signed:
                    b, w = (i, j) if br[i] >= 0 else (j, i)
                    same = black_bits if br[j] >= 0 else self.full ^ black_bits
                    mid = np.arange(1 << (j - i - 1), dtype=np.int32) & same >> i + 1
                    term = term * (kb[br[b]][wr[w]] * (1 - 2 * _parity(mid)))
                view[:, 1, :, 1, 0] += term
        return table

    @cached_property
    def count_table(self) -> np.ndarray:
        return self._minors(False)

    @cached_property
    def signed_table(self) -> np.ndarray:
        return self._minors(True)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero columns and entries of plug i's row of A."""
        p = self.plugs[i]
        cols = np.flatnonzero((self.plugs & p) == 0)
        vals = self.count_table[self.full ^ (p | self.plugs[cols])]
        live = vals != 0
        return cols[live], vals[live]

    @cached_property
    def rows_count(self) -> _CSR:
        return _CSR.from_rows(map(self.row, range(len(self.plugs))))

    @cached_property
    def rows_signed(self) -> _CSR:
        """At on A's nonzeros, which hold all of At's (|det| <= perm): the
        signed_table entries, negated by the plug parity of the module notes."""
        a, plugs = self.rows_count, self.plugs
        y, s = 0, np.zeros_like(plugs)  # Y, and S(p) of each plug
        for cells in (self.base.black_cells, self.base.white_cells):
            for r, c in enumerate(cells):
                y |= (r & 1) << c
                s ^= (plugs >> c & 1) * sum(1 << b for b in cells[:r])
        rows, q = a.row_ids(), plugs[a.cols]
        vals = self.signed_table[self.full ^ plugs[rows] ^ q]
        vals[(_parity(plugs & y)[rows] ^ _parity(q & (y ^ s)[rows])) == 1] *= -1
        live = np.flatnonzero(vals)
        return _CSR(np.searchsorted(live, a.indptr), a.cols[live], vals[live])

    @cached_property
    def plug_orbit(self) -> np.ndarray:
        """Orbit of each plug under the base symmetries, numbered in the
        order of their least plugs, so orbit 0 is the empty plug alone."""
        # a plug's bits read through a cell permutation give its inverse image,
        # which generates the same group; orbit labels (least plug index) propagate
        images = [np.searchsorted(self.plugs, _project(self.plugs, perm))
                  for perm in _base_symmetries(self.base)]
        label, settled = np.arange(len(self.plugs)), None
        while not np.array_equal(label, settled):
            settled = label.copy()
            for image in images:
                np.minimum(label, label[image], out=label)
        return np.unique(label, return_inverse=True)[1]

    @cached_property
    def orbit_sizes(self) -> list[int]:
        """Number of plugs in each orbit."""
        return np.bincount(self.plug_orbit).tolist()

    @cached_property
    def reps(self) -> np.ndarray:
        """Plug index of each orbit's representative, its least plug."""
        return np.unique(self.plug_orbit, return_index=True)[1]

    @cached_property
    def lumped(self) -> _CSR:
        """R: A lumped over the plug orbits, from the representatives' rows."""
        def lumped_row(r: int) -> tuple[np.ndarray, np.ndarray]:
            cols, vals = self.row(r)
            acc = np.zeros(len(self.reps), dtype=np.int64)
            np.add.at(acc, self.plug_orbit[cols], vals)
            nz = np.flatnonzero(acc)
            return nz, acc[nz]

        return _CSR.from_rows(map(lumped_row, self.reps.tolist()))

    @cached_property
    def complement_orbit(self) -> list[int]:
        """comp[o]: the orbit of the complement of orbit o's representative."""
        comp = np.searchsorted(self.plugs, self.full ^ self.plugs[self.reps])
        return self.plug_orbit[comp].tolist()


def _parity(x: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of a nonnegative int32 or int64 array below 2^32."""
    for s in (16, 8, 4, 2, 1):
        x = x ^ x >> s
    return x & 1


def _project(plugs: np.ndarray, cells: tuple[int, ...]) -> np.ndarray:
    """Each plug's bits at the given cells, packed in their order."""
    out = np.zeros_like(plugs)
    for r, i in enumerate(cells):
        out |= (plugs >> i & 1) << r
    return out


def _base_tables(base: Region) -> TransferMatrices:
    return _tables(base, base.spec)  # region equality ignores the spec; the export names it


@lru_cache(maxsize=8)
def _tables(base: Region, spec: str | None) -> TransferMatrices:
    return TransferMatrices(base)


_TRIPLE = np.dtype([("i", "<i4"), ("j", "<i4"), ("v", "<i8")])  # one cache entry


@dataclass(frozen=True, eq=False)
class _CSR:
    """Square sparse integer matrix in compressed sparse row form: row i
    has columns cols[indptr[i]:indptr[i + 1]] and entries vals[same]."""

    indptr: np.ndarray  # int64
    cols: np.ndarray  # int32
    vals: np.ndarray  # int64

    @classmethod
    def from_rows(cls, rows) -> _CSR:
        """From (columns, entries) array pairs, one per row."""
        cols, vals = zip(*rows)
        indptr = np.cumsum([0, *map(len, cols)], dtype=np.int64)
        return cls(indptr, np.concatenate(cols).astype(np.int32),
                   np.concatenate(vals).astype(np.int64))

    @property
    def size(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def row(self, i: int) -> list[tuple[int, int]]:
        """Row i as (column, entry) pairs of Python ints."""
        a, b = self.indptr[i], self.indptr[i + 1]
        return list(zip(self.cols[a:b].tolist(), self.vals[a:b].tolist()))

    def __iter__(self):
        return map(self.row, range(self.size))

    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.size, dtype=np.int32), np.diff(self.indptr))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """M v in float64, for the power iteration."""
        return np.bincount(self.row_ids(), self.vals * v[self.cols], minlength=self.size)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=np.int64)
        out[self.row_ids(), self.cols] = self.vals
        return out

    def dense_rows(self):
        """The rows of dense() as lists of Python ints, built 64 rows at a
        time, so that no n x n array is held (a row at a time took half as
        long again on 2,2,3)."""
        ids = self.row_ids()
        for lo in range(0, self.size, 64):
            hi = min(lo + 64, self.size)
            a, b = self.indptr[lo], self.indptr[hi]
            block = np.zeros((hi - lo, self.size), dtype=np.int64)
            block[ids[a:b] - lo, self.cols[a:b]] = self.vals[a:b]
            yield from block.tolist()

    @cached_property
    def _gather(self) -> list[tuple[list[int], list[int]]]:
        """(entries, columns) of each row, as lists of Python ints."""
        ids = list(range(self.size))  # one int object per column index
        cols = list(map(ids.__getitem__, self.cols.tolist()))
        vals = self.vals.tolist()
        bounds = self.indptr.tolist()
        return [(vals[a:b], cols[a:b]) for a, b in zip(bounds, bounds[1:])]

    def step(self, vec: list[int]) -> list[int]:
        """M v in exact Python integers: the one exact matrix-vector loop."""
        get = vec.__getitem__
        return [sum(map(mul, vals, map(get, cols))) for vals, cols in self._gather]

    def power(self, start: int, n: int) -> list[int]:
        """M^n e_start: row `start` of M^n when M is symmetric, as A and At are."""
        vec = [0] * self.size
        vec[start] = 1
        for _ in range(n):
            vec = self.step(vec)
        return vec


def build_transfer(base: Region, max_plugs: int = MAX_MATRIX_PLUGS) -> TransferMatrices:
    """A and At of a base region: its cached TransferMatrices, once its plug
    count is within max_plugs, checked before any plug is listed."""
    check_matrix_plugs(base, max_plugs)
    return _base_tables(base)


get_transfer = build_transfer


# ----------------------------------------------------------------- plugs

def _check_plug(base: Region, mask: int) -> None:
    if not is_plug(base, mask):
        raise TransferError(f"plug mask {mask:#x} is not a balanced subset"
                            f" of the {len(base.cells)} base cells")


def plug_inversions(base: Region, p0: int, p1: int) -> tuple[int, int]:
    """Exact (inv_bl, inv_wh) inversion counts for plug p0 below p1: the
    scalar reference for the parity rule of rows_signed (module notes)."""
    return tuple(inversion_count([(p1 >> i & 1) - (p0 >> i & 1) for i in cells])
                 for cells in (base.black_cells, base.white_cells))


# ------------------------------------------------------- powers and counts

def power_vector(matrix: _CSR, start: int, n: int, size: int) -> list[int]:
    """Row `start` of the n-th power of a symmetric size x size matrix, exact."""
    if matrix.size != size:
        raise TransferError(f"matrix has {matrix.size} rows, not {size}")
    return matrix.power(start, n)


def cylinder_count(base: Region, floors: int) -> int:
    """Number of tilings of base x [0, floors], e_0 . A^N e_0 met in the
    middle on the lumped A.

    A is symmetric, so the count is (A^a e_0) . (A^b e_0) for any a + b = N.
    The empty plug is an orbit of its own, so A^h e_0 is constant on each
    plug orbit o, where it is (R^h e_0)[o] (see the notes on orbits).  The
    dot product is then sum_o |o| u_o w_o, with w = R^(N//2) e_0 and u = w
    when N is even, R w when it is odd: half the steps, on integers of half
    the length."""
    if floors < 0:
        raise TransferError("floor count must be nonnegative")
    tables = _base_tables(base)
    w = tables.lumped.power(0, floors // 2)
    u = tables.lumped.step(w) if floors % 2 else w
    return sum(map(mul, tables.orbit_sizes, map(mul, u, w)))


def cylinder_defect(base: Region, floors: int) -> int:
    """Twist-0 count minus twist-1 count for base x [0, floors], on any
    balanced base.

    This is det K of the cylinder.  In the floor-major labelling K is block
    tridiagonal: floor h's diagonal block D_h is K_base on even floors and
    its transpose on odd ones, and the blocks linking floors h and h+1 are
    +-c_h I, c_h = (-1)^h.  The three-term recursion X_{h+1} = -c_h D_h X_h
    - X_{h-1} from X_0 = I, X_{-1} = 0 then gives det K = (-1)^(k N(N+1)/2)
    det X_N, k = cells/2 (Molinari, "Determinants of block tridiagonal
    matrices", Linear Algebra Appl. 429 (2008)): multiplying K on the right
    by the unit block lower triangular matrix with first block column
    (X_0, ..., X_{N-1}) leaves -c_{N-1} X_N as that column's only block, and
    the other columns form a block triangle with diagonal c_h I.  D_h has
    +-1 entries, so each step only adds and subtracts rows.
    """
    if floors < 0:
        raise TransferError("floor count must be nonnegative")
    check_defect_base(len(base.cells))
    if not base.balanced:
        raise TransferError("cylinder defect needs a balanced base")
    kb = sign_matrix(base)
    k = len(kb)
    # row r of -c_h D_h as (row index of X_h, add or sub) terms
    steps = [[[(j, sub if s * c > 0 else add) for j, s in enumerate(row) if s]
              for row in d] for c, d in ((1, kb), (-1, list(zip(*kb))))]
    prev = [[0] * k for _ in range(k)]
    cur = [[int(r == j) for j in range(k)] for r in range(k)]
    for h in range(floors):
        nxt = []
        for below, terms in zip(prev, steps[h % 2]):
            acc = [-x for x in below]
            for j, op in terms:
                acc = list(map(op, acc, cur[j]))
            nxt.append(acc)
        prev, cur = cur, nxt
    sign = -1 if k * floors * (floors + 1) // 2 % 2 else 1
    return sign * bareiss_determinant(cur)


def cork_count(base: Region, floors: int, p0: int, p_top: int) -> int:
    """Tilings of the cylinder with plug p0 removed at the bottom and p_top
    at the top (cells already covered by dominoes of neighboring regions)."""
    if floors < 0:
        raise TransferError("floor count must be nonnegative")
    _check_plug(base, p0)
    _check_plug(base, p_top)
    tm = build_transfer(base)
    start, end = np.searchsorted(tm.plugs, [p0, p_top]).tolist()
    return tm.rows_count.power(start, floors)[end]


def twist_split(base: Region, floors: int) -> tuple[int, int]:
    """(twist-0 count, twist-1 count) for base x [0, floors]."""
    total = cylinder_count(base, floors)
    delta = cylinder_defect(base, floors)
    if (total + delta) % 2:
        raise TransferError(
            f"internal error: count {total} and defect {delta} disagree in parity")
    t0 = (total + delta) // 2
    t1 = (total - delta) // 2
    if t0 < 0 or t1 < 0:
        raise TransferError("internal error: negative twist class count")
    return t0, t1


def count_with_few_vertical_floors(base: Region, floors: int, bound: int) -> int:
    """Tilings of base x [0, floors] with fewer than `bound` vertical floors.

    A floor is vertical when its two plugs cover every base cell.  Layer m
    holds the tilings so far with m vertical floors.  Vertical floors act on
    orbit vectors as the complement map J and the others as R - J (see the
    notes on orbits), so a floor takes layer m to R v_m + J (v_{m-1} - v_m)."""
    if floors < 0:
        raise TransferError("floor count must be nonnegative")
    if bound <= 0:
        return 0
    tables = _base_tables(base)
    lumped, comp = tables.lumped, tables.complement_orbit
    zero = [0] * lumped.size
    layers = [[1] + zero[1:]] + [zero] * min(bound - 1, floors)  # at most `floors` vertical
    for _ in range(floors):
        layers = [list(map(add, lumped.step(layer), (below[c] - layer[c] for c in comp)))
                  for below, layer in zip([zero] + layers, layers)]
    return sum(layer[0] for layer in layers)


# ---------------------------------------------------------------- spectral

@dataclass
class SpectralReport:
    """Power-iteration estimates; the only floating-point results here."""

    lam: float
    lam_tilde: float
    ratio: float
    residual: float
    residual_tilde: float
    iterations: int
    iterations_tilde: int


def _power_iteration(step, n: int, tol: float) -> tuple[float, float, int]:
    """(Rayleigh quotient, residual, iterations) of the converged unit vector
    of the n x n matrix whose product with a float vector is step."""
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    resid = math.inf
    for it in range(1, MAX_POWER_ITERATIONS + 1):
        w = step(v)
        lam = float(v @ w)
        resid = float(np.linalg.norm(w - lam * v))
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, 0.0, it
        v = w / norm
        if resid <= tol * max(1.0, abs(lam)):
            return lam, resid, it
    raise TransferError(
        f"power iteration did not converge in {MAX_POWER_ITERATIONS} steps;"
        f" residual {resid:.3e}")


def spectral_estimates(base: Region, tol: float = 1e-9) -> SpectralReport:
    """Dominant eigenvalue of A, dominant |eigenvalue| of At, and their ratio.

    At's value comes from power iteration on At @ At, applied as At twice,
    followed by a square root; both iterations run on the sparse matrices.
    A Rayleigh quotient of a symmetric matrix lies within its residual of
    an eigenvalue, so the signed value is reported below the count value
    only when lam - residual > sqrt(lam2 + residual_tilde), lam2 being the
    estimate for At @ At; otherwise this raises.
    """
    if not (math.isfinite(tol) and tol > 0):  # nan, inf, 0 or below never converge
        raise TransferError("tol must be a positive finite number")
    tm = build_transfer(base)
    a, at = tm.rows_count, tm.rows_signed
    lam, resid, iters = _power_iteration(a.matvec, tm.size, tol)
    lam2, resid2, iters2 = _power_iteration(lambda v: at.matvec(at.matvec(v)), tm.size, tol)
    lam_tilde = math.sqrt(max(lam2, 0.0))
    if not lam - resid > math.sqrt(max(lam2, 0.0) + resid2):
        raise TransferError(
            f"cannot separate the signed spectral value {lam_tilde} from the count value"
            f" {lam} within the residuals {resid:.1e} and {resid2:.1e}")
    return SpectralReport(lam, lam_tilde, lam_tilde / lam,
                          resid, resid2, iters, iters2)


# ------------------------------------------------------------------ export

def _json_head(tm: TransferMatrices) -> dict:
    return {"version": CACHE_FORMAT_VERSION, "base": region_spec(tm.base), "plugs": tm.plugs.tolist()}


def transfer_to_json_obj(tm: TransferMatrices) -> dict:
    return {**_json_head(tm),
            "A": list(tm.rows_count.dense_rows()),
            "Atilde": list(tm.rows_signed.dense_rows())}


def write_transfer_json(tm: TransferMatrices, fh) -> None:
    """Write json.dumps(transfer_to_json_obj(tm), separators=(",", ":"))
    and a newline to the text file fh, one matrix row at a time, so that
    neither a dense matrix nor the whole document is held."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    fh.write(encode(_json_head(tm))[:-1])  # the head, open for the matrices
    for key, matrix in (("A", tm.rows_count), ("Atilde", tm.rows_signed)):
        fh.write(f",{encode(key)}:[")
        for i, row in enumerate(matrix.dense_rows()):
            fh.write("," + encode(row) if i else encode(row))
        fh.write("]")
    fh.write("}\n")


def save_transfer_cache(tm: TransferMatrices, path: str) -> None:
    """Compact binary cache: zlib-compressed (row, column, entry) triples
    of the two CSR matrices."""
    header = json.dumps({
        "format": CACHE_FORMAT_VERSION,
        "base": region_spec(tm.base),
        "plugs": len(tm.plugs),
    }).encode()
    chunks = [struct.pack("<I", len(header)), header, tm.plugs.astype("<i8").tobytes()]
    for matrix in (tm.rows_count, tm.rows_signed):
        triples = np.rec.fromarrays([matrix.row_ids(), matrix.cols, matrix.vals], dtype=_TRIPLE)
        chunks += [struct.pack("<q", matrix.nnz), triples.tobytes()]
    blob = zlib.compress(b"".join(chunks), 6)
    with open(path, "wb") as fh:
        fh.write(b"DTRC" + struct.pack("<I", CACHE_FORMAT_VERSION) + blob)


def load_transfer_cache(path: str, base: Region | None = None) -> TransferMatrices:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"DTRC":
        raise TransferError(f"{path}: not a transfer cache file")
    if len(raw) < 8:
        raise TransferError(f"{path}: truncated transfer cache")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CACHE_FORMAT_VERSION:
        raise TransferError(f"{path}: cache format {version} unsupported")
    try:
        spec, plugs, matrices = _read_cache_body(zlib.decompress(raw[8:]))
    except (zlib.error, struct.error, ValueError, KeyError, TypeError) as e:
        raise TransferError(f"{path}: corrupt transfer cache: {e}") from None
    if base is not None and spec != region_spec(base):
        raise TransferError(
            f"{path}: cache was built for {spec}, not {region_spec(base)}")
    if base is None:
        from .regions import parse_region_spec
        base = parse_region_spec(spec)
    tm = TransferMatrices(base)
    if not np.array_equal(plugs, tm.plugs):
        raise TransferError(f"{path}: the plug list is not the plugs of {spec}")
    tm.rows_count, tm.rows_signed = matrices
    return tm


def _read_cache_body(data: bytes):
    """(base spec, plugs, [count matrix, signed matrix]) from a decompressed cache."""
    hlen = struct.unpack_from("<I", data)[0]
    header = json.loads(data[4:4 + hlen])
    spec, n = header["base"], header["plugs"]
    if not isinstance(spec, str) or not isinstance(n, int) or n < 0:
        raise ValueError("bad header")
    off = 4 + hlen
    plugs = np.frombuffer(data, dtype="<i8", count=n, offset=off)
    off += 8 * n
    matrices = []
    for _ in range(2):
        count = struct.unpack_from("<q", data, off)[0]
        off += 8
        if count < 0:
            raise ValueError(f"negative entry count {count}")
        triples = np.frombuffer(data, dtype=_TRIPLE, count=count, offset=off)
        off += _TRIPLE.itemsize * count
        if count and not (0 <= min(triples["i"].min(), triples["j"].min())
                          and max(triples["i"].max(), triples["j"].max()) < n):
            raise ValueError(f"entry index outside {n} plugs")
        order = np.lexsort((triples["j"], triples["i"]))  # entries in any order
        i, j = triples["i"][order], triples["j"][order]
        if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
            raise ValueError("repeated matrix entry")
        indptr = np.cumsum(np.bincount(i + 1, minlength=n + 1), dtype=np.int64)
        matrices.append(_CSR(indptr, j.astype(np.int32), triples["v"][order].astype(np.int64)))
    if off != len(data):
        raise ValueError(f"{len(data) - off} trailing bytes")
    return spec, plugs, matrices
