"""Plug/floor transfer matrices for cylinders base x [0,N].

A plug is a balanced subset of base cells, encoded as a bitmask over the
base's cell order (plugs.enumerate_plugs, re-exported here).  Entry
A[p0][p1] counts the tilings of one floor given vertical dominoes
entering from below at p0 and leaving upward at p1, so
(A^N)[empty][empty] counts cylinder tilings.  The signed companion At
weights each floor tiling by its twist contribution

    tw(f) = (tk(f) + inv(sigma_f) + inv_bl + inv_wh) mod 2

where tk multiplies the base Kasteleyn signs over the floor's dominoes,
sigma_f matches black to white base labels, and inv_bl/inv_wh count label
inversions induced by the two plugs.  (At^N)[empty][empty] is then the
cylinder defect: twist-0 count minus twist-1 count.  cylinder_defect gets
it without plugs, from the cylinder's block-tridiagonal Kasteleyn matrix.

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

from .kasteleyn import (
    _negative_edges,
    bareiss_determinant,
    inversion_count,
    inversion_parity,
    sign_matrix,
)
from .plugs import MAX_PLUG_BASE_CELLS, TransferError, enumerate_plugs, is_plug  # noqa: F401 (re-exported)
from .regions import Region, region_spec
from .tilings import Tiling, enumerate_tilings

MAX_MATRIX_PLUGS = 4096
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
    base; each part is built on first use.

    count_table[m] counts tilings of the cells in mask m using only in-base
    dominoes; signed_table[m] is the corresponding sum of
    (-1)^(tk + inv(sigma)), the Kasteleyn submatrix determinant on the
    mask's black rows and white columns taken in label order.  bproj/wproj
    hold each plug's bits at the black/white cells, packed in label order;
    they index the parity table of plug-pair inversions.
    """

    def __init__(self, base: Region):
        self.base = base
        self.plugs = enumerate_plugs(base)  # checks the base before any 2^n table
        self.plugs_np = np.array(self.plugs, dtype=np.int64)
        self.full = (1 << len(base.cells)) - 1
        self.k = len(base.black_cells)
        self.bproj = _project(self.plugs_np, base.black_cells)
        self.wproj = _project(self.plugs_np, base.white_cells)

    @property
    def size(self) -> int:
        return len(self.plugs)

    @property
    def nnz(self) -> tuple[int, int]:
        return self.rows_count.nnz, self.rows_signed.nnz

    @cached_property
    def plug_index(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.plugs)}

    def entry_count(self, p0: int, p1: int) -> int:
        return dict(self.rows_count.row(self.plug_index[p0])).get(self.plug_index[p1], 0)

    def entry_signed(self, p0: int, p1: int) -> int:
        return dict(self.rows_signed.row(self.plug_index[p0])).get(self.plug_index[p1], 0)

    def dense_count(self) -> np.ndarray:
        return self.rows_count.dense()

    def dense_signed(self) -> np.ndarray:
        return self.rows_signed.dense()

    def _minors(self, signed: bool) -> np.ndarray:
        """The minor of K on every cell mask, by Laplace expansion along the
        mask's lowest black cell: the determinant if signed, else the
        permanent of |K| (every sign +1, no column parity)."""
        base = self.base
        kb = sign_matrix(base)
        wr = base.white_rank
        n = len(base.cells)
        white_bits = sum(1 << j for j in base.white_cells)
        # the edge from black cell i to j flips its term when m | 1 << n has
        # an odd number of bits in `flip`: bit n for a -1 entry of K, and the
        # white cells before j for the column parity (0 for the permanent)
        edges = {i: [(1 << j, (kb[r][wr[j]] < 0) << n | white_bits & ((1 << j) - 1)
                      if signed else 0) for j in base.neighbors[i]]
                 for r, i in enumerate(base.black_cells)}
        black_bits = self.full ^ white_bits
        table = [0] * (self.full + 1)
        table[0] = 1
        for m in range(1, self.full + 1):
            mb = m & black_bits
            if not mb:
                continue  # whites left without blacks: no matching
            low = mb & -mb
            rest, mn = m ^ low, m | 1 << n
            acc = 0
            for bit, flip in edges[low.bit_length() - 1]:
                if m & bit:
                    minor = table[rest ^ bit]
                    if flip and (mn & flip).bit_count() & 1:
                        minor = -minor
                    acc += minor
            table[m] = acc
        return np.array(table, dtype=np.int64)

    @cached_property
    def count_table(self) -> np.ndarray:
        return self._minors(False)

    @cached_property
    def signed_table(self) -> np.ndarray:
        return self._minors(True)

    def row(self, i: int, signed: bool) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero columns and entries of plug i's row of At if signed, else A."""
        p = self.plugs[i]
        cols = np.flatnonzero((self.plugs_np & p) == 0)
        rest = self.full ^ (p | self.plugs_np[cols])
        if signed:
            vals = self.signed_table[rest]
            k, par = self.k, _parity_table(self.k)
            flip = (par[(self.bproj[i] << k) | self.bproj[cols]]
                    ^ par[(self.wproj[i] << k) | self.wproj[cols]])
            vals[flip == 1] *= -1
        else:
            vals = self.count_table[rest]
        live = vals != 0
        return cols[live], vals[live]

    @cached_property
    def rows_count(self) -> _CSR:
        return _CSR.from_rows(self.row(i, False) for i in range(len(self.plugs)))

    @cached_property
    def rows_signed(self) -> _CSR:
        return _CSR.from_rows(self.row(i, True) for i in range(len(self.plugs)))

    @cached_property
    def plug_orbit(self) -> np.ndarray:
        """Orbit of each plug under the base symmetries, numbered in the
        order of their least plugs, so orbit 0 is the empty plug alone."""
        # a plug's bits read through a cell permutation give its inverse image,
        # which generates the same group; orbit labels (least plug index) propagate
        images = [np.searchsorted(self.plugs_np, _project(self.plugs_np, perm))
                  for perm in _base_symmetries(self.base)]
        label, settled = np.arange(len(self.plugs)), None
        while not np.array_equal(label, settled):
            settled = label.copy()
            for image in images:
                np.minimum(label, label[image], out=label)
        return np.unique(label, return_inverse=True)[1]

    @cached_property
    def reps(self) -> np.ndarray:
        """Plug index of each orbit's representative, its least plug."""
        return np.unique(self.plug_orbit, return_index=True)[1]

    @cached_property
    def lumped(self) -> _CSR:
        """R: A lumped over the plug orbits, from the representatives' rows."""
        def lumped_row(r: int) -> tuple[np.ndarray, np.ndarray]:
            cols, vals = self.row(r, False)
            acc = np.zeros(len(self.reps), dtype=np.int64)
            np.add.at(acc, self.plug_orbit[cols], vals)
            nz = np.flatnonzero(acc)
            return nz, acc[nz]

        return _CSR.from_rows(map(lumped_row, self.reps.tolist()))

    @cached_property
    def complement_orbit(self) -> list[int]:
        """comp[o]: the orbit of the complement of orbit o's representative."""
        comp = np.searchsorted(self.plugs_np, self.full ^ self.plugs_np[self.reps])
        return self.plug_orbit[comp].tolist()


def _project(plugs: np.ndarray, cells: tuple[int, ...]) -> np.ndarray:
    """Each plug's bits at the given cells, packed in their order."""
    out = np.zeros_like(plugs)
    for r, i in enumerate(cells):
        out |= (plugs >> i & 1) << r
    return out


@lru_cache(maxsize=4)
def _parity_table(k: int) -> np.ndarray:
    """table[(a << k) | c] = inversion parity of h = [r in c] - [r in a] over
    k labels of one color, for disjoint label masks a and c (other entries 0).

    Both colors of a balanced base have k labels, so one table serves both."""
    labels = np.arange(k, dtype=np.int32)  # narrow dtypes keep the build's peak RSS small
    h = (np.arange(3 ** k, dtype=np.int32)[:, None] // 3 ** labels % 3 - 1).astype(np.int8)
    a = (h < 0) @ (1 << labels)
    c = (h > 0) @ (1 << labels)
    table = np.zeros(1 << (2 * k), dtype=np.int8)
    table[(a << k) | c] = inversion_parity(h)
    return table


@lru_cache(maxsize=8)
def _base_tables(base: Region) -> TransferMatrices:
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

    @cached_property
    def _gather(self) -> tuple[list, list[int], list[int]]:
        ids = list(range(self.size))  # one int object per column index
        spans = list(zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist()))
        return spans, list(map(ids.__getitem__, self.cols.tolist())), self.vals.tolist()

    def step(self, vec: list[int]) -> list[int]:
        """M v in exact Python integers: the one exact matrix-vector loop."""
        spans, cols, vals = self._gather
        get = vec.__getitem__
        return [sum(map(mul, vals[a:b], map(get, cols[a:b]))) for a, b in spans]

    def power(self, start: int, n: int) -> list[int]:
        """M^n e_start: row `start` of M^n when M is symmetric, as A and At are."""
        vec = [0] * self.size
        vec[start] = 1
        for _ in range(n):
            vec = self.step(vec)
        return vec


def build_transfer(base: Region, max_plugs: int = MAX_MATRIX_PLUGS) -> TransferMatrices:
    """A and At of a base region: its cached TransferMatrices, once its plug
    count is within the limit."""
    tm = _base_tables(base)
    if tm.size > max_plugs:
        raise TransferError(
            f"{tm.size} plugs exceeds the matrix limit {max_plugs};"
            " cylinder_count and cylinder_defect need no matrix")
    return tm


def get_transfer(base: Region) -> TransferMatrices:
    """build_transfer(base) under the default plug limit."""
    return build_transfer(base)


# ---------------------------------------------------------------- floors

def floor_subregion(base: Region, cells_mask: int) -> Region:
    cells = [base.cells[i] for i in range(len(base.cells)) if cells_mask >> i & 1]
    return Region(base.dim, cells)


def floor_tilings(base: Region, p0: int, p1: int) -> list[Tiling]:
    """All tilings of the base minus both plugs; empty when plugs overlap."""
    _check_plug(base, p0)
    _check_plug(base, p1)
    if p0 & p1:
        return []
    full = (1 << len(base.cells)) - 1
    return list(enumerate_tilings(floor_subregion(base, full ^ (p0 | p1))))


def _check_mask(base: Region, cells_mask: int) -> None:
    nc = len(base.cells)
    if not 0 <= cells_mask < (1 << nc):
        raise TransferError(f"cell mask {cells_mask:#x} out of range for {nc} cells")


def _check_plug(base: Region, mask: int) -> None:
    if not is_plug(base, mask):
        raise TransferError(f"plug mask {mask:#x} is not a balanced subset"
                            f" of the {len(base.cells)} base cells")


def plug_inversions(base: Region, p0: int, p1: int) -> tuple[int, int]:
    """Exact (inv_bl, inv_wh) inversion counts for an ordered plug pair."""
    return tuple(inversion_count([(p1 >> i & 1) - (p0 >> i & 1) for i in cells])
                 for cells in (base.black_cells, base.white_cells))


def floor_twist_pairs(base: Region, p0: int, p1: int,
                      pairs: list[tuple[int, int]]) -> int:
    """Floor twist from dominoes given as pairs of base cell indices."""
    colors = base.colors
    br = base.black_rank
    wr = base.white_rank
    sigma = sorted((br[i], wr[j]) if colors[i] > 0 else (br[j], wr[i]) for i, j in pairs)
    negative = _negative_edges(base)
    neg = sum(w in negative[b] for b, w in sigma)
    inv_sigma = inversion_count([w for _, w in sigma])
    inv_bl, inv_wh = plug_inversions(base, p0, p1)
    return (neg + inv_sigma + inv_bl + inv_wh) & 1


def floor_twist(base: Region, p0: int, p1: int, f: Tiling) -> int:
    """Twist contribution of one floor (p0 below, f in the plane, p1 above)."""
    _check_plug(base, p0)
    _check_plug(base, p1)
    if p0 & p1:
        raise TransferError("plugs overlap; no floor exists")
    full = (1 << len(base.cells)) - 1
    want = full ^ (p0 | p1)
    got = 0
    index = base.index
    for cell in f.region.cells:
        i = index.get(cell)
        if i is None:
            raise TransferError(f"floor cell {cell} is not a base cell")
        got |= 1 << i
    if got != want:
        raise TransferError("floor tiling does not cover base minus plugs")
    pairs = [(index[v], index[w]) for v, w in f.dominoes()]
    return floor_twist_pairs(base, p0, p1, pairs)


def signed_floor_sum(base: Region, cells_mask: int) -> int:
    """Sum of (-1)^(tk + inv(sigma)) over floor tilings of the mask."""
    _check_mask(base, cells_mask)
    return int(_base_tables(base).signed_table[cells_mask])


def signed_floor_sum_by_enumeration(base: Region, cells_mask: int) -> int:
    """Oracle for signed_floor_sum: enumerate and add up signs."""
    _check_mask(base, cells_mask)
    sub = floor_subregion(base, cells_mask)
    if not sub.cells:
        return 1
    index = base.index
    total = 0
    for f in enumerate_tilings(sub):
        pairs = [(index[v], index[w]) for v, w in f.dominoes()]
        tw = floor_twist_pairs(base, 0, 0, pairs)
        total += 1 - 2 * tw
    return total


# ------------------------------------------------------- powers and counts

def power_vector(matrix: _CSR, start: int, n: int, size: int) -> list[int]:
    """Row `start` of the n-th power of a symmetric size x size matrix, exact."""
    if matrix.size != size:
        raise TransferError(f"matrix has {matrix.size} rows, not {size}")
    return matrix.power(start, n)


def cylinder_count(base: Region, floors: int) -> int:
    """Number of tilings of base x [0, floors], by the exact power of A
    lumped over plug orbits."""
    if floors < 0:
        raise TransferError("floor count must be nonnegative")
    return _base_tables(base).lumped.power(0, floors)[0]


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
    tm = get_transfer(base)
    return tm.rows_count.power(tm.plug_index[p0], floors)[tm.plug_index[p_top]]


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

    def __iter__(self):
        return iter((self.lam, self.lam_tilde, self.ratio))


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
    tm = get_transfer(base)
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

def transfer_to_json_obj(tm: TransferMatrices) -> dict:
    return {
        "version": CACHE_FORMAT_VERSION,
        "base": region_spec(tm.base),
        "plugs": list(tm.plugs),
        "A": tm.dense_count().tolist(),
        "Atilde": tm.dense_signed().tolist(),
    }


def save_transfer_cache(tm: TransferMatrices, path: str) -> None:
    """Compact binary cache: zlib-compressed (row, column, entry) triples
    of the two CSR matrices."""
    header = json.dumps({
        "format": CACHE_FORMAT_VERSION,
        "base": region_spec(tm.base),
        "plugs": len(tm.plugs),
    }).encode()
    chunks = [struct.pack("<I", len(header)), header, np.array(tm.plugs, dtype="<i8").tobytes()]
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
    if plugs != tm.plugs:
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
    plugs = np.frombuffer(data, dtype="<i8", count=n, offset=off).tolist()
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
