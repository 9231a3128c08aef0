"""Kasteleyn sign systems, the Z/2 twist of a tiling, integer defects.

The canonical sign of an edge between a black cell v and a white neighbor
w differing along axis k is (-1)^(v[0]+...+v[k-1]), evaluated on the black
endpoint.  The twist of a tiling t is defined through the permutation it
induces from black to white labels:

    (-1)^twist(t) = sign(sigma_t) * prod_i K[i, sigma_t(i)]

and the defect of a region is det K = #(twist 0) - #(twist 1), both taken
in the canonical labeling.  The scalar twist and the determinant are pure
Python; twist_batch and twist_census load numpy when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .regions import Region
from .tilings import MAX_PACKED_CELLS, Tiling, enumerate_tilings, partner_matrix

TWIST_CHUNK = 1 << 18  # states per chunk of twist_batch


class KasteleynError(ValueError):
    pass


def canonical_sign(region: Region, v, w) -> int:
    """Canonical edge sign for a black cell v adjacent to a white cell w."""
    v, w = tuple(v), tuple(w)
    if sum(v) % 2 or not sum(w) % 2:
        raise KasteleynError(f"expected (black, white), got {v}-{w}")
    diff = [k for k in range(len(v)) if v[k] != w[k]]
    if len(diff) != 1 or abs(v[diff[0]] - w[diff[0]]) != 1:
        raise KasteleynError(f"cells {v} and {w} are not adjacent")
    return -1 if sum(v[:diff[0]]) % 2 else 1


def sign_matrix(region: Region) -> list[list[int]]:
    """Canonical Kasteleyn matrix, rows = black labels, columns = white labels."""
    if not region.balanced:
        raise KasteleynError("sign matrix needs a balanced region")
    b = len(region.black_cells)
    wr = region.white_rank
    K = [[0] * b for _ in range(b)]
    for r, i in enumerate(region.black_cells):
        for j in region.neighbors[i]:
            K[r][wr[j]] = canonical_sign(region, region.cells[i], region.cells[j])
    return K


class SignSystem:
    """Assignment of +-1 to every region edge, stored black-to-white."""

    def __init__(self, region: Region, signs: dict[tuple[int, int], int]):
        self.region = region
        self.signs = signs

    @classmethod
    def canonical(cls, region: Region) -> "SignSystem":
        signs = {}
        for i in region.black_cells:
            for j in region.neighbors[i]:
                signs[(i, j)] = canonical_sign(region, region.cells[i], region.cells[j])
        return cls(region, signs)

    @classmethod
    def gauge(cls, region: Region, negated_cells) -> "SignSystem":
        """Canonical system with all edges at the given cells negated."""
        system = cls.canonical(region)
        flip = set(negated_cells)
        signs = dict(system.signs)
        for (i, j), s in signs.items():
            if (i in flip) != (j in flip):
                signs[(i, j)] = -s
        return cls(region, signs)

    @classmethod
    def random_system(cls, region: Region, seed: int) -> "SignSystem":
        """Random valid system: a random vertex gauge of the canonical one."""
        rng = Random(seed)
        negate = [i for i in range(len(region.cells)) if rng.random() < 0.5]
        return cls.gauge(region, negate)

    def edge(self, i: int, j: int) -> int:
        if self.region.colors[i] < 0:
            i, j = j, i
        return self.signs[(i, j)]

    def is_valid(self) -> bool:
        """Every unit square must have edge-sign product -1."""
        for a, b, c, d in self.region.squares:
            p = self.edge(a, b) * self.edge(a, c) * self.edge(b, d) * self.edge(c, d)
            if p != -1:
                return False
        return True

    def negate_edge(self, i: int, j: int) -> "SignSystem":
        if self.region.colors[i] < 0:
            i, j = j, i
        signs = dict(self.signs)
        signs[(i, j)] = -signs[(i, j)]
        return SignSystem(self.region, signs)


@lru_cache(maxsize=8)
def _negative_edges(region: Region) -> tuple[frozenset[int], ...]:
    """White labels joined to each black label by an edge of sign -1: the
    columns of the -1 entries in each row of sign_matrix(region)."""
    if not region.balanced:
        raise KasteleynError("twist needs a balanced region")
    wr = region.white_rank
    return tuple(
        frozenset(wr[j] for j in region.neighbors[i]
                  if canonical_sign(region, region.cells[i], region.cells[j]) < 0)
        for i in region.black_cells)


@lru_cache(maxsize=8)
def _twist_tables(region: Region):
    """Per-region arrays for twist_batch, shared by equal regions."""
    import numpy as np

    negative = _negative_edges(region)
    b = len(negative)
    # neg_bit[r, s] = 1 when the edge from black label r to white label s has sign -1
    neg_bit = np.zeros((b, b), dtype=np.uint8)
    for r, whites in enumerate(negative):
        neg_bit[r, list(whites)] = 1
    black = np.array(region.black_cells, dtype=np.int64)
    # twist_batch gathers byte ranks (at most 255 cells); black cells' -1 wraps, unused
    return black, np.array(region.white_rank, dtype=np.int64).astype(np.uint8), neg_bit


def permutation_of(tiling: Tiling) -> list[int]:
    """White label matched to each black label, in black-label order."""
    region = tiling.region
    wr = region.white_rank
    return [wr[tiling.partner[i]] for i in region.black_cells]


def permutation_parity(sigma) -> int:
    """Parity of a permutation of range(b), 0 or 1: (b - #cycles) mod 2."""
    seen = [False] * len(sigma)
    cycles = 0
    for x in range(len(sigma)):
        if not seen[x]:
            cycles += 1
            while not seen[x]:
                seen[x] = True
                x = sigma[x]
    return (len(sigma) - cycles) % 2


def inversion_count(seq) -> int:
    """Exact number of inversions of a sequence, permutation or not; the
    scalar reference for inversion_parity and permutation_parity."""
    # b stays small in the exact paths, the quadratic loop is fine
    inv = 0
    for x in range(len(seq)):
        sx = seq[x]
        for y in range(x + 1, len(seq)):
            if sx > seq[y]:
                inv += 1
    return inv


def inversion_parity(rows: np.ndarray) -> np.ndarray:
    """Inversion parity of each row of a 2-D array, as uint8 0/1."""
    import numpy as np

    acc = np.zeros(len(rows), dtype=np.uint8)
    for i in range(rows.shape[1]):
        ri = rows[:, i]
        for j in range(i + 1, rows.shape[1]):
            acc ^= ri > rows[:, j]
    return acc


def twist(tiling: Tiling) -> int:
    """Twist in Z/2 under the canonical labeling and sign system."""
    negative = _negative_edges(tiling.region)
    sigma = permutation_of(tiling)
    neg = sum(s in whites for whites, s in zip(negative, sigma))
    return (permutation_parity(sigma) + neg) % 2


def twist_batch(region: Region, states) -> np.ndarray:
    """Twists of many byte-packed tilings at once. Exact uint8 arithmetic.

    states is a list of partner byte strings or a states x cells uint8
    matrix of partner vectors."""
    import numpy as np

    black, wr, neg_bit = _twist_tables(region)
    n = len(region.cells)
    b = len(black)
    out = np.empty(len(states), dtype=np.uint8)
    for lo in range(0, len(states), TWIST_CHUNK):
        part = states[lo:lo + TWIST_CHUNK]
        if isinstance(part, np.ndarray):
            P = part
        else:
            P = np.frombuffer(b"".join(part), dtype=np.uint8).reshape(len(part), n)
        S = wr[P[:, black]]
        acc = inversion_parity(S)
        for i in range(b):
            acc ^= neg_bit[i, S[:, i]]
        out[lo:lo + len(part)] = acc
    return out


def signed_det_term(tiling: Tiling, system: SignSystem | None = None) -> int:
    """det of the tiling's one-permutation matrix: sign(sigma) * product of
    edge signs.  Under the canonical signs (no system) that is (-1)^twist."""
    if system is None:
        return -1 if twist(tiling) else 1
    sgn = -1 if permutation_parity(permutation_of(tiling)) else 1
    for i in tiling.region.black_cells:
        sgn *= system.signs[(i, tiling.partner[i])]
    return sgn


def bareiss_determinant(rows) -> int:
    """Fraction-free integer determinant (Bareiss elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise KasteleynError("determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pkk - aik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def defect_by_determinant(region: Region) -> int:
    """det K under canonical labels; 0 for unbalanced regions (no tilings)."""
    if not region.balanced:
        return 0
    return bareiss_determinant(sign_matrix(region))


def defect_by_enumeration(region: Region) -> int:
    """#(twist 0) - #(twist 1) over all tilings, enumerated directly."""
    n0, n1 = twist_census(region)
    return n0 - n1


def twist_census(region: Region) -> tuple[int, int]:
    """(#twist 0, #twist 1) over all tilings of the region: twist_batch
    over the partner matrix up to 255 cells, the scalar twist above."""
    if not region.balanced:
        return (0, 0)
    if len(region.cells) <= MAX_PACKED_CELLS:
        states = partner_matrix(region)
        ones = int(twist_batch(region, states).sum())
        return (len(states) - ones, ones)
    counts = [0, 0]
    for t in enumerate_tilings(region):
        counts[twist(t)] += 1
    return (counts[0], counts[1])


@dataclass
class GaugeReport:
    """Result of comparing a sign system against the canonical one."""

    consistent: bool
    epsilon: int | None
    counterexample: tuple[Tiling, Tiling] | None


def gauge_twist_comparison(region: Region, system: SignSystem) -> GaugeReport:
    """Check that one global unit epsilon relates the system's signed terms
    to the canonical ones across every tiling."""
    epsilon = None
    first = None
    for t in enumerate_tilings(region):
        ratio = signed_det_term(t, system) * signed_det_term(t)
        if epsilon is None:
            epsilon = ratio
            first = t
        elif ratio != epsilon:
            return GaugeReport(False, None, (first, t))
    return GaugeReport(True, epsilon, None)
