"""Exact rational linear algebra on labelled finite-dimensional spaces.

Everything downstream represents structure maps as matrices over Q, so
equality of diagrams is literal entrywise equality -- no tolerances
anywhere.  A scalar is an ``int`` when whole, else a ``fractions.Fraction``;
``scalar_text`` renders either form, at any size.

Conventions:

* column j of a ``LinMap`` is the image of the j-th domain basis vector;
* tensor products use the row-major index pairing e_i (x) e_j  ->  i*dim(W)+j,
  flattened strictly across iterated products;
* two spaces are equal iff they have the same tuple of atomic factors with
  the same labels, so H (x) H built twice compares equal, while a space that
  merely has the same dimension does not;
* a space may have dimension 0, so the zero subspace has a carrier.

Every ``LinMap`` is stored as two padded column arrays (see its
docstring), and ``_pack`` is the one normaliser that puts entries into
that form.  Large structural maps (e.g. id (x) R (x) id on a fourth tensor
power) must never be materialised; ``composite_map`` evaluates a whole
pipeline of tensor stages on index arrays instead: it starts from the
Kronecker product of the first stage's parts and makes one gather per
factor of each later stage.  Between stages it reads only widths, never
spaces, so unit objects are strict: a pipeline needs no unitor stage.

A ``Subspace`` is its inclusion and a retraction onto its basis; membership,
corestriction and subspace equality are composites of them and an equality.
``solve`` and ``try_inverse`` retract onto a reduction of the map's columns.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import ClosureFailure, DimensionCapExceeded, DimensionMismatch

# to_rows and Space.labels refuse to materialise more cells or labels than
# this; a 216 x 46656 list of rows is already ten million scalars.
_MAX_CELLS = 1_048_576

# index arrays are int64 up to this width and hold Python ints past it
_MAX_INDEX = np.iinfo(np.int64).max

# the most terms a composite_map stage may carry: a builtin needs 46,656,
# a dense 8-dimensional Hopf check 2**24; past 2**25 arrays take gigabytes
_MAX_TERMS = 2 ** 25


def rat(x):
    """x as an int when it is whole, else a Fraction; floats are refused."""
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


def scalar_text(x) -> str:
    """x as decimal "p" or "p/q" at any size (``str`` refuses huge ints)."""
    if isinstance(x, Fraction):
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return str(Decimal(x))


def _div(a, b):
    """Exact a / b as a scalar (``/`` on two ints would give a float)."""
    return rat(Fraction(a, b))


def _index_type(width: int):
    """dtype of an index array whose values stay below width."""
    return np.int64 if width <= _MAX_INDEX else object


class Space:
    """A based vector space over Q with distinct basis labels.

    Atomic spaces carry an explicit label tuple.  Tensor products keep the
    flattened tuple of atomic factors and synthesise labels lazily, so a
    216^4-dimensional intermediate never allocates its label list.
    """

    __slots__ = ("dim", "_labels", "_factors")

    def __init__(self, labels=None, *, _factors=None):
        if _factors is not None:
            self._factors = tuple(_factors)
            self._labels = None
            d = 1
            for f in self._factors:
                d *= f.dim
            self.dim = d
        else:
            lab = tuple(str(s) for s in labels)
            if len(set(lab)) != len(lab):
                raise ValueError("basis labels must be distinct")
            self._labels = lab
            self._factors = None
            self.dim = len(lab)

    def factors(self) -> tuple:
        return (self,) if self._factors is None else self._factors

    def _atoms(self) -> tuple:
        return tuple(f._labels for f in self.factors())

    def label(self, i: int) -> str:
        if self._labels is not None:
            return self._labels[i]
        parts = []
        for f in reversed(self._factors):
            i, r = divmod(i, f.dim)
            parts.append(f._labels[r])
        return "⊗".join(reversed(parts))

    @property
    def labels(self) -> tuple:
        if self._labels is None:
            if self.dim > _MAX_CELLS:
                raise DimensionCapExceeded(
                    f"refusing to materialise {self.dim} > {_MAX_CELLS} labels")
            self._labels = tuple(self.label(i) for i in range(self.dim))
        return self._labels

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Space):
            return NotImplemented
        return self.dim == other.dim and self._atoms() == other._atoms()

    def __hash__(self):
        return hash((self.dim, len(self.factors())))

    def __repr__(self):
        if self._factors is not None:
            return "(x)".join(repr(f) for f in self._factors)
        if self.dim <= 4:
            return f"Space[{','.join(self._labels)}]"
        return f"Space(dim={self.dim})"


#: the base field Q viewed as the unit object; label "1" matches the unit
#: basis vector of a trivial group algebra.
SCALAR = Space(("1",))


def tensor_space(*spaces: Space) -> Space:
    atoms = []
    for s in spaces:
        atoms.extend(s.factors())
    if not atoms:
        return SCALAR
    if len(atoms) == 1:
        return atoms[0]
    return Space(_factors=atoms)


def _pack(n: int, js, ts, cs):
    """The canonical (targets, coeffs) arrays of the n-column map with
    entry cs[e] at row ts[e] of column js[e], for flat arrays.

    Entries at one (row, column) are summed, values pass through ``rat``
    and zeros are dropped; each column's entries are sorted by row and
    padded with target 0 and coefficient 0 to the longest column.  The
    coefficients are int8 when every entry is +-1, else Python scalars.
    """
    live = np.flatnonzero(cs)
    order = live[np.lexsort((ts[live], js[live]))]
    js, ts, cs = js[order], ts[order], cs[order]
    if cs.dtype != object:
        cs = cs.astype(np.int64)            # sums of +-1 overflow int8
    head = np.flatnonzero((np.diff(js, prepend=-1) != 0)
                          | (np.diff(ts, prepend=-1) != 0))
    js, ts, cs = js[head], ts[head], np.add.reduceat(cs, head)
    if cs.dtype == object:
        cs = np.array([v if type(v) is int else rat(v) for v in cs.tolist()],
                      dtype=object)
    live = cs != 0
    js, ts, cs = js[live], ts[live], cs[live]
    unit = bool(((cs == 1) | (cs == -1)).all())
    cs = cs.astype(np.int8 if unit else object)
    counts = np.bincount(js, minlength=n)
    pos = np.arange(js.size) - (np.cumsum(counts) - counts)[js]
    width = int(counts.max(initial=0))
    targets = np.zeros((n, width), dtype=ts.dtype)
    coeffs = np.zeros((n, width), dtype=cs.dtype)
    targets[js, pos], coeffs[js, pos] = ts, cs
    return targets, coeffs


class LinMap:
    """Exact linear map between two spaces, stored as two n x k arrays.

    Row j of ``targets`` and ``coeffs`` holds the nonzero entries of
    column j in increasing row order, padded with target 0 and coefficient
    0 up to k, the length of the longest column.  ``coeffs`` is int8 when
    every entry is +-1, else an object array of ints and Fractions;
    ``targets`` is int64 unless the codomain passes int64.  The form is
    canonical, so equal maps have equal arrays, and a monomial map (each
    column zero or one +-1, as the structure maps, faces and degeneracies
    of group algebras are) is one with k <= 1 and int8 coefficients.
    Treat the arrays as read-only.
    """

    __slots__ = ("dom", "cod", "targets", "coeffs")

    def __init__(self, dom: Space, cod: Space, cols: dict):
        """cols maps a column to {row: value}, each value through rat."""
        js, ts, cs = [], [], []
        for j, col in cols.items():
            for i, v in col.items():
                js.append(j)
                ts.append(i)
                cs.append(v if type(v) is int else rat(v))
        if js and not (0 <= min(js) and max(js) < dom.dim
                       and 0 <= min(ts) and max(ts) < cod.dim):
            raise DimensionMismatch("an entry lies outside the map's shape")
        self.dom, self.cod = dom, cod
        self.targets, self.coeffs = _pack(
            dom.dim, np.array(js, dtype=np.int64),
            np.array(ts, dtype=_index_type(cod.dim)),
            np.array(cs, dtype=object))

    @classmethod
    def _of(cls, dom: Space, cod: Space, targets, coeffs) -> "LinMap":
        """The map with these canonical arrays, taken as given."""
        out = cls.__new__(cls)
        out.dom, out.cod, out.targets, out.coeffs = dom, cod, targets, coeffs
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, dom: Space, cod: Space, rows) -> "LinMap":
        rows = [list(r) for r in rows]
        if len(rows) != cod.dim or any(len(r) != dom.dim for r in rows):
            raise DimensionMismatch(
                f"matrix is {len(rows)}x{len(rows[0]) if rows else 0}, "
                f"expected {cod.dim}x{dom.dim}")
        cols: dict = {}
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                cols.setdefault(j, {})[i] = x
        return cls(dom, cod, cols)

    @classmethod
    def from_entries(cls, dom: Space, cod: Space, entries: dict) -> "LinMap":
        cols: dict = {}
        for (i, j), x in entries.items():
            cols.setdefault(j, {})[i] = x
        return cls(dom, cod, cols)

    @classmethod
    def from_monomial(cls, dom: Space, cod: Space, targets,
                      signs=None) -> "LinMap":
        """Column j is signs[j] (default 1, 0 for a zero column) times basis
        vector targets[j], for 1-D arrays, without the pass of __init__."""
        if signs is None:
            t, s = np.asarray(targets), np.ones(dom.dim, dtype=np.int8)
        else:
            s = signs.astype(np.int8)
            t = np.where(s != 0, targets, 0)
        k = int(s.any())
        if k and t.max() >= cod.dim:
            raise DimensionMismatch("monomial map lands outside its codomain")
        return cls._of(dom, cod, t.astype(_index_type(cod.dim))[:, None][:, :k],
                       s[:, None][:, :k])

    @classmethod
    def identity(cls, space: Space) -> "LinMap":
        return iso_map(space, space)

    @classmethod
    def zero(cls, dom: Space, cod: Space) -> "LinMap":
        return cls(dom, cod, {})

    # -- access -------------------------------------------------------

    def column(self, j: int) -> dict:
        """Column j as {row: value}."""
        if not 0 <= j < self.dom.dim:
            return {}
        return {i: v for i, v in zip(self.targets[j].tolist(),
                                     self.coeffs[j].tolist()) if v}

    def items(self):
        """Iterate nonzero entries as (row, col, value), column by column."""
        js, ks = np.nonzero(self.coeffs)
        return zip(self.targets[js, ks].tolist(), js.tolist(),
                   self.coeffs[js, ks].tolist())

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def to_rows(self):
        cells = self.cod.dim * self.dom.dim
        if cells > _MAX_CELLS:
            raise DimensionCapExceeded(
                f"refusing to render a {self.cod.dim}x{self.dom.dim} matrix "
                f"({cells} > {_MAX_CELLS} cells)")
        rows = [[0] * self.dom.dim for _ in range(self.cod.dim)]
        for i, j, v in self.items():
            rows[i][j] = v
        return rows

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other: "LinMap") -> "LinMap":
        if not isinstance(other, LinMap):
            return NotImplemented
        if other.cod != self.dom:
            raise DimensionMismatch(
                f"compose: inner spaces differ ({other.cod!r} vs {self.dom!r})")
        return composite_map(other.dom, self.cod, [other, self])

    def tensor(self, other: "LinMap") -> "LinMap":
        return composite_map(tensor_space(self.dom, other.dom),
                             tensor_space(self.cod, other.cod), [[self, other]])

    def __sub__(self, other: "LinMap") -> "LinMap":
        if self.dom != other.dom or self.cod != other.cod:
            raise DimensionMismatch("maps have different shapes")
        n = self.dom.dim
        t = np.hstack((self.targets, other.targets))
        c = np.hstack((self.coeffs, -other.coeffs))
        return LinMap._of(self.dom, self.cod, *_pack(
            n, np.repeat(np.arange(n), t.shape[1]), t.ravel(), c.ravel()))

    def is_zero(self) -> bool:
        return not self.coeffs.shape[1]

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        if self.dom != other.dom or self.cod != other.cod:
            return False
        return self.first_difference(other) is None

    __hash__ = None

    def first_difference(self, other: "LinMap"):
        """First differing entry scanning columns then rows, or None.

        Returns (row, col, self_value, other_value).  This is the witness
        order used by every checker: the column index is the domain basis
        vector on which the two sides of a law first disagree.  Equal maps
        have equal arrays; other arrays, padded to one shape, name that
        column, and only it is scanned.
        """
        ta, tb = self.targets, other.targets
        if (ta.shape == tb.shape and (ta == tb).all()
                and (self.coeffs == other.coeffs).all()):
            return None
        n = max(self.dom.dim, other.dom.dim)
        k = max(self.coeffs.shape[1], other.coeffs.shape[1])
        (ta, ca), (tb, cb) = (
            [a if a.shape == (n, k) else np.pad(
                a, ((0, n - a.shape[0]), (0, k - a.shape[1])))
             for a in (m.targets, m.coeffs)] for m in (self, other))
        differs = ((ta != tb) | (ca != cb)).any(axis=1)
        for j in np.flatnonzero(differs)[:1].tolist():
            a, b = self.column(j), other.column(j)
            for i in sorted(set(a) | set(b)):
                if a.get(i, 0) != b.get(i, 0):
                    return i, j, a.get(i, 0), b.get(i, 0)
        return None

    def __repr__(self):
        return f"LinMap({self.dom.dim}->{self.cod.dim}, nnz={self.nnz})"


def iso_map(dom: Space, cod: Space) -> LinMap:
    """Identity-entry map between equal-dimension spaces (unitors etc.)."""
    if dom.dim != cod.dim:
        raise DimensionMismatch("iso_map needs equal dimensions")
    return LinMap.from_monomial(dom, cod, np.arange(dom.dim, dtype=np.int64))


def left_unitor(v: Space) -> LinMap:
    """V -> k (x) V."""
    return iso_map(v, tensor_space(SCALAR, v))


def right_unitor(v: Space) -> LinMap:
    """V -> V (x) k."""
    return iso_map(v, tensor_space(v, SCALAR))


def flip(v: Space, w: Space) -> LinMap:
    """The symmetry v (x) w -> w (x) v of Vect."""
    i, j = np.divmod(np.arange(v.dim * w.dim, dtype=np.int64), w.dim)
    return LinMap.from_monomial(tensor_space(v, w), tensor_space(w, v),
                                j * v.dim + i)


# -- evaluation of big composites --------------------------------------


def _times(a, b):
    """a * b, broadcast; on object coefficients only the entries where both
    factors are nonzero are multiplied, and the padding stays 0."""
    if a.dtype != object and b.dtype != object:
        return a * b
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape, dtype=object)
    live = (a != 0) & (b != 0)
    out[live] = a[live] * b[live]
    return out


def _check_terms(stage: int, terms: int):
    if terms > _MAX_TERMS:
        raise DimensionCapExceeded(
            f"composite stage {stage} would carry {terms} > {_MAX_TERMS} terms")


def _kronecker(parts, width: int):
    """The (targets, coeffs) arrays of the tensor product of a stage's
    parts, a Space part being the identity: column (i, j) of a (x) b holds
    the terms of column i of a times those of column j of b, a-major."""
    t = c = None
    for indim, outdim, m in parts:
        if m is None:
            x = np.arange(indim, dtype=np.int64)[:, None]
            y = np.ones((indim, 1), dtype=np.int8)
        else:
            x, y = m.targets, m.coeffs
        if t is None:
            t, c = x.astype(_index_type(width), copy=False), y
            continue
        shape = (t.shape[0] * indim, t.shape[1] * x.shape[1])
        _check_terms(0, shape[0] * shape[1])
        t = (t[:, None, :, None] * outdim + x[None, :, None, :]).reshape(shape)
        c = _times(c[:, None, :, None], y[None, :, None, :]).reshape(shape)
    return t, c


def _gather(s: int, parts, coords, c, width: int):
    """Stage s on the terms whose coordinate in part p is coords[p]: each
    map part gathers its columns there, one term staying one term when it
    has k = 1 and becoming k terms otherwise, and the outputs are joined
    into the new index, below ``width``."""
    n = c.shape[0]
    for p, (_, outdim, m) in enumerate(parts):
        x = coords[p]
        if m is not None:
            x = x.astype(np.int64, copy=False)
            k = m.coeffs.shape[1]
            if k == 1:
                c = _times(c, m.coeffs[:, 0][x])
                x = m.targets[:, 0][x]
            else:
                size = c.shape[1] * k
                _check_terms(s, n * size)
                c = _times(c[:, :, None], m.coeffs[x]).reshape(n, size)
                x = m.targets[x].reshape(n, size)
                if p:
                    t = np.repeat(t, k, axis=1)
                coords[p + 1:] = [np.repeat(y, k, axis=1)
                                  for y in coords[p + 1:]]
        t = (x.astype(_index_type(width), copy=False) if p == 0
             else t * outdim + x)
    return t, c


def composite_map(dom: Space, cod: Space, stages) -> LinMap:
    """Evaluate a pipeline of stages on each domain basis vector.

    Each stage is either a LinMap (applied directly) or a list of tensor
    parts, where a part is a LinMap or a Space (identity on that factor).
    Stages apply left to right, so ``[f, g]`` is the composite g . f.
    Intermediate spaces are never constructed -- only index arithmetic --
    which keeps laws like (mul x mul).(id x R x id).(comul x comul)
    tractable on large group algebras.  A stage must take the width the
    one before it gives, and nothing else about its domain is read, so
    unit factors are strict: ``[[unit, V], rho]`` runs on V directly.

    Domain column j is carried as K terms, rows j of an index array t and
    a coefficient array c.  The first stage is the Kronecker product of
    its parts' column arrays (a Space part is the identity, a LinMap stage
    its own arrays), built on the basis directly.  A later LinMap stage
    gathers its columns at t; a later list of parts splits each index
    into its factors' coordinates and gathers each map's column.  A
    gather is one lookup when the map has k = 1, else each term becomes k
    terms.  Terms that may share an index (K > 1) or hold rational
    coefficients are summed by ``_pack``, so a pipeline of monomial maps
    stays at K <= 1 and never packs.  Indices hold Python ints while a
    width passes int64.  A stage past _MAX_TERMS terms raises
    DimensionCapExceeded before it is allocated.
    """
    n = width = dom.dim
    t = c = None
    for s, stage in enumerate(stages or [[dom]]):
        if isinstance(stage, LinMap):
            if stage.dom.dim != width:
                raise DimensionMismatch(f"a stage does not take width {width}")
            width = stage.cod.dim
            if t is None:
                t, c = stage.targets, stage.coeffs
                continue                    # canonical already
            t, c = _gather(s, [(None, width, stage)], [t], c, width)
        else:
            parts = [(p.dom.dim, p.cod.dim, p) if isinstance(p, LinMap)
                     else (p.dim, p.dim, None)      # a Space: the identity
                     for p in stage]
            if math.prod(p[0] for p in parts) != width:
                raise DimensionMismatch(f"a stage does not take width {width}")
            width = math.prod(p[1] for p in parts)
            if t is None:
                t, c = _kronecker(parts, width)
            else:
                coords = []
                for indim, _, _ in reversed(parts[1:]):
                    coords.append(t % indim)
                    t = t // indim
                t, c = _gather(s, parts, [t] + coords[::-1], c, width)
        if c.shape[1] > 1 or c.dtype == object:
            t, c = _pack(n, np.repeat(np.arange(n), c.shape[1]),
                         t.ravel(), c.ravel())
    if c.shape[1] == 1 and c.dtype != object and not (n and c.all()):
        t = np.where(c != 0, t, 0)[:, :int(c.any())]
        c = c[:, :t.shape[1]]
    # every target is below the width, so only a wider pipeline can escape
    if width > cod.dim and t.size and t.max() >= cod.dim:
        raise DimensionMismatch("composite lands outside codomain")
    return LinMap._of(dom, cod, t.astype(_index_type(cod.dim), copy=False), c)


# -- elimination ------------------------------------------------------


class RowReducer:
    """RREF of a list of sparse rows with the reducing transform, built once.

    ``R[r]`` is reduced row r and ``T[r]`` its coefficients over the input
    rows.  A column->rows occupancy index keeps elimination near-linear for
    the permutation-like matrices that group-algebra structure maps
    produce, and only columns that hold an entry are visited.
    """

    def __init__(self, rows, ncols: int):
        self.ncols = ncols
        R = [dict(r) for r in rows]
        T = [{i: 1} for i in range(len(R))]
        occ: dict = {}
        for ri, row in enumerate(R):
            for c in row:
                occ.setdefault(c, set()).add(ri)

        def axpy(dst, src, factor, row=None):
            """dst -= factor * src, keeping occ current when dst is R[row]."""
            for c, v in src.items():
                nv = dst.get(c, 0) - factor * v
                if nv:
                    if row is not None and c not in dst:
                        occ[c].add(row)
                    dst[c] = nv
                elif c in dst:
                    del dst[c]
                    if row is not None:
                        occ[c].discard(row)

        pivots = []
        in_pivot = set()
        # fill-in only reaches columns some row already holds, so the
        # occupied columns are all known before elimination starts
        for col in sorted(occ):
            pr = min((r for r in occ[col] if r not in in_pivot), default=None)
            if pr is None:
                continue
            pv = R[pr][col]
            if pv != 1:
                inv = _div(1, pv)
                R[pr] = {c: inv * v for c, v in R[pr].items()}
                T[pr] = {c: inv * v for c, v in T[pr].items()}
            for r in list(occ[col]):
                if r == pr:
                    continue
                factor = R[r][col]
                axpy(R[r], R[pr], factor, r)
                axpy(T[r], T[pr], factor)
            pivots.append((pr, col))
            in_pivot.add(pr)
        self.R, self.T, self.pivots = R, T, pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def retraction(self, dom: Space, cod: Space) -> LinMap:
        """dom -> cod, v in the row span to x with v == sum_k x[k] rows[k].

        It reads v only at pivot columns, so callers check by mapping back;
        input rows that reduce to zero get coordinate 0."""
        return LinMap(dom, cod, {c: self.T[r] for r, c in self.pivots})

    def kernel_columns(self):
        """Deterministic kernel basis: each vector has +1 leading entry."""
        pivot_cols = {pc for _, pc in self.pivots}
        out = []
        for fc in range(self.ncols):
            if fc in pivot_cols:
                continue
            vec = {fc: 1}
            for pr, pc in self.pivots:
                v = self.R[pr].get(fc)
                if v:
                    vec[pc] = -v
            lead = min(vec)
            lv = vec[lead]
            if lv != 1:
                vec = {c: _div(v, lv) for c, v in vec.items()}
            out.append((lead, fc, vec))
        out.sort(key=lambda t: (t[0], t[1]))
        return [vec for _, _, vec in out]


def _row_reduction(m: LinMap) -> RowReducer:
    """RowReducer of the nonzero rows of m."""
    rows: dict = {}
    for i, j, v in m.items():
        rows.setdefault(i, {})[j] = v
    return RowReducer(list(rows.values()), m.dom.dim)


def rank(m: LinMap) -> int:
    if m.coeffs.shape[1] <= 1:
        # each column is zero or one entry: count the distinct targets
        return np.unique(m.targets[m.coeffs != 0]).size
    return _row_reduction(m).rank


def solve(a: LinMap, b: LinMap):
    """X with a @ X == b, or None if unsolvable.

    X is the retraction of a reduction of a's columns applied to b, so a
    column of a that the reduction finds dependent gets coordinate zero.
    """
    if a.cod != b.cod:
        raise DimensionMismatch("solve: codomains differ")
    red = RowReducer([a.column(j) for j in range(a.dom.dim)], a.cod.dim)
    x = red.retraction(a.cod, a.dom) @ b
    return x if a @ x == b else None


def try_inverse(m: LinMap):
    """Exact inverse, or None when singular (or not square)."""
    if m.dom.dim != m.cod.dim:
        return None
    return solve(m, LinMap.identity(m.cod))


class Subspace:
    """A subspace as its inclusion into an ambient space and a retraction.

    ``retraction @ inclusion`` is the identity, and an ambient vector lies
    in the subspace exactly when ``inclusion @ retraction`` fixes it, so
    each question about the subspace is a composite and an equality.  The
    carrier gets its own Space: a basis column that is a plain unit vector
    inherits the ambient label, any other is ``name`` and its index (sub0,
    sub1, ... by default).  The zero subspace (the kernel of an injective
    map) has a 0-dimensional carrier and an inclusion with no columns.
    """

    def __init__(self, ambient: Space, columns, name: str = "sub"):
        self.ambient = ambient
        cols = [{i: v for i, v in c.items() if v} for c in columns]
        carrier = Space([ambient.label(next(iter(c)))
                         if list(c.values()) == [1] else f"{name}{k}"
                         for k, c in enumerate(cols)])
        self.space = carrier
        self.inclusion = LinMap(carrier, ambient, dict(enumerate(cols)))
        red = RowReducer(cols, ambient.dim)
        if red.rank != len(cols):
            raise ValueError("subspace columns are dependent")
        self.retraction = red.retraction(ambient, carrier)

    @classmethod
    def _of_maps(cls, inclusion: LinMap, retraction: LinMap) -> "Subspace":
        """The subspace with these two maps, taken as given."""
        out = cls.__new__(cls)
        out.ambient, out.space = inclusion.cod, inclusion.dom
        out.inclusion, out.retraction = inclusion, retraction
        return out

    @property
    def dim(self) -> int:
        return self.space.dim

    def _retract(self, m: LinMap):
        """(retraction @ m, first column of m outside or None)"""
        if m.cod != self.ambient:
            raise DimensionMismatch("codomain is not the ambient space")
        x = self.retraction @ m
        diff = (self.inclusion @ x).first_difference(m)
        return x, None if diff is None else diff[1]

    def first_outside(self, m: LinMap):
        """The first column of m: X -> ambient outside the subspace, or None."""
        return self._retract(m)[1]

    def contains_vector(self, vec: dict) -> bool:
        column = LinMap(SCALAR, self.ambient, {0: vec})
        return self.first_outside(column) is None

    def corestrict(self, m: LinMap, what: str = "map") -> LinMap:
        """Rewrite m: X -> ambient as X -> carrier; ClosureFailure if it escapes."""
        x, bad = self._retract(m)
        if bad is not None:
            raise ClosureFailure(
                f"{what}: image of basis vector {m.dom.label(bad)!r} "
                f"is not in the subspace")
        if not self.dim:
            raise ClosureFailure(f"{what}: the subspace is zero-dimensional")
        return x

    def equals(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces of different spaces")
        return (self.dim == other.dim
                and self.first_outside(other.inclusion) is None)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient!r})"


def kernel_basis(m: LinMap) -> Subspace:
    """ker(m) as a Subspace of dom(m), deterministic reduced basis."""
    return Subspace(m.dom, _row_reduction(m).kernel_columns())


def unit_kernel(m: LinMap):
    """ker(m) as kernel_basis gives it when no row of m holds two entries,
    else None.  Each column with an entry is then a pivot of its own, so
    the basis is the unit vectors of m's zero columns, and the inclusion
    and retraction are built as monomial maps without a reduction."""
    rows = m.targets[m.coeffs != 0]
    if np.unique(rows).size != rows.size:
        return None
    zero = np.flatnonzero(~m.coeffs.any(axis=1))
    carrier = Space([m.dom.label(j) for j in zero.tolist()])
    back = np.zeros(m.dom.dim, dtype=np.int64)
    back[zero] = np.arange(zero.size)
    signs = np.zeros(m.dom.dim, dtype=np.int8)
    signs[zero] = 1
    return Subspace._of_maps(LinMap.from_monomial(carrier, m.dom, zero),
                             LinMap.from_monomial(m.dom, carrier, back, signs))


def full_subspace(space: Space) -> Subspace:
    """The whole space viewed as a subspace of itself (identity inclusion)."""
    ident = LinMap.identity(space)
    return Subspace._of_maps(ident, ident)


def tensor_subspace(a: Subspace, b: Subspace) -> Subspace:
    """a (x) b inside ambient(a) (x) ambient(b), carrier = tensor of carriers.

    Basis order is a-major, matching tensor_space index encoding, so
    corestricting into the result lines up with maps into the carriers'
    tensor space.  Both maps are tensor products of the factors' maps.
    """
    return Subspace._of_maps(a.inclusion.tensor(b.inclusion),
                             a.retraction.tensor(b.retraction))
