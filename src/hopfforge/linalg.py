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
  merely has the same dimension does not.

Large structural maps (e.g. id (x) R (x) id on a fourth tensor power) must
never be materialised; ``composite_map`` evaluates a whole pipeline of
tensor stages instead.  When every map in it is monomial (each column zero
or a single +-1, as the structure maps, faces and degeneracies of group
algebras are), the pipeline runs on numpy index arrays, one gather per
factor, and its result is stored as such arrays; otherwise it runs column
by column on sparse vectors.

A ``Subspace`` is its inclusion and a retraction onto its basis; membership,
corestriction and subspace equality are composites of them and an equality.
``solve`` and ``try_inverse`` retract onto a reduction of the map's columns.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import ClosureFailure, DimensionCapExceeded, DimensionMismatch

# to_rows and Space.labels refuse to materialise more cells or labels than
# this; a 216 x 46656 list of rows is already ten million scalars.
_MAX_CELLS = 1_048_576

# index arrays are int64, so an index range past this stays on sparse vectors
_MAX_INDEX = np.iinfo(np.int64).max

# LinMap._mono before monomial() has looked at the columns
_UNKNOWN = object()


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
            if not lab:
                raise ValueError("zero-dimensional spaces are not supported")
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


def _decode(idx: int, dims) -> list:
    out = []
    for d in reversed(dims):
        idx, r = divmod(idx, d)
        out.append(r)
    out.reverse()
    return out


def _encode(coords, dims) -> int:
    idx = 0
    for c, d in zip(coords, dims):
        idx = idx * d + c
    return idx


class LinMap:
    """Exact linear map between two spaces.

    ``__init__`` stores a dict column -> {row: value} with zero entries
    and zero columns omitted, every value passed through ``rat``; such a
    map works out its array form on first use, see ``monomial``.  A map
    built by ``from_monomial`` is stored as its arrays only, and builds
    the dict the first time something asks for one: ``column``, ``nnz``,
    ``is_zero`` and ``first_difference`` read the arrays instead.
    """

    __slots__ = ("dom", "cod", "_dict", "_mono")

    def __init__(self, dom: Space, cod: Space, cols: dict):
        self.dom = dom
        self.cod = cod
        clean = {}
        for j, col in cols.items():
            c = {i: w for i, v in col.items()
                 if (w := v if type(v) is int else rat(v))}
            if c:
                clean[j] = c
        self._dict = clean
        self._mono = _UNKNOWN

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
        vector targets[j], for int64 arrays; stored as those arrays, with
        no column dict and without the pass of __init__."""
        if signs is None:
            signs = np.ones(dom.dim, dtype=np.int8)
        live = np.flatnonzero(signs)
        rows = targets[live]
        if rows.size and int(rows.max()) >= cod.dim:
            raise DimensionMismatch("monomial map lands outside its codomain")
        out = cls.__new__(cls)
        out.dom, out.cod = dom, cod
        out._dict = None
        out._mono = (np.where(signs != 0, targets, 0), signs)
        return out

    @classmethod
    def identity(cls, space: Space) -> "LinMap":
        return iso_map(space, space)

    @classmethod
    def zero(cls, dom: Space, cod: Space) -> "LinMap":
        return cls(dom, cod, {})

    # -- access -------------------------------------------------------

    @property
    def _cols(self) -> dict:
        """column -> {row: value}, built from the arrays on first use."""
        if self._dict is None:
            t, s = self._mono
            live = np.flatnonzero(s)
            self._dict = {j: {i: v} for j, i, v in zip(
                live.tolist(), t[live].tolist(), s[live].tolist())}
        return self._dict

    def column(self, j: int) -> dict:
        """Column as {row: value}; treat the result as read-only."""
        if self._dict is None:
            t, s = self._mono
            return {int(t[j]): int(s[j])} if 0 <= j < s.size and s[j] else {}
        return self._dict.get(j, {})

    def items(self):
        """Iterate nonzero entries as (row, col, value)."""
        for j, col in self._cols.items():
            for i, v in col.items():
                yield i, j, v

    def monomial(self):
        """The map as index arrays (targets, signs), or None.

        Column j is signs[j] times basis vector targets[j]; a zero column
        has sign 0 and target 0, so equal maps have equal arrays.  None
        when a column has two entries or a value other than +-1.  Worked
        out on first use and kept: treat the arrays as read-only.
        """
        if self._mono is _UNKNOWN:
            self._mono = _monomial_view(self)
        return self._mono

    @property
    def nnz(self) -> int:
        if self._dict is None:
            return int(np.count_nonzero(self._mono[1]))
        return sum(len(col) for col in self._dict.values())

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
        cols = {j: dict(col) for j, col in self._cols.items()}
        for i, j, v in other.items():
            dst = cols.setdefault(j, {})
            dst[i] = dst.get(i, 0) - v
        return LinMap(self.dom, self.cod, cols)

    def is_zero(self) -> bool:
        if self._dict is None:
            return not self._mono[1].any()
        return not self._dict

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
        vector on which the two sides of a law first disagree.  When both
        maps have arrays of one width, they name the first differing column.
        """
        va, vb = self._mono, other._mono
        if (type(va) is tuple and type(vb) is tuple
                and va[1].size == vb[1].size):
            (ta, sa), (tb, sb) = va, vb
            js = np.flatnonzero((ta != tb) | (sa != sb))[:1].tolist()
        else:
            js = sorted(set(self._cols) | set(other._cols))
        for j in js:
            ca, cb = self.column(j), other.column(j)
            if ca == cb:
                continue
            for i in sorted(set(ca) | set(cb)):
                va, vb = ca.get(i, 0), cb.get(i, 0)
                if va != vb:
                    return i, j, va, vb
        return None

    def __repr__(self):
        return f"LinMap({self.dom.dim}->{self.cod.dim}, nnz={self.nnz})"


def _monomial_view(m: LinMap):
    """(targets, signs) of ``m`` for LinMap.monomial, or None."""
    n, rows, cols = m.dom.dim, m.cod.dim, m._cols
    if rows > _MAX_INDEX or any(len(c) != 1 for c in cols.values()):
        return None
    targets = np.zeros(n, dtype=np.int64)
    signs = np.zeros(n, dtype=np.int8)
    if not cols:
        return targets, signs
    js = list(cols)
    idx, vals = zip(*(e for c in cols.values() for e in c.items()))
    if (min(js) < 0 or max(js) >= n or min(idx) < 0 or max(idx) >= rows
            or not set(vals) <= {1, -1}):
        return None
    targets[js] = idx
    signs[js] = vals
    return targets, signs


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


# -- column-wise evaluation of big composites -------------------------


def _stage_parts(stage):
    """Normalise one tensor stage to [(in_dim, out_dim, map_or_None)]."""
    parts = []
    for p in stage:
        if isinstance(p, Space):
            parts.append((p.dim, p.dim, None))
        elif isinstance(p, LinMap):
            parts.append((p.dom.dim, p.cod.dim, p))
        else:
            raise TypeError(f"bad tensor-stage part {p!r}")
    return parts


def _apply_tensor_stage(parts, vec: dict) -> dict:
    in_dims = [p[0] for p in parts]
    out_dims = [p[1] for p in parts]
    out: dict = {}
    for idx, v in vec.items():
        coords = _decode(idx, in_dims)
        factor_terms = []
        dead = False
        for (indim, outdim, m), c in zip(parts, coords):
            if m is None:
                factor_terms.append(((c, 1),))
            else:
                col = m.column(c)
                if not col:
                    dead = True
                    break
                factor_terms.append(tuple(col.items()))
        if dead:
            continue
        for combo in itertools.product(*factor_terms):
            w = v
            for _, cv in combo:
                w = w * cv
            o = _encode([t[0] for t in combo], out_dims)
            nv = out.get(o, 0) + w
            if nv:
                out[o] = nv
            elif o in out:
                del out[o]
    return out


def composite_map(dom: Space, cod: Space, stages) -> LinMap:
    """Evaluate a pipeline of stages on each domain basis vector.

    Each stage is either a LinMap (applied directly) or a list of tensor
    parts, where a part is a LinMap or a Space (identity on that factor).
    Stages apply left to right, so ``[f, g]`` is the composite g . f.
    Intermediate spaces are never constructed -- only index arithmetic --
    which keeps laws like (mul x mul).(id x R x id).(comul x comul)
    tractable on large group algebras.  A pipeline of monomial maps runs
    on index arrays (``_monomial_composite``), any other on sparse
    vectors (``_sparse_composite``); both give the same LinMap.
    """
    stages = [_stage_parts([st] if isinstance(st, LinMap) else st)
              for st in stages]
    out = _monomial_composite(dom, cod, stages)
    return _sparse_composite(dom, cod, stages) if out is None else out


def _sparse_composite(dom: Space, cod: Space, stages) -> LinMap:
    """composite_map column by column on sparse vectors, for any maps."""
    cols = {}
    for j in range(dom.dim):
        vec = {j: 1}
        for parts in stages:
            vec = _apply_tensor_stage(parts, vec)
            if not vec:
                break
        if vec:
            if max(vec) >= cod.dim:
                raise DimensionMismatch("composite lands outside codomain")
            cols[j] = vec
    return LinMap(dom, cod, cols)


def _monomial_composite(dom: Space, cod: Space, stages):
    """composite_map on index arrays, or None when a map is not monomial,
    a stage does not take the previous one's output, or an index range
    would pass int64.

    Each domain column is one (index, sign) pair.  A stage splits the
    index into its factors' coordinates, sends each through its map as a
    gather of targets and signs, and joins them again; a zero column
    leaves sign 0, so the term drops out as on sparse vectors.
    """
    plan = []
    width = dom.dim
    for parts in stages:
        if width > _MAX_INDEX or math.prod(p[0] for p in parts) != width:
            return None
        step = []
        for indim, outdim, m in parts:
            view = None if m is None else m.monomial()
            if m is not None and view is None:
                return None
            step.append((indim, outdim, view))
        plan.append(step)
        width = math.prod(p[1] for p in parts)
    if width > _MAX_INDEX:
        return None
    t = np.arange(dom.dim, dtype=np.int64)
    s = np.ones(dom.dim, dtype=np.int8)
    for step in plan:
        coords = []
        for indim, _, _ in reversed(step[1:]):
            t, c = np.divmod(t, indim)
            coords.append(c)
        coords.append(t)
        t = 0
        for (_, outdim, view), c in zip(step, reversed(coords)):
            if view is not None:
                c, s = view[0][c], s * view[1][c]
            t = t * outdim + c
    if np.any(t[s != 0] >= cod.dim):
        raise DimensionMismatch("composite lands outside codomain")
    return LinMap.from_monomial(dom, cod, t, s)


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
    sub1, ... by default).  A zero-dimensional subspace (the kernel of an injective
    map) has no carrier and no maps: all three are None.
    """

    def __init__(self, ambient: Space, columns, name: str = "sub"):
        self.ambient = ambient
        cols = [{i: v for i, v in c.items() if v} for c in columns]
        self.space = self.inclusion = self.retraction = None
        if not cols:
            return
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
        return 0 if self.space is None else self.space.dim

    def _retract(self, m: LinMap):
        """(retraction @ m or None at dim 0, first column of m outside or None)"""
        if m.cod != self.ambient:
            raise DimensionMismatch("codomain is not the ambient space")
        if self.space is None:
            return None, min(m._cols, default=None)
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
        if x is None:
            raise ClosureFailure(f"{what}: the subspace is zero-dimensional")
        return x

    def equals(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces of different spaces")
        return self.dim == other.dim and (
            other.dim == 0 or self.first_outside(other.inclusion) is None)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient!r})"


def kernel_basis(m: LinMap) -> Subspace:
    """ker(m) as a Subspace of dom(m), deterministic reduced basis."""
    return Subspace(m.dom, _row_reduction(m).kernel_columns())


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
