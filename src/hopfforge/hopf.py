"""Hopf algebras as structure-constant tensors, plus finite groups.

A HopfAlgebra is five LinMaps (mul, unit, comul, counit, antipode) over a
labelled space.  The axiom checker reads the braiding of the bialgebra
compatibility law from ``self_braiding()``: the flip for a HopfAlgebra,
the Yetter-Drinfeld braiding R' for a BraidedHopfAlgebra (see the yd
module), so the same code verifies both.  Checks never assume the laws
hold -- they report the first failing entry as a witness.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (DimensionCapExceeded, DimensionMismatch, InvalidGroup,
                     NonInvertibleAntipode, NotAProjection)
from .linalg import (SCALAR, LinMap, Space, composite_map, flip, iso_map,
                     left_unitor, rank, right_unitor, tensor_space)
from .report import Report

_ENV_CAP = "HOPFFORGE_MAX_DIM"
_DEFAULT_CAP = 512


def max_dim() -> int:
    """Dimension cap for constructed objects (HOPFFORGE_MAX_DIM, default 512)."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return _DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise DimensionCapExceeded(f"{_ENV_CAP} must be an integer, got {raw!r}")


def check_cap(dim: int, what: str):
    """DimensionCapExceeded (exit 2) when ``what`` would exceed max_dim()."""
    cap = max_dim()
    if dim > cap:
        raise DimensionCapExceeded(
            f"{what} has dimension {dim} > {_ENV_CAP}={cap}")


class HopfAlgebra:
    """Structure constants of a Hopf algebra in Vect.

    A singular antipode is rejected outright.
    """

    def __init__(self, space: Space, mul: LinMap, unit: LinMap, comul: LinMap,
                 counit: LinMap, antipode: LinMap, *, name: str = "H"):
        check_cap(space.dim, name)
        sq = tensor_space(space, space)
        shapes = [
            ("mul", mul, sq, space),
            ("unit", unit, SCALAR, space),
            ("comul", comul, space, sq),
            ("counit", counit, space, SCALAR),
            ("antipode", antipode, space, space),
        ]
        for what, m, dom, cod in shapes:
            if m.dom != dom or m.cod != cod:
                raise DimensionMismatch(
                    f"{name}.{what}: expected {dom!r} -> {cod!r}, "
                    f"got {m.dom!r} -> {m.cod!r}")
        self.space = space
        self.mul = mul
        self.unit = unit
        self.comul = comul
        self.counit = counit
        self.antipode = antipode
        self.name = name
        self._braiding = None
        if rank(antipode) != space.dim:
            raise NonInvertibleAntipode(f"{name}: antipode matrix is singular")

    @property
    def dim(self) -> int:
        return self.space.dim

    def self_braiding(self) -> LinMap:
        """The carrier's braiding with itself, built once and kept."""
        if self._braiding is None:
            self._braiding = self._build_braiding()
        return self._braiding

    def _build_braiding(self) -> LinMap:
        """The flip in Vect."""
        return flip(self.space, self.space)

    def __repr__(self):
        return f"HopfAlgebra({self.name}, dim={self.dim})"


def check_hopf(h: HopfAlgebra) -> Report:
    """All Hopf axioms, with ``h.self_braiding()`` in the compatibility law.

    Includes a non-fatal cocommutativity info line.  Cost grows with dim^3
    (associativity quantifies over H^3), so this is meant for moderate
    dimensions; simplicial levels are checked through morphism laws instead.
    """
    rep = Report(f"check-hopf {h.name}")
    S = h.space
    mul, unit, comul, counit, ant = h.mul, h.unit, h.comul, h.counit, h.antipode
    R = h.self_braiding()
    sq = tensor_space(S, S)
    cube = tensor_space(S, S, S)

    rep.equality("associativity",
                 composite_map(cube, S, [[mul, S], mul]),
                 composite_map(cube, S, [[S, mul], mul]))
    rep.equality("unit-left",
                 composite_map(tensor_space(SCALAR, S), S, [[unit, S], mul]),
                 iso_map(tensor_space(SCALAR, S), S))
    rep.equality("unit-right",
                 composite_map(tensor_space(S, SCALAR), S, [[S, unit], mul]),
                 iso_map(tensor_space(S, SCALAR), S))
    rep.equality("coassociativity",
                 composite_map(S, cube, [comul, [comul, S]]),
                 composite_map(S, cube, [comul, [S, comul]]))
    rep.equality("counit-left",
                 composite_map(S, tensor_space(SCALAR, S), [comul, [counit, S]]),
                 left_unitor(S))
    rep.equality("counit-right",
                 composite_map(S, tensor_space(S, SCALAR), [comul, [S, counit]]),
                 right_unitor(S))
    rep.equality("comul-mul-compatibility",
                 composite_map(sq, sq, [mul, comul]),
                 composite_map(sq, sq, [[comul, comul], [S, R, S], [mul, mul]]))
    rep.equality("comul-unit",
                 comul @ unit, composite_map(SCALAR, sq, [[unit, unit]]))
    rep.equality("counit-mul",
                 composite_map(sq, SCALAR, [mul, counit]),
                 composite_map(sq, SCALAR, [[counit, counit]]))
    rep.equality("counit-unit", counit @ unit, LinMap.identity(SCALAR))
    eta_eps = unit @ counit
    rep.equality("antipode-left",
                 composite_map(S, S, [comul, [ant, S], mul]), eta_eps)
    rep.equality("antipode-right",
                 composite_map(S, S, [comul, [S, ant], mul]), eta_eps)
    rep.add("antipode-invertible", True)   # a singular one fails construction
    rep.info("cocommutative", str(check_cocommutative(h)))
    return rep


def check_cocommutative(h: HopfAlgebra) -> bool:
    """True iff braiding . comul == comul exactly."""
    return (h.self_braiding() @ h.comul) == h.comul


class HopfMorphism:
    """A linear map between Hopf algebras, claimed to respect the structure.

    ``laws()``, check_morphism's report, is computed once and kept on this
    morphism with what it read: the map, its arrays, both algebras, their
    spaces and structure maps.  Replacing any of them voids it."""

    def __init__(self, src: HopfAlgebra, dst: HopfAlgebra, lin: LinMap,
                 name: str = "f"):
        if lin.dom != src.space or lin.cod != dst.space:
            raise DimensionMismatch(
                f"{name}: matrix is {lin.dom!r}->{lin.cod!r}, expected "
                f"{src.space!r}->{dst.space!r}")
        self.src = src
        self.dst = dst
        self.lin = lin
        self.name = name
        self._laws = None      # (what check_morphism read, its checks)

    def laws(self) -> Report:
        """check_morphism(self), evaluated again only when an input changed."""
        f, s, d = self.lin, self.src, self.dst
        read = (f, f.targets, f.coeffs,
                s, s.space, s.mul, s.unit, s.comul, s.counit, s.antipode,
                d, d.space, d.mul, d.unit, d.comul, d.counit, d.antipode)
        if self._laws is None or any(
                a is not b for a, b in zip(self._laws[0], read)):
            self._laws = read, check_morphism(self).checks
        return Report(f"check-morphism {self.name}", list(self._laws[1]))

    def __repr__(self):
        return f"HopfMorphism({self.name}: {self.src.name}->{self.dst.name})"


def check_morphism(m: HopfMorphism) -> Report:
    """The five compatibility squares of a Hopf algebra map, evaluated on
    every call; ``m.laws()`` computes them once per morphism and reuses
    them, and verify_simplicial and HopfProjection read them that way."""
    rep = Report(f"check-morphism {m.name}")
    s, d, f = m.src, m.dst, m.lin
    src_sq = tensor_space(s.space, s.space)
    dst_sq = tensor_space(d.space, d.space)
    rep.equality("respects-mul",
                 composite_map(src_sq, d.space, [s.mul, f]),
                 composite_map(src_sq, d.space, [[f, f], d.mul]))
    rep.equality("respects-unit", f @ s.unit, d.unit)
    rep.equality("respects-comul",
                 composite_map(s.space, dst_sq, [s.comul, [f, f]]),
                 composite_map(s.space, dst_sq, [f, d.comul]))
    rep.equality("respects-counit", d.counit @ f, s.counit)
    rep.equality("respects-antipode", f @ s.antipode, d.antipode @ f)
    return rep


def zero_morphism(src: HopfAlgebra, dst: HopfAlgebra) -> HopfMorphism:
    """unit . counit -- the zero map of the convolution monoid."""
    return HopfMorphism(src, dst, dst.unit @ src.counit, name="zeta")


class HopfProjection:
    """A split pair proj: I -> H, incl: H -> I with proj . incl == id.

    Both legs must be actual Hopf morphisms; violations raise NotAProjection
    so downstream theorems never run on junk.  A leg is a LinMap, or a
    HopfMorphism between the same algebras whose laws, computed once per
    morphism, are reused.  Either way the legs are kept as morphisms named
    ``<name>.proj`` and ``<name>.incl``, the prefixes of their checks.
    """

    def __init__(self, big: HopfAlgebra, small: HopfAlgebra, proj, incl,
                 name: str = "p"):
        self.big = big
        self.small = small
        self.name = name
        legs = []
        for what, leg, src, dst in (("proj", proj, big, small),
                                    ("incl", incl, small, big)):
            given = isinstance(leg, HopfMorphism)
            own = HopfMorphism(src, dst, leg.lin if given else leg,
                               name=f"{name}.{what}")
            if given and (leg.src is not src or leg.dst is not dst):
                raise DimensionMismatch(
                    f"{own.name}: {leg!r} does not run from {src.name} "
                    f"to {dst.name}")
            legs.append((own, leg if given else own))
        (self.proj, _), (self.incl, _) = legs
        rep = Report(name)
        rep.equality("proj-incl-is-identity", self.proj.lin @ self.incl.lin,
                     LinMap.identity(small.space))
        for own, laws_of in legs:
            rep.extend(laws_of.laws(), prefix=f"{own.name}/")
        rep.require(NotAProjection)

    def __repr__(self):
        return f"HopfProjection({self.big.name} -> {self.small.name})"


def adjoint_stages(h: HopfAlgebra) -> list:
    """The adjoint action a |> b = sum a' b S(a'') as composite_map stages
    from H (x) H to H.

    Radford's carrier action, the Peiffer pairing and the crossed-module
    action keep only a restriction of it, to H' (x) B for a small H' and a
    kernel B.  Such a caller puts its own inclusion stage in front and
    evaluates the pipeline on the small domain: materialising the action
    on all of H (x) H first and restricting afterwards would evaluate
    dim(H)^2 columns to keep a few (46,656 to keep 216 at level 2 of the
    S3 nerve).  The result is the same exact matrix either way.
    """
    S = h.space
    return [[h.comul, S], [S, h.self_braiding()], [S, S, h.antipode],
            [h.mul, S], h.mul]


def adjoint_action(h: HopfAlgebra) -> LinMap:
    """The adjoint action of h on itself, on the whole of H (x) H.

    On a group algebra it sends g (x) x to g x g^{-1}.  On a
    BraidedHopfAlgebra the braiding is R', which makes this the braided
    adjoint action.
    """
    S = h.space
    return composite_map(tensor_space(S, S), S, adjoint_stages(h))


# -- finite groups ----------------------------------------------------


class GroupTable:
    """A finite group as a Cayley table over labelled elements.

    Associativity, identity and inverses are verified at construction.
    Associativity uses Light's test: the elements a with (x.a).y ==
    x.(a.y) for all x, y form a submagma (F. W. Light; Clifford & Preston,
    *The Algebraic Theory of Semigroups* I, 1961), so it is checked only
    for a generating set, one n x n gather pair per generator.  The set,
    which leaves out the identity, is kept as ``generators``.
    """

    def __init__(self, labels, table, name: str = "G"):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise InvalidGroup(f"{name}: duplicate element labels")
        t = np.asarray(table, dtype=np.int64)
        if t.shape != (n, n):
            raise InvalidGroup(f"{name}: table shape {t.shape}, expected ({n},{n})")
        if t.min() < 0 or t.max() >= n:
            raise InvalidGroup(f"{name}: table entries out of range")
        # a two-sided identity e has e.0 == 0, so only those rows can be one
        idn = np.arange(n)
        cand = np.flatnonzero(t[:, 0] == 0)
        e = cand[(t[cand] == idn).all(axis=1)
                 & (t[:, cand] == idn[:, None]).all(axis=0)][:1]
        # Light's test reads a copy in the smallest dtype that holds n (the
        # same values in an eighth of the memory at order <= 256), and its
        # transpose, so that both sides are gathers of whole rows:
        # (x.a).y is row x.a of s, x.(a.y) row a.y of s transposed
        s = t.astype(np.min_scalar_type(n))
        st = np.ascontiguousarray(s.T)
        gens = _generators(s, e)
        if any((s[s[:, a]].T != st[s[a]]).any() for a in gens):
            raise InvalidGroup(f"{name}: multiplication is not associative")
        if not e.size:
            raise InvalidGroup(f"{name}: no identity element")
        self.identity = int(e[0])
        inv = np.full(n, -1, dtype=np.int64)
        rows, cols = np.divmod(np.flatnonzero(t == self.identity), n)
        inv[rows] = cols
        if (inv < 0).any():
            raise InvalidGroup(f"{name}: missing inverses")
        self.table = t
        self.inverse = inv
        self.generators = gens
        self.order = n
        self.name = name

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"GroupTable({self.name}, order={self.order})"


def _generators(t, reached_from) -> list:
    """A greedy generating set of the magma with table t, given that the
    elements ``reached_from`` are already reached: each element not yet
    reached joins, and the reached set is closed under right
    multiplication by the generators, so every other element is a
    product.  The identity may start reached, since it passes Light's
    test on its own."""
    gens = []
    reached = np.zeros(len(t), dtype=bool)
    reached[reached_from] = True
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        reached[g] = True
        right = t[:, gens]
        # products not formed yet: reached.g and g.gens, then fresh.gens
        new = np.concatenate((t[reached, g], right[g]))
        while new.size:
            fresh = np.zeros_like(reached)
            fresh[new] = True
            fresh &= ~reached
            reached |= fresh
            new = right[fresh].ravel()
    return gens


def trivial_group() -> GroupTable:
    return GroupTable(("1",), [[0]], name="1")


def cyclic_group(n: int) -> GroupTable:
    if n == 1:
        return trivial_group()
    labels = ["1", "g"] + [f"g{k}" for k in range(2, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable(labels, table, name=f"C{n}")


_S3_PERMS = [
    ("e", (0, 1, 2)),
    ("(12)", (1, 0, 2)),
    ("(13)", (2, 1, 0)),
    ("(23)", (0, 2, 1)),
    ("(123)", (1, 2, 0)),
    ("(132)", (2, 0, 1)),
]


def symmetric_group_3() -> GroupTable:
    """S3 with a fixed element order; composition acts right-to-left."""
    perms = np.array([p for _, p in _S3_PERMS])
    labels = [l for l, _ in _S3_PERMS]
    # a permutation's index, looked up by its base-3 digits
    lookup = np.zeros(27, dtype=np.int64)
    lookup[perms @ [9, 3, 1]] = np.arange(6)
    # entry [p, q] is p . q: k -> p[q[k]]
    return GroupTable(labels, lookup[perms[:, perms] @ [9, 3, 1]], name="S3")


def s3_sign_indices() -> list:
    """Parity of each element of symmetric_group_3 (0 even, 1 odd)."""
    out = []
    for _, p in _S3_PERMS:
        parity = sum(1 for a in range(3) for b in range(a + 1, 3)
                     if p[a] > p[b]) % 2
        out.append(parity)
    return out


def semidirect_product(m: GroupTable, n: GroupTable, action,
                       name=None) -> GroupTable:
    """M x| N with (m,n)(m',n') = (m * (n |> m'), n n').

    ``action[j][i]`` is the index of n_j |> m_i, an automorphism action of
    N on M.  Elements are ordered m-major and labelled "(m,n)".
    """
    act = np.asarray(action, dtype=np.int64)
    if act.shape != (n.order, m.order):
        raise InvalidGroup("semidirect: action table has wrong shape")
    labels = [f"({a},{b})" for a in m.labels for b in n.labels]
    # entry [i, j, i', j'] is the index of (m_i, n_j)(m_i', n_j')
    table = np.add((m.table[:, act] * n.order)[:, :, :, None],
                   n.table[:, None, :], order="C")
    return GroupTable(labels, table.reshape(len(labels), len(labels)),
                      name=name or f"{m.name}x|{n.name}")


def conjugation_action(g: GroupTable):
    """g |> x = g x g^{-1} as an action table of g on itself."""
    return g.table[g.table, g.inverse[:, None]]


def homomorphism_rows(src: GroupTable, dst: GroupTable, maps):
    """For a k x |src| array of dst indices, whether each row f has
    f(a b) == f(a) f(b) for all a, b in src.

    Only the columns b of the identity and the generators of src are
    compared: the b that pass form a submonoid of src (f(e) is then the
    identity, and dst is associative), and they generate all of src.
    """
    cols = [src.identity] + src.generators
    return (dst.table[maps[:, :, None], maps[:, cols][:, None, :]]
            == maps[:, src.table[:, cols]]).all(axis=(1, 2))


def check_group_hom(src: GroupTable, dst: GroupTable, images) -> bool:
    f = np.asarray(images, dtype=np.int64)
    if f.shape != (src.order,):
        return False
    if f.min() < 0 or f.max() >= dst.order:
        return False
    return bool(homomorphism_rows(src, dst, f[None])[0])


# -- Hopf algebras from the shelf -------------------------------------


def group_algebra(g: GroupTable) -> HopfAlgebra:
    """k[G]: basis = group elements, comul diagonal, antipode by inverse."""
    space = Space(g.labels)
    n = g.order
    sq = tensor_space(space, space)
    mul = LinMap.from_monomial(sq, space, g.table.ravel())
    unit = LinMap.from_monomial(SCALAR, space, np.array([g.identity]))
    comul = LinMap.from_monomial(space, sq, np.arange(n) * (n + 1))
    counit = LinMap.from_monomial(space, SCALAR, np.zeros(n, dtype=np.int64))
    antipode = LinMap.from_monomial(space, space, g.inverse)
    return HopfAlgebra(space, mul, unit, comul, counit, antipode,
                       name=f"k[{g.name}]")


def linearize_group_hom(src: HopfAlgebra, dst: HopfAlgebra, images,
                        name: str = "f") -> HopfMorphism:
    """Index map between group bases -> Hopf morphism of group algebras."""
    lin = LinMap.from_monomial(src.space, dst.space,
                               np.asarray(images, dtype=np.int64))
    return HopfMorphism(src, dst, lin, name=name)


def sweedler_algebra() -> HopfAlgebra:
    """The 4-dimensional algebra <g, x | g^2=1, x^2=0, xg=-gx>.

    Basis (1, g, x, gx); comul(g) = g(x)g, comul(x) = x(x)1 + g(x)x.
    The smallest Hopf algebra that is neither commutative nor cocommutative.
    """
    space = Space(("1", "g", "x", "gx"))
    I, G, X, GX = 0, 1, 2, 3
    prod = {
        (I, I): (I, 1), (I, G): (G, 1), (I, X): (X, 1), (I, GX): (GX, 1),
        (G, I): (G, 1), (G, G): (I, 1), (G, X): (GX, 1), (G, GX): (X, 1),
        (X, I): (X, 1), (X, G): (GX, -1), (X, X): None, (X, GX): None,
        (GX, I): (GX, 1), (GX, G): (X, -1), (GX, X): None, (GX, GX): None,
    }
    mul_entries = {}
    for (a, b), out in prod.items():
        if out is not None:
            tgt, coeff = out
            mul_entries[(tgt, a * 4 + b)] = coeff
    sq = tensor_space(space, space)
    mul = LinMap.from_entries(sq, space, mul_entries)
    unit = LinMap.from_entries(SCALAR, space, {(I, 0): 1})
    comul = LinMap.from_entries(space, sq, {
        (I * 4 + I, I): 1,
        (G * 4 + G, G): 1,
        (X * 4 + I, X): 1, (G * 4 + X, X): 1,
        (GX * 4 + G, GX): 1, (I * 4 + GX, GX): 1,
    })
    counit = LinMap.from_rows(space, SCALAR, [[1, 1, 0, 0]])
    antipode = LinMap.from_entries(space, space, {
        (I, I): 1, (G, G): 1, (GX, X): -1, (X, GX): 1,
    })
    return HopfAlgebra(space, mul, unit, comul, counit, antipode, name="H4")
