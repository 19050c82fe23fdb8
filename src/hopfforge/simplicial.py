"""Truncated simplicial Hopf algebras and the crossed modules hiding in them.

A simplicial Hopf algebra truncated at depth N is a chain of Hopf algebras
H_0 .. H_N with faces d_i: H_n -> H_{n-1} and degeneracies s_j: H_n -> H_{n+1}
(all Hopf morphisms) obeying the simplicial identities

    (1)  d_i d_j = d_{j-1} d_i          (i < j)
    (2)  s_i s_j = s_{j+1} s_i          (i <= j)
    (3)  d_i s_j = s_{j-1} d_i          (i < j)
         d_j s_j = d_{j+1} s_j = id
         d_i s_j = s_j d_{i-1}          (i > j + 1)

Every pair (d_j, s_j) or (d_{j+1}, s_j) is a split Hopf projection, so each
level carries Radford kernels A^n_(j,k) = RKer(d_j) with braided Hopf
structure over the level below.  This module builds those kernels, the
restricted face/degeneracy maps between them, the nested kernel A^2_(2,1),
the Peiffer pairing that generates it, and -- when A^2_(2,1) is trivial --
the braided Hopf crossed module d_1: A^1_(0,0) -> H_0.

Group-level inputs come from the nerve of a group crossed module
(par: M -> N, |>): level p is the iterated semidirect product
M x| (M x| (... x| N)), linearized level by level into group algebras.
The Moore-complex oracle recomputes the same answers by raw element
enumeration, giving the linear pipeline something independent to agree with.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ClosureFailure, DimensionMismatch, HypothesisFailed,
                     InvalidCrossedModule, InvalidGroup, UsageError,
                     closure_is_hypothesis)
from .linalg import LinMap, Subspace, composite_map, flip, tensor_space
from .report import Report
from .hopf import (GroupTable, HopfAlgebra, HopfMorphism, HopfProjection,
                   adjoint_action, adjoint_stages, check_group_hom,
                   conjugation_action, group_algebra, homomorphism_rows,
                   linearize_group_hom, semidirect_product)
from .yd import (BraidedHopfAlgebra, check_braided_map, check_yd,
                 pushforward_braided)
from .radford import (RKerResult, checked_generators, generator_maps,
                      induced_braided_hopf, kernel_structure, right_kernel)


# -- group crossed modules and their nerves ----------------------------


class GroupCrossedModule:
    """A group crossed module (par: M -> N, |>) given by index tables.

    ``boundary[i]`` is the N-index of par(m_i); ``action[j][i]`` the
    M-index of n_j |> m_i.  Construction verifies that par is a
    homomorphism, that N acts by automorphisms, and the two axioms

        equivariance   par(n |> m) = n par(m) n^-1
        Peiffer        par(m) |> m' = m m' m^-1

    raising InvalidCrossedModule with the first offending elements.
    """

    def __init__(self, m: GroupTable, n: GroupTable, boundary, action,
                 name: str = "X"):
        self.m = m
        self.n = n
        self.name = name
        bnd = np.asarray(boundary, dtype=np.int64)
        act = np.asarray(action, dtype=np.int64)
        if bnd.shape != (m.order,):
            raise InvalidCrossedModule(f"{name}: boundary has length "
                                       f"{bnd.shape}, expected ({m.order},)")
        if act.shape != (n.order, m.order):
            raise InvalidCrossedModule(f"{name}: action table is {act.shape}, "
                                       f"expected ({n.order}, {m.order})")
        if bnd.min() < 0 or bnd.max() >= n.order:
            raise InvalidCrossedModule(f"{name}: boundary indices out of range")
        if act.min() < 0 or act.max() >= m.order:
            raise InvalidCrossedModule(f"{name}: action indices out of range")
        if not check_group_hom(m, n, bnd):
            raise InvalidCrossedModule(f"{name}: boundary is not a homomorphism")
        idm = np.arange(m.order)
        if not np.array_equal(act[n.identity], idm):
            raise InvalidCrossedModule(
                f"{name}: the identity of {n.name} acts nontrivially")
        bijective = (np.sort(act, axis=1) == idm).all(axis=1)
        automorphic = homomorphism_rows(m, m, act)
        for j in np.flatnonzero(~(bijective & automorphic))[:1].tolist():
            what = "bijectively" if not bijective[j] else "by an automorphism"
            raise InvalidCrossedModule(
                f"{name}: {n.labels[j]!r} does not act {what}")
        if not np.array_equal(act[n.table], act[:, act]):
            raise InvalidCrossedModule(f"{name}: action does not compose, "
                                       "(n1 n2) |> m != n1 |> (n2 |> m)")
        conj = conjugation_action(n)[:, bnd]
        if not np.array_equal(bnd[act], conj):
            bad = np.argwhere(bnd[act] != conj)[0]
            raise InvalidCrossedModule(
                f"{name}: equivariance fails at n={n.labels[bad[0]]!r}, "
                f"m={m.labels[bad[1]]!r}")
        peiffer = conjugation_action(m)
        if not np.array_equal(act[bnd], peiffer):
            bad = np.argwhere(act[bnd] != peiffer)[0]
            raise InvalidCrossedModule(
                f"{name}: Peiffer identity fails at m={m.labels[bad[0]]!r}, "
                f"m'={m.labels[bad[1]]!r}")
        self.boundary = bnd
        self.action = act

    def __repr__(self):
        return (f"GroupCrossedModule({self.name}: {self.m.name}->"
                f"{self.n.name})")


def identity_crossed_module(g: GroupTable) -> GroupCrossedModule:
    """(id: G -> G, conjugation), the terminal example."""
    return GroupCrossedModule(g, g, list(range(g.order)),
                              conjugation_action(g), name=f"id[{g.name}]")


def _check_tower_shape(levels, faces, degens, name: str, error: type, joins):
    """Raise ``error`` unless levels 0..N (N >= 1) carry faces[n] = [d_0..d_n]
    (none at n = 0) and degens[n] = [s_0..s_n] (none at the top), each map
    passing ``joins(map, level n, level n -/+ 1)``; both tower classes."""
    depth = len(levels) - 1
    if depth < 1:
        raise error(f"{name}: need at least levels 0 and 1")
    if len(faces) != depth + 1 or len(degens) != depth + 1:
        raise error(f"{name}: faces/degens must list every level")
    if faces[0] or degens[depth]:
        raise error(f"{name}: faces[0] and degens[top] must be empty")
    for maps, what, sym, step, first in ((faces, "faces", "d", -1, 1),
                                         (degens, "degeneracies", "s", 1, 0)):
        for n in range(first, depth + first):
            if len(maps[n]) != n + 1:
                raise error(f"{name}: level {n} needs {n + 1} {what}")
            for i, m in enumerate(maps[n]):
                if not joins(m, levels[n], levels[n + step]):
                    raise error(f"{name}: {sym}{i}@{n} is not a morphism "
                                f"from level {n} to level {n + step}")


class TruncatedSimplicialGroup:
    """Levels 0..N of a simplicial group: Cayley tables plus index maps.

    ``faces[n]`` is [d_0 .. d_n] (level n to n-1, empty at n = 0) and
    ``degens[n]`` is [s_0 .. s_n] (level n to n+1, empty at the top), each
    an integer array over element indices.  Every map must be a
    homomorphism; the simplicial identities are *not* enforced here --
    they are the job of verify_simplicial after linearization, which keeps
    deliberately broken towers constructible for testing the checker.
    """

    def __init__(self, levels, faces, degens, name: str = "G"):
        self.levels = list(levels)
        self.name = name
        self.faces = [[np.asarray(a, dtype=np.int64) for a in fs]
                      for fs in faces]
        self.degens = [[np.asarray(a, dtype=np.int64) for a in ss]
                       for ss in degens]
        _check_tower_shape(
            self.levels, self.faces, self.degens, name, InvalidGroup,
            lambda arr, src, dst: arr.shape == (src.order,) and
            check_group_hom(src, dst, arr))

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def __repr__(self):
        orders = ", ".join(str(lv.order) for lv in self.levels)
        return f"TruncatedSimplicialGroup({self.name}: orders {orders})"


def nerve_of_crossed_module(x: GroupCrossedModule, depth: int = 3,
                            name: str = None) -> TruncatedSimplicialGroup:
    """The internal nerve of (par: M -> N, |>), truncated at ``depth``.

    Level p is M x| (M x| (... x| N)) with p copies of M; writing an
    element as (m_p, ..., m_1, n), the faces are

        d_0 = drop m_p,   d_i = merge m_{p-i+1} m_{p-i},   d_p: m_1 -> par(m_1)

    and s_j inserts an identity coordinate.  Each new level acts on M
    through the composite boundary delta(m_p, ..., n) = par(m_p)...par(m_1)n,
    which is where the Peiffer identity earns its keep: without it the
    face maps would not be homomorphisms.
    """
    if not 1 <= depth <= 3:
        raise UsageError(f"nerve depth must be 1..3, got {depth}")
    m, n = x.m, x.n
    bnd = x.boundary
    levels = [n]
    # delta[k][g] = N-index of the composite boundary of g in level k
    delta = np.arange(n.order, dtype=np.int64)
    faces = [[]]
    degens = []
    for k in range(1, depth + 1):
        prev = levels[k - 1]
        act = x.action[delta]                      # prev acts on M via delta
        nxt = semidirect_product(m, prev, act, name=f"{x.name}@{k}")
        levels.append(nxt)
        o_prev = prev.order
        idx = np.arange(nxt.order, dtype=np.int64)
        ms, gs = idx // o_prev, idx % o_prev
        level_faces = [gs.copy()]                  # d_0 drops the outer coordinate
        if k == 1:
            level_faces.append(n.table[bnd[ms], gs])
        else:
            o_pp = levels[k - 2].order
            m1s, rest = gs // o_pp, gs % o_pp
            level_faces.append(m.table[ms, m1s] * o_pp + rest)
            for i in range(2, k + 1):
                level_faces.append(ms * o_pp + faces[k - 1][i - 1][gs])
        faces.append(level_faces)
        level_degens = [m.identity * o_prev +
                        np.arange(o_prev, dtype=np.int64)]
        if k >= 2:
            o_pp = levels[k - 2].order
            pidx = np.arange(o_prev, dtype=np.int64)
            pms, pgs = pidx // o_pp, pidx % o_pp
            for j in range(1, k):
                level_degens.append(pms * levels[k - 1].order +
                                    degens[k - 2][j - 1][pgs])
        degens.append(level_degens)
        delta = n.table[bnd[ms], delta[gs]]
    degens.append([])
    return TruncatedSimplicialGroup(levels, faces, degens,
                                    name=name or f"nerve[{x.name}]")


# -- the linear side ----------------------------------------------------


class TruncatedSimplicialHopf:
    """Levels 0..N of a simplicial Hopf algebra.

    Same layout as the group version, but every face/degeneracy is a
    HopfMorphism.  Only arities and domain/codomain spaces are enforced at
    construction; verify_simplicial does the mathematics.
    """

    def __init__(self, levels, faces, degens, name: str = "H"):
        self.levels = list(levels)
        self.name = name
        self.faces = [list(fs) for fs in faces]
        self.degens = [list(ss) for ss in degens]
        _check_tower_shape(
            self.levels, self.faces, self.degens, name, DimensionMismatch,
            lambda mor, src, dst: mor.src is src and mor.dst is dst)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def __repr__(self):
        dims = ", ".join(str(lv.dim) for lv in self.levels)
        return f"TruncatedSimplicialHopf({self.name}: dims {dims})"


def linearize(g: TruncatedSimplicialGroup) -> TruncatedSimplicialHopf:
    """Group algebras levelwise, index maps to Hopf morphisms."""
    algs = [group_algebra(lv) for lv in g.levels]
    faces = [[linearize_group_hom(algs[n], algs[n - 1], arr, name=f"d{i}@{n}")
              for i, arr in enumerate(g.faces[n])]
             for n in range(len(algs))]
    degens = [[linearize_group_hom(algs[n], algs[n + 1], arr, name=f"s{j}@{n}")
               for j, arr in enumerate(g.degens[n])]
              for n in range(len(algs))]
    return TruncatedSimplicialHopf(algs, faces, degens, name=f"k[{g.name}]")


def constant_simplicial_hopf(h: HopfAlgebra) -> TruncatedSimplicialHopf:
    """Levels 0..2 all h, every face and degeneracy the identity."""
    ident = LinMap.identity(h.space)
    faces = [[]] + [[HopfMorphism(h, h, ident, name=f"d{i}@{n}")
                     for i in range(n + 1)] for n in (1, 2)]
    degens = [[HopfMorphism(h, h, ident, name=f"s{j}@{n}")
               for j in range(n + 1)] for n in (0, 1)] + [[]]
    return TruncatedSimplicialHopf([h] * 3, faces, degens,
                                   name=f"const[{h.name}]")


def verify_simplicial(t: TruncatedSimplicialHopf) -> Report:
    """Every simplicial identity instance inside the truncation, the five
    Hopf-morphism squares of every face and degeneracy, and the 2n split
    projections (d_j, s_j), (d_{j+1}, s_j) at each level.  The squares are
    each morphism's ``laws()``, which level_projection's split pairs reuse."""
    rep = Report(f"verify-simplicial {t.name}")
    N = t.depth
    for n in range(2, N + 1):
        for j in range(1, n + 1):
            for i in range(j):
                rep.equality(f"d{i}d{j}=d{j - 1}d{i}@{n}",
                             t.faces[n - 1][i].lin @ t.faces[n][j].lin,
                             t.faces[n - 1][j - 1].lin @ t.faces[n][i].lin)
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                rep.equality(f"s{i}s{j}=s{j + 1}s{i}@{n}",
                             t.degens[n + 1][i].lin @ t.degens[n][j].lin,
                             t.degens[n + 1][j + 1].lin @ t.degens[n][i].lin)
    splits = {}   # (i, j, n) -> d_i s_j == id on level n
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = t.faces[n + 1][i].lin @ t.degens[n][j].lin
                if i in (j, j + 1):
                    splits[i, j, n] = rep.equality(
                        f"d{i}s{j}=id@{n}", lhs,
                        LinMap.identity(t.levels[n].space))
                elif i < j:
                    rep.equality(f"d{i}s{j}=s{j - 1}d{i}@{n}", lhs,
                                 t.degens[n - 1][j - 1].lin @ t.faces[n][i].lin)
                else:
                    rep.equality(f"d{i}s{j}=s{j}d{i - 1}@{n}", lhs,
                                 t.degens[n - 1][j].lin @ t.faces[n][i - 1].lin)
    for n in range(1, N + 1):
        for mor in t.faces[n] + t.degens[n - 1]:
            rep.extend(mor.laws(), prefix=f"{mor.name}/")
    for n in range(1, N + 1):
        for j in range(n):
            for i in (j, j + 1):
                rep.add(f"projection-(d{i},s{j})@{n}", splits[i, j, n - 1])
    rep.derived["level_dims"] = [lv.dim for lv in t.levels]
    return rep


# -- the kernel tower ---------------------------------------------------


def level_projection(t: TruncatedSimplicialHopf, n: int, j: int,
                     k: int) -> HopfProjection:
    """The split pair (d_j, s_k) at level n, as a projection H_n -> H_{n-1}.

    The simplicial identities make d_j s_k the identity only for k = j or
    k = j - 1; anything else is rejected by the projection validator.  The
    legs are the tower's own face and degeneracy, whose laws are computed
    once per tower and reused.
    """
    if not 1 <= n <= t.depth:
        raise UsageError(f"no level {n} in a depth-{t.depth} truncation")
    if not (0 <= j <= n and 0 <= k <= n - 1):
        raise UsageError(f"face d{j}/degeneracy s{k} out of range at level {n}")
    return HopfProjection(t.levels[n], t.levels[n - 1], t.faces[n][j],
                          t.degens[n - 1][k], name=f"(d{j},s{k})@{n}")


def level_rker(t: TruncatedSimplicialHopf, n: int, j: int, k: int) -> RKerResult:
    """A^n_(j,k): RKer(d_j) with the braided Hopf structure the split pair
    (d_j, s_k) induces over H_{n-1}."""
    return induced_braided_hopf(level_projection(t, n, j, k),
                                name=f"A{n}({j},{k})")


def _level_generators(t: TruncatedSimplicialHopf, n: int):
    """Ambient kernel generators f, g of the (d_0, s_0) split at level n."""
    return generator_maps(t.levels[n],
                          t.degens[n - 1][0].lin @ t.faces[n][0].lin)


def check_fg_commutation(t: TruncatedSimplicialHopf) -> Report:
    """How the level-1 and level-2 kernel generators interact with d1, d2, s1.

    The d2 and s1 squares commute (both maps respect the (d_0, s_0)
    splitting) and are reported pass/fail.  The d1 squares do *not*
    commute in general -- d1 forgets the splitting -- so their verdicts
    are recorded as info lines carrying a witness instead of failing the
    report; the first group-like outside the kernel is the usual culprit.
    """
    if t.depth < 2:
        raise UsageError("need levels 0..2 for the generator squares")
    rep = Report(f"check-fg-commutation {t.name}")
    f1, g1 = _level_generators(t, 1)
    f2, g2 = _level_generators(t, 2)
    d1, d2 = t.faces[2][1].lin, t.faces[2][2].lin
    s1 = t.degens[1][1].lin
    rep.equality("f-square-d2", f1 @ d2, d2 @ f2)
    rep.equality("g-square-d2", g1 @ d2, d2 @ g2)
    rep.equality("f-square-s1", f2 @ s1, s1 @ f1)
    rep.equality("g-square-s1", g2 @ s1, s1 @ g1)
    rep.equality_info("f-square-d1", f1 @ d1, d1 @ f2)
    rep.equality_info("g-square-d1", g1 @ d1, d1 @ g2)
    return rep


@dataclass
class NestedKernel:
    """A^n_(2,1) = RKer(d_2 restricted) inside A^n_(0,0).

    ``subspace`` lives in the carrier of A^n_(0,0); ``in_ambient`` is the
    same space written in H_n coordinates.  f is the braided kernel
    generator of the (d_2, s_1) split, every ingredient replaced by its
    braided counterpart; the Radford identities of f and g are verified
    before the result is returned.
    """
    subspace: Subspace
    f: LinMap
    in_ambient: Subspace


#: a map leaving a kernel of the tower, or a nested split pair failing
#: Radford's identities, means the input breaks a simplicial identity
_BREAKS_SIMPLICIAL = ("the faces and degeneracies of this input break a "
                      "simplicial identity; simplicial-check names it")


def _tower_step(t: TruncatedSimplicialHopf, n: int, below: RKerResult):
    """Radford's construction twice at level n: A^n_(0,0) from (d_0, s_0),
    then, on the braided split pair (d_2, s_1) between A^n_(0,0) and
    ``below`` = A^{n-1}_(0,0), the nested kernel A^n_(2,1).

    Returns (A^n_(0,0), restricted d_2, restricted s_1, A^n_(2,1)).
    """
    top = level_rker(t, n, 0, 0)
    what = f"A{n}(2,1)"
    a = top.braided
    with closure_is_hypothesis(_BREAKS_SIMPLICIAL):
        d2 = below.subspace.corestrict(
            t.faces[n][2].lin @ top.subspace.inclusion,
            what=f"d2 on A{n}(0,0)")
        s1 = top.subspace.corestrict(
            t.degens[n - 1][1].lin @ below.subspace.inclusion,
            what=f"s1 on A{n - 1}(0,0)")
        sub = right_kernel(a, d2, below.braided.unit)
        f, _ = checked_generators(a, s1 @ d2, what, sub)
    incl = top.subspace.inclusion @ sub.inclusion
    amb = Subspace(top.subspace.ambient,
                   [incl.column(i) for i in range(sub.dim)], name=what)
    return top, d2, s1, NestedKernel(sub, f, amb)


@dataclass
class PipelineResult:
    """Everything the two-level tower produces in one pass."""
    a100: RKerResult
    a200: RKerResult
    a100_over_h1: BraidedHopfAlgebra
    d2: LinMap
    s1: LinMap
    d1: LinMap
    a221: NestedKernel
    report: Report


def dim2_pipeline(t: TruncatedSimplicialHopf) -> PipelineResult:
    """A^1_(0,0), A^2_(0,0), the restricted maps between them, A^2_(2,1).

    d2 and s1 corestrict to the kernels and, after interchanging
    A^1_(0,0) into YD(H_1) along (d_1, s_0), are braided Hopf morphisms
    over id_{H_1}.  d1 also corestricts -- d_0 d_1 = d_0 d_0 forces its
    image back into the kernel -- but it is not such a morphism in
    general, so its seven squares are folded in as info lines.
    """
    if t.depth < 2:
        raise UsageError("need levels 0..2 for the kernel tower")
    a100 = level_rker(t, 1, 0, 0)
    a200, d2, s1, a221 = _tower_step(t, 2, a100)
    # The interchange must pull the H_1-action back along d_1, not d_0:
    # d2 s0 = s0 d1, so d2(s0(h') b s0(Sh'')) = s0 d1(h)' d2(b) s0 S d1(h)''
    # and the action square of d2 commutes only for the (d1, s0) lift.
    lifted = pushforward_braided(level_projection(t, 1, 1, 0), a100.braided)
    with closure_is_hypothesis(_BREAKS_SIMPLICIAL):
        d1 = a100.subspace.corestrict(
            t.faces[2][1].lin @ a200.subspace.inclusion, what="d1 on A2(0,0)")
    rep = Report(f"dim2-pipeline {t.name}")
    # Interchange is not valid for arbitrary modules, so confirm the
    # lifted kernel is still Yetter-Drinfeld over H_1 on this input.
    rep.extend(check_yd(lifted.carrier), prefix="interchanged/")
    for name, src, dst, lin in (("d2", a200.braided, lifted, d2),
                                ("s1", lifted, a200.braided, s1)):
        rep.extend(check_braided_map(src, dst, lin, name), f"{name}/")
    rep.equality("d2-s1-identity", d2 @ s1,
                 LinMap.identity(a100.braided.space))
    rep.add("nested-kernel-contains-unit",
            a221.subspace.contains_vector(a200.braided.unit.column(0)))
    for c in check_braided_map(a200.braided, lifted, d1, "d1").checks:
        rep.verdict(f"d1/{c.name}", c.status == "pass", c.witness)
    rep.derived["dim_A100"] = a100.subspace.dim
    rep.derived["dim_A200"] = a200.subspace.dim
    rep.derived["dim_A221"] = a221.subspace.dim
    return PipelineResult(a100, a200, lifted, d2, s1, d1, a221, rep)


def check_twisted(t: TruncatedSimplicialHopf,
                  pipe: PipelineResult = None) -> Report:
    """The twisted coproduct law of the boundary d_1: A^1_(0,0) -> H_0.

    With rho the H_0-coaction of the kernel ((d_0 (x) id) comul restricted),

        comul(par(x)) == sum par(x') rho_H(x'') (x) par(rho_A(x'')) .

    The same law one level up, for d_1: A^2_(2,1) -> A^1_(0,0) with every
    ingredient braided, is not settled in general; its verdict (and the
    algebra-morphism half) is recorded as info, not asserted.
    """
    pipe = pipe or dim2_pipeline(t)
    h0 = t.levels[0]
    a = pipe.a100.braided
    B = a.space
    H0 = h0.space
    bnd = t.faces[1][1].lin @ pipe.a100.subspace.inclusion
    hh = tensor_space(H0, H0)
    rep = Report(f"check-twisted {t.name}")
    rep.equality("boundary-respects-mul",
                 composite_map(tensor_space(B, B), H0, [a.mul, bnd]),
                 composite_map(tensor_space(B, B), H0, [[bnd, bnd], h0.mul]))
    rep.equality("boundary-respects-unit", bnd @ a.unit, h0.unit)
    rep.equality("twisted-coproduct-law",
                 composite_map(B, hh, [bnd, h0.comul]),
                 composite_map(B, hh, [a.comul, [bnd, a.carrier.coaction],
                                       [h0.mul, bnd]]))
    nk = pipe.a221
    if nk.subspace.dim:
        try:
            mul_n, comul_n, coa_n = kernel_structure(
                pipe.a200.braided, nk.subspace, nk.f, pipe.d2, "A2(2,1)")
        except ClosureFailure as e:
            rep.info("nested-boundary-laws", f"not computable: {e}")
            return rep
        K = nk.subspace.space
        bnd2 = pipe.d1 @ nk.subspace.inclusion
        rep.equality_info(
            "nested-boundary-respects-mul",
            composite_map(tensor_space(K, K), B, [mul_n, bnd2]),
            composite_map(tensor_space(K, K), B, [[bnd2, bnd2], a.mul]))
        rep.equality_info(
            "nested-twisted-law",
            composite_map(K, tensor_space(B, B), [bnd2, a.comul]),
            composite_map(K, tensor_space(B, B),
                          [comul_n, [bnd2, coa_n], [a.mul, bnd2]]))
    return rep


# -- the Peiffer pairing ------------------------------------------------


def _peiffer_closed_form(t: TruncatedSimplicialHopf,
                         pipe: PipelineResult) -> LinMap:
    """Sum over the third coproduct powers of x and y of the product

        s0(x') s1(y') s0 d0 s1 S(y'') s0 S(x'')
        s1 d2 s0(x''') s1 d0 s1(y''') s1 S(y'''') s1 d2 s0 S(x'''')

    as one pipeline: Delta^3 on both legs, eight flips of neighbouring
    H_1 factors taking x'x''x'''x''''y'y''y'''y'''' to the order of the
    product, the eight leg maps, and seven multiplications left to right.
    Each flip swaps single factors, so no flip map has dim(H_1)^4 columns.
    """
    h1, h2 = t.levels[1], t.levels[2]
    s0, s1 = t.degens[1][0].lin, t.degens[1][1].lin
    d0, d2 = t.faces[2][0].lin, t.faces[2][2].lin
    S, H1, H2, D = h1.antipode, h1.space, h2.space, h1.comul
    incl, swap = pipe.a100.subspace.inclusion, flip(H1, H1)
    flips = [[H1] * p + [swap] + [H1] * (6 - p)
             for p in (3, 2, 1, 4, 3, 2, 5, 6)]
    legs = [s0, s1, s0 @ d0 @ s1 @ S, s0 @ S, s1 @ d2 @ s0, s1 @ d0 @ s1,
            s1 @ S, s1 @ d2 @ s0 @ S]
    return composite_map(tensor_space(incl.dom, incl.dom), H2, [
        [incl, incl], [D, D], [D, H1, D, H1], [D, H1, H1, D, H1, H1],
        *flips, legs, *([h2.mul] + [H2] * k for k in range(6, -1, -1))])


@dataclass
class PeifferPairing:
    """F: A^1_(0,0) (x) A^1_(0,0) -> H_2, two ways."""
    composite: LinMap      # f^2_(2,1) f^2_(0,0) |>_ad (s_0 (x) s_1), included
    closed_form: LinMap    # the eight-factor Sweedler product
    report: Report


def peiffer_pairing(t: TruncatedSimplicialHopf,
                    pipe: PipelineResult = None) -> PeifferPairing:
    """The pairing that generates A^2_(2,1) out of two level-one kernel
    elements: push x, y up with s_0, s_1, act adjointly, then project with
    the two kernel generators.  The closed form must agree entry by entry,
    its image must land in A^2_(2,1), and when that kernel is trivial the
    whole pairing collapses to counit (x) counit times the unit."""
    pipe = pipe or dim2_pipeline(t)
    h2 = t.levels[2]
    incl1 = pipe.a100.subspace.inclusion
    B = pipe.a100.braided.space
    dom = tensor_space(B, B)
    composite = composite_map(dom, h2.space, [
        [t.degens[1][0].lin @ incl1, t.degens[1][1].lin @ incl1],
        *adjoint_stages(h2), pipe.a200.f_cor, pipe.a221.f,
        pipe.a200.subspace.inclusion])
    closed = _peiffer_closed_form(t, pipe)
    rep = Report(f"peiffer-pairing {t.name}")
    rep.equality("closed-form-matches-composite", closed, composite)
    bad = pipe.a221.in_ambient.first_outside(closed)
    rep.add("image-in-nested-kernel", bad is None,
            witness=None if bad is None else {"col": dom.label(bad)})
    counits = pipe.a100.braided.counit
    collapse = composite_map(dom, h2.space, [[counits, counits], h2.unit])
    rep.equality("collapses-to-counit", closed, collapse)
    rep.derived["dim_A221"] = pipe.a221.subspace.dim
    return PeifferPairing(composite, closed, rep)


# -- the crossed module theorem ------------------------------------------


@dataclass
class BraidedXMod:
    """A braided Hopf crossed module: par: A -> H plus the H-action on A."""
    base: HopfAlgebra
    module: BraidedHopfAlgebra
    boundary: LinMap       # carrier of A -> H
    action: LinMap         # H (x) carrier -> carrier


def extract_xmod(t: TruncatedSimplicialHopf, pipe: PipelineResult = None):
    """When A^2_(2,1) is the span of the unit alone, d_1 on A^1_(0,0) is a
    braided Hopf crossed module over H_0 with action

        h |> x = sum s_0(h') x s_0(S(h'')) ,

    which is also the carrier action the (d_0, s_0) projection installs.
    Returns (BraidedXMod, Report); HypothesisFailed when the nested kernel
    is anything bigger.
    """
    pipe = pipe or dim2_pipeline(t)
    nk = pipe.a221
    unit_ok = nk.subspace.contains_vector(pipe.a200.braided.unit.column(0))
    if nk.subspace.dim != 1 or not unit_ok:
        raise HypothesisFailed(
            f"A2(2,1) has dimension {nk.subspace.dim}; the crossed module "
            "theorem needs the span of the unit alone")
    h0, h1 = t.levels[0], t.levels[1]
    a = pipe.a100.braided
    B = a.space
    H0 = h0.space
    incl = pipe.a100.subspace.inclusion
    bnd = t.faces[1][1].lin @ incl
    dom = tensor_space(H0, B)
    act = pipe.a100.subspace.corestrict(
        composite_map(dom, h1.space,
                      [[t.degens[0][0].lin, incl], *adjoint_stages(h1)]),
        what="H0 action on A1(0,0)")
    rep = Report(f"extract-xmod {t.name}")
    rep.equality("action-matches-carrier", act, a.carrier.action)
    rep.extend(check_twisted(t, pipe))
    rep.equality(
        "action-equivariance",
        composite_map(dom, H0, [act, bnd]),
        composite_map(dom, H0, [[h0.comul, B], [H0, flip(H0, B)],
                                [H0, bnd, h0.antipode], [h0.mul, H0],
                                h0.mul]))
    bad = adjoint_action(a)
    rep.equality("peiffer-braided-adjoint",
                 composite_map(tensor_space(B, B), B, [[bnd, B], act]), bad)
    rep.equality(
        "braided-adjoint-collapses", bad,
        pipe.a100.subspace.corestrict(
            composite_map(tensor_space(B, B), h1.space,
                          [[incl, incl], *adjoint_stages(h1)]),
            what="restricted adjoint action"))
    rep.derived["dim_A100"] = B.dim
    rep.derived["dim_A200"] = pipe.a200.subspace.dim
    rep.derived["dim_A221"] = nk.subspace.dim
    return BraidedXMod(h0, a, bnd, act), rep


# -- independent oracles -------------------------------------------------


def moore_group_oracle(g: TruncatedSimplicialGroup,
                       xmod: GroupCrossedModule = None) -> Report:
    """The group-level Moore complex, by raw element enumeration.

    N_1 = ker d_0 at level one; N_2 = ker d_0 /\\ ker d_1 and the variant
    N_2' = ker d_0 /\\ ker d_2 at level two.  For the nerve of a crossed
    module both level-two kernels must be trivial, d_1(N_1) must be normal
    in G_0, and (N_1, d_1, conjugation through s_0) must reproduce the
    crossed module that built the nerve; pass ``xmod`` to check that round
    trip (m is matched with the nerve element (m, 1))."""
    if g.depth < 2:
        raise UsageError("need levels 0..2 for the Moore complex")
    rep = Report(f"moore-oracle {g.name}")
    g0, g1, g2 = g.levels[0], g.levels[1], g.levels[2]
    d0_1, d1_1 = g.faces[1][0], g.faces[1][1]
    n1 = [i for i in range(g1.order) if d0_1[i] == g0.identity]
    n1set = set(n1)
    rep.add("n1-subgroup",
            all(g1.mul(a, b) in n1set for a in n1 for b in n1)
            and all(g1.inv(a) in n1set for a in n1))
    d0_2, d1_2, d2_2 = g.faces[2][0], g.faces[2][1], g.faces[2][2]
    e1 = g1.identity
    n2 = [i for i in range(g2.order) if d0_2[i] == e1 and d1_2[i] == e1]
    n2p = [i for i in range(g2.order) if d0_2[i] == e1 and d2_2[i] == e1]
    rep.add("n2-trivial", n2 == [g2.identity], witness={"order": len(n2)})
    rep.add("n2prime-trivial", n2p == [g2.identity],
            witness={"order": len(n2p)})
    image = sorted({int(d1_1[i]) for i in n1})
    imset = set(image)
    wit = next(({"conjugator": g0.labels[a], "element": g0.labels[b]}
                for a in range(g0.order) for b in image
                if g0.mul(g0.mul(a, b), g0.inv(a)) not in imset), None)
    rep.add("boundary-image-normal", wit is None, witness=wit)
    rep.derived["n1_order"] = len(n1)
    rep.derived["n2_order"] = len(n2)
    rep.derived["n2prime_order"] = len(n2p)
    if xmod is not None:
        m, n0 = xmod.m, xmod.n
        if n0.order != g0.order:
            raise DimensionMismatch("crossed module base does not match level 0")
        embed = [i * n0.order + n0.identity for i in range(m.order)]
        rep.add("roundtrip-n1", sorted(embed) == n1,
                witness={"n1_order": len(n1), "m_order": m.order})
        wit = next(({"m": m.labels[i]} for i in range(m.order)
                    if int(d1_1[embed[i]]) != int(xmod.boundary[i])), None)
        rep.add("roundtrip-boundary", wit is None, witness=wit)
        s0 = g.degens[0][0]
        wit = next(({"n": n0.labels[j], "m": m.labels[i]}
                    for j in range(n0.order) for i in range(m.order)
                    if g1.mul(g1.mul(int(s0[j]), embed[i]),
                              g1.inv(int(s0[j]))) != embed[xmod.action[j][i]]),
                   None)
        rep.add("roundtrip-action", wit is None, witness=wit)
    return rep


def check_restriction(m: LinMap, src: Subspace, dst: Subspace):
    """Does m carry src into dst?  Returns (ok, witness-or-None)."""
    if m.dom != src.ambient or m.cod != dst.ambient:
        raise DimensionMismatch("check_restriction: spaces do not line up")
    bad = dst.first_outside(m @ src.inclusion)
    if bad is None:
        return True, None
    return False, {"basis": src.space.label(bad)}


def level3_restriction_probe(t: TruncatedSimplicialHopf,
                             pipe: PipelineResult = None) -> Report:
    """Whether the (d_3, s_2) pair survives one level up.

    Builds A^3_(0,0) and its nested kernel A^3_(2,1) exactly as at level
    two, then asks: does d_3 carry A^3_(2,1) into A^2_(2,1) (it must), and
    does s_2 carry A^2_(2,1) into A^3_(2,1)?  The second has no general
    theorem behind it, so its verdict is recorded as info either way.
    """
    if t.depth < 3:
        raise UsageError("need levels 0..3 for the restriction probe")
    pipe = pipe or dim2_pipeline(t)
    a300, _, _, k3 = _tower_step(t, 3, pipe.a200)
    rep = Report(f"level3-probe {t.name}")
    ok, wit = check_restriction(t.faces[3][3].lin, k3.in_ambient,
                                pipe.a221.in_ambient)
    rep.add("d3-restricts", ok, witness=wit)
    ok, wit = check_restriction(t.degens[2][2].lin, pipe.a221.in_ambient,
                                k3.in_ambient)
    rep.verdict("s2-restricts", ok, wit)
    rep.derived["dim_A300"] = a300.subspace.dim
    rep.derived["dim_A321"] = k3.subspace.dim
    return rep
