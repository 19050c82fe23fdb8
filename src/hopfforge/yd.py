"""Yetter-Drinfeld modules, their braiding, and braided Hopf algebras.

A YD module over H carries an action H (x) V -> V and a coaction
V -> H (x) V tied together by the compatibility square.  The category
YD(H) is braided: R'(v (x) w) = sum (v_H |> w) (x) v_V, and a braided Hopf
algebra is a Hopf algebra object there.  BraidedHopfAlgebra is a
HopfAlgebra whose ``self_braiding()`` is R', so the axiom checker and the
adjoint action of the hopf module run on it unchanged.

Only one level of nesting is supported beyond Vect: a YD module or a
braided Hopf algebra over a BraidedHopfAlgebra raises NestingError.  The
level-2 world is handled concretely by the simplicial pipeline.
"""

from __future__ import annotations

from .errors import (CompatibilityFailed, DimensionMismatch, NestingError,
                     NonInvertibleBraiding)
from .hopf import (HopfAlgebra, HopfProjection, adjoint_action,
                   adjoint_stages, check_hopf)
from .linalg import (SCALAR, LinMap, Space, composite_map, flip, left_unitor,
                     tensor_space, try_inverse)
from .report import Report


class YDModule:
    """A Yetter-Drinfeld module: (space, action, coaction) over a Hopf algebra."""

    def __init__(self, over: HopfAlgebra, space: Space, action: LinMap,
                 coaction: LinMap, name: str = "V"):
        hv = tensor_space(over.space, space)
        if action.dom != hv or action.cod != space:
            raise DimensionMismatch(f"{name}: action must be H(x)V -> V")
        if coaction.dom != space or coaction.cod != hv:
            raise DimensionMismatch(f"{name}: coaction must be V -> H(x)V")
        self.over = over
        self.space = space
        self.action = action
        self.coaction = coaction
        self.name = name

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"YDModule({self.name} over {self.over.name}, dim={self.dim})"


def check_yd(v: YDModule) -> Report:
    """Module + comodule laws and the Yetter-Drinfeld compatibility square."""
    h = v.over
    if isinstance(h, BraidedHopfAlgebra):
        raise NestingError("check_yd on nested modules is not supported")
    rep = Report(f"check-yd {v.name}")
    H, V = h.space, v.space
    rho, phi = v.action, v.coaction
    R_HH = flip(H, H)
    R_HV = flip(H, V)
    R_VH = flip(V, H)
    hv = tensor_space(H, V)

    rep.equality("action-associative",
                 composite_map(tensor_space(H, H, V), V, [[h.mul, V], rho]),
                 composite_map(tensor_space(H, H, V), V, [[H, rho], rho]))
    rep.equality("action-unital",
                 composite_map(V, V, [[h.unit, V], rho]), LinMap.identity(V))
    rep.equality("coaction-coassociative",
                 composite_map(V, tensor_space(H, H, V), [phi, [h.comul, V]]),
                 composite_map(V, tensor_space(H, H, V), [phi, [H, phi]]))
    rep.equality("coaction-counital",
                 composite_map(V, tensor_space(SCALAR, V), [phi, [h.counit, V]]),
                 left_unitor(V))
    rep.equality(
        "yd-compatibility",
        composite_map(hv, hv, [
            [h.comul, V], [H, H, phi], [H, R_HH, V], [h.mul, rho]]),
        composite_map(hv, hv, [
            [h.comul, V], [H, R_HV], [rho, H], [phi, H], [H, R_VH],
            [h.mul, V]]))
    return rep


def yd_braiding(v: YDModule, w: YDModule, *, require_invertible: bool = True) -> LinMap:
    """R'(v (x) w) = sum (v_H |> w) (x) v_V : V(x)W -> W(x)V."""
    if v.over is not w.over and v.over.space != w.over.space:
        raise DimensionMismatch("braiding needs modules over the same algebra")
    H = v.over.space
    dom = tensor_space(v.space, w.space)
    cod = tensor_space(w.space, v.space)
    r = composite_map(dom, cod, [
        [v.coaction, w.space],
        [H, flip(v.space, w.space)],
        [w.action, v.space],
    ])
    if require_invertible and try_inverse(r) is None:
        raise NonInvertibleBraiding(
            f"braiding {v.name}(x){w.name} is singular")
    return r


def yd_tensor(v: YDModule, w: YDModule, name=None) -> YDModule:
    """Monoidal product: diagonal action, multiplied coaction."""
    h = v.over
    H = h.space
    space = tensor_space(v.space, w.space)
    action = composite_map(tensor_space(H, space), space, [
        [h.comul, v.space, w.space],
        [H, flip(H, v.space), w.space],
        [v.action, w.action],
    ])
    coaction = composite_map(space, tensor_space(H, space), [
        [v.coaction, w.coaction],
        [H, flip(v.space, H), w.space],
        [h.mul, v.space, w.space],
    ])
    return YDModule(h, space, action, coaction,
                    name=name or f"{v.name}(x){w.name}")


def trivial_yd(h: HopfAlgebra) -> YDModule:
    """The base field with counit action and unit coaction."""
    action = composite_map(tensor_space(h.space, SCALAR), SCALAR, [h.counit])
    coaction = composite_map(SCALAR, tensor_space(h.space, SCALAR),
                             [[h.unit, SCALAR]])
    return YDModule(h, SCALAR, action, coaction, name="k")


def self_yd_module(h: HopfAlgebra) -> YDModule:
    """H over itself: adjoint action + comultiplication coaction."""
    return YDModule(h, h.space, adjoint_action(h), h.comul,
                    name=f"{h.name}.ad")


def projection_yd(p: HopfProjection) -> YDModule:
    """The YD structure a projection induces on the big algebra.

    action  h (x) v |-> incl(h) |>_ad v, coaction v |-> sum proj(v') (x) v''.
    """
    big, small = p.big, p.small
    action = composite_map(tensor_space(small.space, big.space), big.space,
                           [[p.incl.lin, big.space], *adjoint_stages(big)])
    coaction = composite_map(big.space, tensor_space(small.space, big.space),
                             [big.comul, [p.proj.lin, big.space]])
    return YDModule(small, big.space, action, coaction,
                    name=f"{big.name} in YD({small.name})")


def yd_pushforward(p: HopfProjection, b: YDModule) -> YDModule:
    """Move a module along a projection: YD(H) -> YD(I) for p: I -> H.

    action pulls back through proj, coaction pushes through incl.  The
    braiding matrix is preserved entrywise (proj . incl == id collapses).
    """
    if b.over.space != p.small.space:
        raise DimensionMismatch("module is not over the projection's target")
    big = p.big
    action = composite_map(tensor_space(big.space, b.space), b.space,
                           [[p.proj.lin, b.space], b.action])
    coaction = composite_map(b.space, tensor_space(big.space, b.space),
                             [b.coaction, [p.incl.lin, b.space]])
    return YDModule(big, b.space, action, coaction, name=f"{b.name}^")


class BraidedHopfAlgebra(HopfAlgebra):
    """A Hopf algebra object of YD(H): carrier module + five structure maps.

    The base H must be an ordinary Hopf algebra; a braided base would need
    the braiding of YD over YD(H), which is not supported (NestingError).
    """

    def __init__(self, carrier: YDModule, mul, unit, comul, counit, antipode,
                 name: str = "A"):
        if isinstance(carrier.over, BraidedHopfAlgebra):
            raise NestingError(
                "Yetter-Drinfeld nesting beyond one braided level is not "
                "supported: only a single biproduct iteration is possible")
        self.carrier = carrier
        self.over = carrier.over
        super().__init__(carrier.space, mul, unit, comul, counit, antipode,
                         name=name)

    def _build_braiding(self) -> LinMap:
        """R' of the carrier with itself, checked invertible; a singular
        one raises NonInvertibleBraiding, so is never kept."""
        return yd_braiding(self.carrier, self.carrier)

    def __repr__(self):
        return f"BraidedHopfAlgebra({self.name} in YD({self.over.name}))"


def _module_algebra_laws(rep: Report, h: HopfAlgebra, i, action: LinMap):
    """Record on ``rep`` that ``action``: H (x) I -> I respects the product
    and unit of ``i`` (anything with .space/.mul/.unit)."""
    H, I = h.space, i.space
    hs = tensor_space(H, SCALAR)
    rep.equality("module-algebra-mul",
                 composite_map(tensor_space(H, I, I), I, [[H, i.mul], action]),
                 composite_map(tensor_space(H, I, I), I,
                               [[h.comul, I, I], [H, flip(H, I), I],
                                [action, action], i.mul]))
    rep.equality("module-algebra-unit",
                 composite_map(hs, I, [[H, i.unit], action]),
                 composite_map(hs, I, [h.counit, i.unit]))


def check_braided_hopf(a: BraidedHopfAlgebra) -> Report:
    """Hopf axioms with R' inserted, plus the module/comodule structure laws.

    The carrier must be a YD module; mul/unit/comul/counit must be
    (co)module-algebra/coalgebra compatible; comul is an algebra morphism
    into the R'-twisted product (this is exactly the braided bialgebra
    square); the antipode law runs against the braided coproduct.
    """
    h = a.over
    rep = Report(f"check-braided-hopf {a.name}")
    rep.extend(check_yd(a.carrier), prefix="carrier/")

    try:
        a.self_braiding()   # the R' that check_hopf and the rest reuse
        rep.add("braiding-invertible", True)
    except NonInvertibleBraiding:
        rep.add("braiding-invertible", False)
        return rep

    # Hopf laws in YD(H) -- the compatibility square twists by R'.
    rep.extend(check_hopf(a))

    H, A = h.space, a.space
    rho, phi = a.carrier.action, a.carrier.coaction
    mul, unit, comul, counit = a.mul, a.unit, a.comul, a.counit
    R_HA, R_AH = flip(H, A), flip(A, H)

    _module_algebra_laws(rep, h, a, rho)
    rep.equality("comodule-algebra-mul",
                 composite_map(tensor_space(A, A), tensor_space(H, A),
                               [mul, phi]),
                 composite_map(tensor_space(A, A), tensor_space(H, A),
                               [[phi, phi], [H, R_AH, A], [h.mul, mul]]))
    rep.equality("comodule-algebra-unit",
                 phi @ unit,
                 composite_map(SCALAR, tensor_space(H, A), [[h.unit, unit]]))
    rep.equality("module-coalgebra-comul",
                 composite_map(tensor_space(H, A), tensor_space(A, A),
                               [rho, comul]),
                 composite_map(tensor_space(H, A), tensor_space(A, A),
                               [[h.comul, comul], [H, R_HA, A], [rho, rho]]))
    rep.equality("module-coalgebra-counit",
                 composite_map(tensor_space(H, A), SCALAR, [rho, counit]),
                 composite_map(tensor_space(H, A), SCALAR, [[h.counit, counit]]))
    rep.equality("comodule-coalgebra-comul",
                 composite_map(A, tensor_space(H, A, A), [phi, [H, comul]]),
                 composite_map(A, tensor_space(H, A, A),
                               [comul, [phi, phi], [H, R_AH, A],
                                [h.mul, A, A]]))
    rep.equality("comodule-coalgebra-counit",
                 composite_map(A, H, [phi, [H, counit]]), h.unit @ counit)
    return rep


def pushforward_braided(p: HopfProjection,
                        a: BraidedHopfAlgebra) -> BraidedHopfAlgebra:
    """Interchange along a projection; the five structure maps are unchanged."""
    carrier = yd_pushforward(p, a.carrier)
    return BraidedHopfAlgebra(carrier, a.mul, a.unit, a.comul, a.counit,
                              a.antipode, name=f"{a.name}^")


def check_braided_map(src: BraidedHopfAlgebra, dst: BraidedHopfAlgebra,
                      lin: LinMap, name: str) -> Report:
    """Is ``lin`` a morphism of braided Hopf algebras in YD(H), over the
    identity of their common base H?  Algebra, coalgebra and antipode
    compatibility plus the YD squares, whose base leg is the Space H."""
    if lin.dom != src.space or lin.cod != dst.space:
        raise DimensionMismatch(f"{name}: wrong carrier spaces")
    if src.over.space != dst.over.space:
        raise DimensionMismatch(f"{name}: carriers over different algebras")
    rep = Report(f"check-braided-map {name}")
    s, d, f, H = src, dst, lin, src.over.space
    ssq = tensor_space(s.space, s.space)
    dsq = tensor_space(d.space, d.space)
    rep.equality("respects-mul",
                 composite_map(ssq, d.space, [s.mul, f]),
                 composite_map(ssq, d.space, [[f, f], d.mul]))
    rep.equality("respects-unit", f @ s.unit, d.unit)
    rep.equality("respects-braided-comul",
                 composite_map(s.space, dsq, [s.comul, [f, f]]),
                 d.comul @ f)
    rep.equality("respects-counit", d.counit @ f, s.counit)
    rep.equality("respects-braided-antipode",
                 f @ s.antipode, d.antipode @ f)
    rep.equality("respects-action",
                 composite_map(tensor_space(H, s.space), d.space,
                               [s.carrier.action, f]),
                 composite_map(tensor_space(H, s.space), d.space,
                               [[H, f], d.carrier.action]))
    rep.equality("respects-coaction",
                 composite_map(s.space, tensor_space(H, d.space),
                               [s.carrier.coaction, [H, f]]),
                 d.carrier.coaction @ f)
    return rep


def smash_product(h: HopfAlgebra, i, action: LinMap):
    """The smash product algebra I #> H of an H-module algebra I.

    ``i`` needs .space/.mul/.unit.  Returns (space, mul, unit) with
    (u (x) x)(v (x) y) = sum u (x' |> v) (x) x'' y, after checking that
    ``action`` makes I an H-module algebra; a violation raises
    CompatibilityFailed naming the offending law.
    """
    H, I = h.space, i.space
    hv = tensor_space(H, I)
    if action.dom != hv or action.cod != I:
        raise DimensionMismatch("action must be H(x)I -> I")

    rep = Report(f"smash-product over {h.name}")
    rep.equality("module-law",
                 composite_map(tensor_space(H, H, I), I, [[h.mul, I], action]),
                 composite_map(tensor_space(H, H, I), I, [[H, action], action]))
    rep.equality("module-unit",
                 composite_map(I, I, [[h.unit, I], action]), LinMap.identity(I))
    _module_algebra_laws(rep, h, i, action)
    rep.require(CompatibilityFailed)

    space = tensor_space(I, H)
    mul = composite_map(tensor_space(I, H, I, H), space, [
        [I, h.comul, I, H],
        [I, H, flip(H, I), H],
        [I, action, h.mul],
        [i.mul, H],
    ])
    unit = composite_map(SCALAR, space, [[i.unit, h.unit]])
    return space, mul, unit
