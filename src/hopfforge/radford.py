"""Radford's theorem: categorical kernels, the braided Hopf algebra they
carry, bosonisation, and the explicit isomorphism.

Given a Hopf algebra projection (par: I -> H, i) the right kernel
B = RKer(par) = {v : sum v' (x) par(v'') = v (x) 1} is not a sub-Hopf
algebra of I, but it becomes a braided Hopf algebra in YD(H) once the
coproduct and antipode are replaced by

    comul_B = (f (x) id) . comul,     antipode_B = g,

where f = mul.(id (x) i par S).comul and g = mul.(i par (x) S).comul are
the kernel generator maps.  Bosonisation then rebuilds an ordinary Hopf
algebra B (x)^ H, and Psi/Phi exhibit I ~ B (x)^ H.

The kernel, the generators and the kernel structure (right_kernel,
generator_maps, checked_generators, kernel_structure) take any
HopfAlgebra, braided ones included: the simplicial tower runs the same
construction a second time on a braided split pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClosureFailure, IsoFailure
from .hopf import (HopfAlgebra, HopfMorphism, HopfProjection, adjoint_stages,
                   check_morphism)
from .linalg import (SCALAR, LinMap, Subspace, composite_map, flip,
                     full_subspace, kernel_basis, tensor_space, tensor_subspace,
                     unit_kernel)
from .report import Report
from .yd import BraidedHopfAlgebra, YDModule, smash_product


def right_kernel(a: HopfAlgebra, proj: LinMap, unit: LinMap) -> Subspace:
    """The equalizer {v : sum v' (x) proj(v'') = v (x) 1} of a split pair.

    ``unit`` is the unit of the target of ``proj``.  In Vect this is RKer;
    with a braided ``a`` it is the nested kernel of a braided split pair.
    """
    A, C = a.space, proj.cod
    lhs = composite_map(A, tensor_space(A, C), [a.comul, [A, proj]])
    rhs = composite_map(A, tensor_space(A, C), [[A, unit]])
    return _kernel(a, lhs - rhs)


def _kernel(a: HopfAlgebra, m: LinMap) -> Subspace:
    """ker(m) for a kernel condition m on ``a``, a difference of two
    composites through a.comul.  When a.comul is monomial (a group
    algebra's basis is group-like) both sides send each basis vector to
    one basis vector, and unless two columns meet in a row, unit_kernel
    reads the kernel off the arrays; otherwise m is row reduced."""
    if a.comul.coeffs.shape[1] <= 1:
        sub = unit_kernel(m)
        if sub is not None:
            return sub
    return kernel_basis(m)


def rker(omega: HopfMorphism, side: str = "right") -> Subspace:
    """The right/left/categorical kernel of a Hopf algebra morphism.

    right:        {v : sum v' (x) omega(v'')          = v (x) 1}
    left:         {v : sum omega(v') (x) v''          = 1 (x) v}
    categorical:  {v : sum v' (x) omega(v'') (x) v''' = sum v' (x) 1 (x) v''}

    The three agree when everything is cocommutative but differ in general;
    the basis is the deterministic reduced kernel basis.
    """
    i, h, f = omega.src, omega.dst, omega.lin
    I, H = i.space, h.space
    if side == "right":
        return right_kernel(i, f, h.unit)
    if side == "left":
        lhs = composite_map(I, tensor_space(H, I), [i.comul, [f, I]])
        rhs = composite_map(I, tensor_space(H, I), [[h.unit, I]])
    elif side == "categorical":
        cod = tensor_space(I, H, I)
        lhs = composite_map(I, cod, [i.comul, [i.comul, I], [I, f, I]])
        rhs = composite_map(I, cod, [i.comul, [I, h.unit, I]])
    else:
        raise ValueError("side must be right, left or categorical")
    return _kernel(i, lhs - rhs)


def kernel_sides_agree(omega: HopfMorphism) -> bool:
    """True iff RKer == LKer == CKer as subspaces."""
    r = rker(omega, "right")
    return r.equals(rker(omega, "left")) and r.equals(rker(omega, "categorical"))


def generator_maps(a: HopfAlgebra, ipar: LinMap):
    """f = mul.(id (x) ipar S).comul and g = mul.(ipar (x) S).comul on a,
    where ipar = i.par is the idempotent of a split pair on a."""
    A = a.space
    f = composite_map(A, A, [a.comul, [A, ipar @ a.antipode], a.mul])
    g = composite_map(A, A, [a.comul, [ipar, a.antipode], a.mul])
    return f, g


def checked_generators(a: HopfAlgebra, ipar: LinMap, what: str,
                       kernel: Subspace = None):
    """f and g of generator_maps, after checking f.f == f, g.f == g,
    sum f(v') ipar(v'') == v and, given the ``kernel`` of the split pair,
    that f fixes it; ClosureFailure, prefixed by ``what``, names the first
    identity that fails and its witness."""
    f, g = generator_maps(a, ipar)
    A = a.space
    rep = Report(what)
    rep.equality("f-idempotent", f @ f, f)
    rep.equality("g-absorbs-f", g @ f, g)
    rep.equality("f-ipar-convolution-is-identity",
                 composite_map(A, A, [a.comul, [f, ipar], a.mul]),
                 LinMap.identity(A))
    if kernel is not None:
        rep.equality("f-fixes-kernel", f @ kernel.inclusion, kernel.inclusion)
    rep.require(ClosureFailure)
    return f, g


def kernel_generators(p: HopfProjection):
    """The generator maps (f, g) of p on I, f = mul.(id (x) i par S).comul
    and g = mul.(i par (x) S).comul, with their algebraic identities
    verified: f.f == f, g.f == g, and sum f(v') i(par(v'')) == v."""
    return checked_generators(p.big, p.incl.lin @ p.proj.lin, p.name)


def kernel_structure(a: HopfAlgebra, sub: Subspace, f: LinMap, proj: LinMap,
                     name: str):
    """The product, the coproduct (f (x) id).comul and the coaction
    (proj (x) id).comul of ``a``, restricted to the kernel ``sub`` of the
    split pair with generator f and projection ``proj``.

    Each is a corestriction, so a map that escapes the kernel raises
    ClosureFailure naming it ("mul on <name>", "comul on <name>", ...).
    """
    K, A, C = sub.space, a.space, proj.cod
    incl = sub.inclusion
    mul = sub.corestrict(
        composite_map(tensor_space(K, K), A, [[incl, incl], a.mul]),
        what=f"mul on {name}")
    comul = tensor_subspace(sub, sub).corestrict(
        composite_map(K, tensor_space(A, A), [incl, a.comul, [f, A]]),
        what=f"comul on {name}")
    coaction = tensor_subspace(full_subspace(C), sub).corestrict(
        composite_map(K, tensor_space(C, A), [incl, a.comul, [proj, A]]),
        what=f"coaction on {name}")
    return mul, comul, coaction


@dataclass
class RKerResult:
    """B = RKer(par) with its inclusion and braided Hopf structure, and the
    kernel generator f of the projection that produced it."""
    subspace: Subspace
    braided: BraidedHopfAlgebra
    f_cor: LinMap   # f corestricted, I -> B


def induced_braided_hopf(p: HopfProjection, name: str = None) -> RKerResult:
    """Radford's braided Hopf algebra on B = RKer(par).

    Product, unit and the projection-induced YD structure restrict from I;
    the coproduct is (f (x) id).comul and the antipode is g.  Every
    restriction is a corestriction onto the kernel subspace, so escaping B
    raises ClosureFailure (which would signal inconsistent input).
    """
    name = name or f"RKer({p.proj.name})"
    big, small = p.big, p.small
    b = rker(p.proj, "right")
    f, g = kernel_generators(p)
    incl = b.inclusion
    f_cor = b.corestrict(f, what="f")
    mul, comul, coaction = kernel_structure(big, b, f, p.proj.lin, name)
    unit = b.corestrict(big.unit, what="unit")
    counit = big.counit @ incl
    antipode = b.corestrict(g @ incl, what="antipode")
    action = b.corestrict(
        composite_map(tensor_space(small.space, b.space), big.space,
                      [[p.incl.lin, incl], *adjoint_stages(big)]),
        what="action")
    carrier = YDModule(small, b.space, action, coaction, name=name)
    braided = BraidedHopfAlgebra(carrier, mul, unit, comul, counit, antipode,
                                 name=name)
    return RKerResult(b, braided, f_cor)


def bosonisation(a: BraidedHopfAlgebra) -> HopfAlgebra:
    """The ordinary Hopf algebra A (x)^ H built from A in YD(H).

    product   (a (x) x)(b (x) y) = sum (a x'|>b) (x) x''y   (smash product)
    coproduct sum a_(1) (x) (a_(2))_H x' (x) (a_(2))_A (x) x''
    antipode  sum (1 (x) S(a_H x)) (S_A(a_A) (x) 1)

    The antipode threads the coaction through the H-leg; with a trivial
    coaction it collapses to (1 (x) S(x))(S_A(a) (x) 1).  The twisted form
    is the unique convolution inverse of the identity for this coproduct
    (the collapsed form fails the antipode axiom whenever the coaction is
    non-trivial, e.g. on the quantum line).
    """
    h = a.over
    A, H = a.space, h.space
    phi = a.carrier.coaction
    space, mul, unit = smash_product(h, a, a.carrier.action)
    comul = composite_map(space, tensor_space(space, space), [
        [a.comul, h.comul],
        [A, phi, H, H],
        [A, H, flip(A, H), H],
        [A, h.mul, A, H],
    ])
    counit = composite_map(space, SCALAR, [[a.counit, h.counit]])
    into_a = composite_map(A, space, [[A, h.unit]])
    into_h = composite_map(H, space, [[a.unit, H]])
    antipode = composite_map(space, space, [
        [phi, H], [H, flip(A, H)], [h.mul, A],
        [h.antipode, a.antipode], [into_h, into_a], mul])
    return HopfAlgebra(space, mul, unit, comul, counit, antipode,
                       name=f"boso({a.name},{h.name})")


def radford_iso(p: HopfProjection, result: RKerResult = None):
    """Psi: v -> sum f(v') (x) par(v'') and Phi: a (x) x -> a i(x).

    Returns (psi, phi, report).  The two composites must be exact
    identities (IsoFailure otherwise); the report additionally records the
    Hopf-morphism checks of Psi into the bosonisation.
    """
    if result is None:
        result = induced_braided_hopf(p)
    big = p.big
    I = big.space
    boso = bosonisation(result.braided)
    b = result.subspace
    psi = composite_map(I, boso.space,
                        [big.comul, [result.f_cor, p.proj.lin]])
    phi = composite_map(boso.space, I,
                        [[b.inclusion, p.incl.lin], big.mul])

    rep = Report(f"radford-iso {p.name}")
    rep.equality("phi-psi-is-identity", phi @ psi, LinMap.identity(I))
    rep.equality("psi-phi-is-identity", psi @ phi, LinMap.identity(boso.space))
    rep.require(IsoFailure)
    rep.extend(check_morphism(HopfMorphism(big, boso, psi, name="psi")),
               prefix="psi/")
    rep.derived["dim_kernel"] = b.dim
    rep.derived["dim_bosonisation"] = boso.dim
    return psi, phi, rep
