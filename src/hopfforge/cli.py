"""The ``hopfforge`` command line.

Sixteen subcommands over JSON inputs or named builtins, each emitting a
check report (text, or canonical JSON with --json) and exiting

    0  every check passed
    1  a mathematical check failed (including invalid input structures)
    2  usage, parse or schema problem
    3  an internal invariant broke mid-computation

One loader reads --builtin NAME or --input PATH and converts the object
to what the command needs; nerve-s3-id, named either way, also needs
--allow-large.  HOPFFORGE_MAX_DIM (default 512) caps every algebra.
"""

import argparse
import sys

from . import __version__, fixtures, io
from .errors import (HopfForgeError, HypothesisFailed, InvalidCrossedModule,
                     InvalidGroup, NonInvertibleAntipode,
                     NonInvertibleBraiding, NotAProjection, UsageError,
                     closure_is_hypothesis)
from .linalg import composite_map, scalar_text, try_inverse
from .hopf import (GroupTable, HopfAlgebra, HopfProjection, check_hopf,
                   group_algebra, max_dim)
from .yd import (YDModule, check_braided_hopf, check_yd, projection_yd,
                 self_yd_module, yd_braiding, yd_pushforward)
from .radford import (bosonisation, induced_braided_hopf, kernel_generators,
                      kernel_sides_agree, radford_iso, rker)
from .report import Report
from .simplicial import (GroupCrossedModule, TruncatedSimplicialHopf,
                         check_fg_commutation, dim2_pipeline, extract_xmod,
                         identity_crossed_module, level3_restriction_probe,
                         level_projection, linearize, moore_group_oracle,
                         nerve_of_crossed_module, peiffer_pairing,
                         verify_simplicial)


# -- input plumbing -----------------------------------------------------


def _require_allow_large(args, name: str):
    if fixtures.builtin_is_large(name) and not args.allow_large:
        raise UsageError(
            f"builtin {name!r} has dim-216 levels; pass --allow-large")


def _level_cut(t: TruncatedSimplicialHopf, args) -> HopfProjection:
    """The split pair (d_J, s_K) at --level N of a simplicial input, J from
    --face (default 0) and K from --degeneracy (default max(J - 1, 0))."""
    if args.level is None:
        raise UsageError("a simplicial input needs --level N "
                         "(and optionally --face J / --degeneracy K)")
    j = args.face if args.face is not None else 0
    k = args.degeneracy if args.degeneracy is not None else max(j - 1, 0)
    return level_projection(t, args.level, j, k)


def _nerve(args, x: GroupCrossedModule, depth: int):
    """The nerve of x truncated at depth, refused when a level would pass
    HOPFFORGE_MAX_DIM unless --allow-large."""
    cap = max_dim()
    order = x.n.order
    for k in range(1, depth + 1):
        order *= x.m.order
        if order > cap and not args.allow_large:
            raise UsageError(
                f"nerve level {k} would have order {order} > "
                f"HOPFFORGE_MAX_DIM={cap}; raise the cap or pass --allow-large")
    return nerve_of_crossed_module(x, depth=depth)


def _itself(obj, args):
    return obj


#: what a command needs -> ({accepted class: conversion(obj, args)}, the
#: usage-error text after the class name of anything else)
_KINDS = {
    "hopf": ({GroupTable: lambda g, _: group_algebra(g),
              HopfAlgebra: _itself},
             "is not a Hopf algebra; give a hopf or group document"),
    "yd": ({GroupTable: lambda g, _: self_yd_module(group_algebra(g)),
            HopfAlgebra: lambda h, _: self_yd_module(h),
            HopfProjection: lambda p, _: projection_yd(p),
            TruncatedSimplicialHopf:
                lambda t, args: projection_yd(_level_cut(t, args)),
            YDModule: _itself},
           "does not define a Yetter-Drinfeld module"),
    "projection": ({HopfProjection: _itself,
                    TruncatedSimplicialHopf: _level_cut},
                   "is not a Hopf projection; give a projection document "
                   "or proj-* builtin"),
    "simplicial": ({TruncatedSimplicialHopf: _itself},
                   "is not simplicial; give a simplicial document or "
                   "nerve-* builtin"),
    "crossed_module": ({GroupTable: lambda g, _: identity_crossed_module(g),
                        GroupCrossedModule: _itself},
                       "is not a crossed module; give a crossed_module "
                       "document or a group builtin "
                       "(taken as (id: G -> G, conjugation))"),
    # a simplicial input, or the depth-2 nerve of a crossed module
    "tower": ({TruncatedSimplicialHopf: _itself,
               GroupTable: lambda g, args: linearize(
                   _nerve(args, identity_crossed_module(g), 2)),
               GroupCrossedModule: lambda x, args: linearize(
                   _nerve(args, x, 2))},
              "is neither simplicial nor a crossed module; give a "
              "simplicial, crossed_module or group document"),
}


def _load(args, kind: str):
    """The object --builtin/--input names, converted for ``kind``."""
    if args.builtin:
        _require_allow_large(args, args.builtin)
        obj = fixtures.builtin_raw(args.builtin)
    elif args.input:
        obj = io.parse_definition(args.input)
    else:
        raise UsageError("choose an object with --builtin NAME or --input PATH")
    conversions, hint = _KINDS[kind]
    for cls, convert in conversions.items():
        if isinstance(obj, cls):
            return convert(obj, args)
    raise UsageError(f"{type(obj).__name__} {hint}")


# -- subcommand handlers (each returns a Report) --------------------------


#: Radford's identities and closures hold on a split pair of Hopf algebras
_BREAKS_HOPF = "an algebra of this projection breaks a Hopf axiom"


def _cmd_check_hopf(args) -> Report:
    return check_hopf(_load(args, "hopf"))


def _cmd_check_yd(args) -> Report:
    v = _load(args, "yd")
    rep = check_yd(v)
    braid = yd_braiding(v, v, require_invertible=False)
    rep.add("self-braiding-invertible", try_inverse(braid) is not None)
    return rep


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_rker(args) -> Report:
    p = _load(args, "projection")
    kernel_generators(p)    # Radford's identities: only a non-Hopf input fails
    rep = Report(f"rker {p.name}")
    sub = rker(p.proj, "right")
    rep.add("contains-unit", sub.contains_vector(p.big.unit.column(0)))
    agree = kernel_sides_agree(p.proj)
    rep.info("all-three-kernels-agree",
             "yes" if agree
             else "no; the right kernel is the one Radford's theorem uses")
    rep.derived["dim"] = sub.dim
    rep.derived["basis"] = [_basis_label(p.big.space, sub.inclusion.column(j))
                            for j in range(sub.dim)]
    return rep


def _basis_label(space, col) -> str:
    parts = []
    for i in sorted(col):
        c = scalar_text(col[i])
        parts.append(space.label(i) if c == "1" else f"{c}*{space.label(i)}")
    return " + ".join(parts)


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_kernel_generators(args) -> Report:
    p = _load(args, "projection")
    rep = Report(f"kernel-generators {p.name}")
    f, g = kernel_generators(p)   # raises ClosureFailure when identities break
    I, big = p.big.space, p.big
    rep.add("f-idempotent", True)   # kernel_generators enforced it
    rep.add("g-absorbs-f", True)
    sub = rker(p.proj, "right")
    rep.equality("f-fixes-kernel", f @ sub.inclusion, sub.inclusion)
    rep.equality("f-g-convolution-is-unit",
                 composite_map(I, I, [big.comul, [f, g], big.mul]),
                 big.unit @ big.counit)
    rep.add("f-ipar-convolution-is-identity", True)   # enforced too
    rep.derived["dim_kernel"] = sub.dim
    return rep


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_braided_hopf(args) -> Report:
    p = _load(args, "projection")
    res = induced_braided_hopf(p)
    rep = Report(f"braided-hopf {p.name}")
    rep.extend(check_braided_hopf(res.braided))
    rep.derived["dim"] = res.subspace.dim
    return rep


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_bosonise(args) -> Report:
    p = _load(args, "projection")
    res = induced_braided_hopf(p)
    boso = bosonisation(res.braided)
    rep = Report(f"bosonise {p.name}")
    rep.extend(check_hopf(boso))
    rep.derived["dim_kernel"] = res.subspace.dim
    rep.derived["dim_bosonisation"] = boso.dim
    return rep


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_radford_iso(args) -> Report:
    p = _load(args, "projection")
    _, _, rep = radford_iso(p)
    return rep


@closure_is_hypothesis(_BREAKS_HOPF)
def _cmd_pushforward(args) -> Report:
    # Interchange the kernel module up to the big algebra.  Pushing an
    # arbitrary module can break the Yetter-Drinfeld compatibility (the
    # adjoint module on the whole big algebra does, for either builtin
    # projection), so the command pushes the module the interchange is
    # for: the Radford kernel with its induced structure.
    p = _load(args, "projection")
    small_mod = induced_braided_hopf(p).braided.carrier
    pushed = yd_pushforward(p, small_mod)
    rep = Report(f"pushforward {p.name}")
    rep.extend(check_yd(pushed))
    rep.equality("braiding-preserved",
                 yd_braiding(pushed, pushed), yd_braiding(small_mod, small_mod))
    rep.derived["dim"] = pushed.dim
    return rep


def _cmd_simplicial_check(args) -> Report:
    return verify_simplicial(_load(args, "simplicial"))


def _cmd_nerve(args) -> Report:
    x = _load(args, "crossed_module")
    nerve = _nerve(args, x, 3)
    rep = Report(f"nerve {x.name}")
    rep.add("nerve-constructed", True,
            detail="faces/degeneracies verified as homomorphisms")
    rep.derived["depth"] = nerve.depth
    rep.derived["level_orders"] = [lv.order for lv in nerve.levels]
    return rep


def _cmd_linearize(args) -> Report:
    t = _load(args, "tower")
    rep = Report(f"linearize {t.name}")
    rep.add("levels-linearized", True)
    rep.derived["level_dims"] = [lv.dim for lv in t.levels]
    if args.json:
        rep.derived["document"] = io.simplicial_to_json(t)
    return rep


def _cmd_pipeline(args) -> Report:
    t = _load(args, "simplicial")
    rep = Report(f"pipeline {t.name}")
    rep.extend(check_fg_commutation(t))
    rep.extend(dim2_pipeline(t).report)
    return rep


def _cmd_peiffer(args) -> Report:
    t = _load(args, "simplicial")
    return peiffer_pairing(t).report


def _cmd_extract_xmod(args) -> Report:
    t = _load(args, "simplicial")
    _, rep = extract_xmod(t)
    rep.derived["dims"] = {k: rep.derived[f"dim_{k}"]
                           for k in ("A100", "A200", "A221")}
    return rep


def _cmd_moore_oracle(args) -> Report:
    name = args.builtin
    if name and fixtures.builtin_kind(name) == "simplicial":
        _require_allow_large(args, name)
        return moore_group_oracle(fixtures.group_nerve(name),
                                  fixtures.crossed_module(
                                      name.removeprefix("nerve-")))
    x = _load(args, "crossed_module")
    return moore_group_oracle(_nerve(args, x, 2), x)


def _cmd_check_restriction(args) -> Report:
    return level3_restriction_probe(_load(args, "simplicial"))


_COMMANDS = {
    "check-hopf": (_cmd_check_hopf, "verify the Hopf axioms of an algebra"),
    "check-yd": (_cmd_check_yd, "verify a Yetter-Drinfeld module"),
    "rker": (_cmd_rker, "right kernel of a split projection"),
    "kernel-generators": (_cmd_kernel_generators,
                          "the f/g generator maps and their identities"),
    "braided-hopf": (_cmd_braided_hopf,
                     "braided Hopf structure on the kernel"),
    "bosonise": (_cmd_bosonise, "bosonisation (biproduct) of the kernel"),
    "radford-iso": (_cmd_radford_iso,
                    "isomorphism bosonisation(kernel) == the big algebra"),
    "pushforward": (_cmd_pushforward,
                    "interchange a YD module along a projection"),
    "simplicial-check": (_cmd_simplicial_check,
                         "verify the simplicial identities"),
    "nerve": (_cmd_nerve, "nerve of a group crossed module"),
    "linearize": (_cmd_linearize,
                  "group algebras of a nerve, optionally as JSON"),
    "pipeline": (_cmd_pipeline, "the level-2 kernel tower A1, A2, A2(2,1)"),
    "peiffer": (_cmd_peiffer, "Peiffer pairing, composite vs closed form"),
    "extract-xmod": (_cmd_extract_xmod,
                     "braided Hopf crossed module from a simplicial algebra"),
    "moore-oracle": (_cmd_moore_oracle,
                     "group-level Moore complex cross-check"),
    "check-restriction": (_cmd_check_restriction,
                          "probe the level-3 restriction obstruction"),
}

#: errors that mean "the mathematics of the input failed" -> exit 1
_MATH_ERRORS = (NotAProjection, NonInvertibleAntipode, NonInvertibleBraiding,
                InvalidGroup, InvalidCrossedModule, HypothesisFailed)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfforge",
        description="exact checks for Hopf algebras, Yetter-Drinfeld "
                    "modules, Radford kernels and simplicial towers")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--builtin", metavar="NAME",
                        help="a built-in object: " +
                             ", ".join(fixtures.BUILTIN_NAMES))
        sp.add_argument("--input", metavar="PATH",
                        help="a JSON definition document")
        sp.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
        sp.add_argument("--allow-large", action="store_true",
                        help="permit dim-216 levels (nerve-s3-id)")
        sp.add_argument("--level", type=int, default=None, metavar="N",
                        help="simplicial level to cut a projection from")
        sp.add_argument("--face", type=int, default=None, metavar="J",
                        help="face index d_J (with --level)")
        sp.add_argument("--degeneracy", type=int, default=None, metavar="K",
                        help="degeneracy index s_K (with --level)")
    return ap


def _run(argv):
    """Parse argv and run its subcommand: (args, report)."""
    args = _parser().parse_args(argv)
    if not args.command:
        raise UsageError("no subcommand given; see hopfforge --help")
    if args.input and not args.builtin:
        # a bare {"builtin": NAME} document is --builtin NAME, so that it
        # meets the same --allow-large guard before anything is built
        args.input = io.read_document(args.input)
        args.builtin = io.builtin_reference(args.input)
    return args, _COMMANDS[args.command][0](args)


def run_command(argv) -> Report:
    """Dispatch one subcommand; raises instead of exiting."""
    return _run(argv)[1]


def main(argv=None) -> int:
    try:
        args, rep = _run(argv)
    except SystemExit as e:          # argparse --help/--version or bad flags
        return int(e.code or 0)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _MATH_ERRORS as e:
        print(f"failed: {e}", file=sys.stderr)
        return 1
    except HopfForgeError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return 3
    except Exception as e:           # noqa: BLE001 - last-resort bucket
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    exit_code = 0 if rep.ok else 1
    if args.json:
        d = rep.to_dict(version=__version__)
        d["exit_code"] = exit_code
        sys.stdout.write(io.dump_json(d))
    else:
        print(rep.format_text())
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
