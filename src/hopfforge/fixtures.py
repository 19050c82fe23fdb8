"""Built-in objects addressable by name from the command line and tests.

The registry covers the standard small examples: the group algebras of
1, C2, C3, S3, the 4-dimensional Sweedler algebra, two split Hopf
projections (Sweedler H4 -> kC2 and the sign surjection kS3 -> kC2), and
three linearized nerves of group crossed modules.  ``nerve-s3-id`` has a
dim-216 top level and is marked large; the command line requires
--allow-large before building it.
"""

from functools import lru_cache

from .errors import UsageError
from .linalg import LinMap, SCALAR, Space, tensor_space
from .hopf import (GroupTable, HopfAlgebra, HopfProjection, cyclic_group,
                   group_algebra, s3_sign_indices, sweedler_algebra,
                   symmetric_group_3, trivial_group)
from .simplicial import (GroupCrossedModule, TruncatedSimplicialGroup,
                         identity_crossed_module, linearize,
                         nerve_of_crossed_module)


@lru_cache(maxsize=None)
def _group(name: str) -> GroupTable:
    return {
        "trivial": trivial_group,
        "c2": lambda: cyclic_group(2),
        "c3": lambda: cyclic_group(3),
        "s3": symmetric_group_3,
    }[name]()


@lru_cache(maxsize=None)
def proj_sweedler() -> HopfProjection:
    """H4 ->> kC2: g stays, x dies; the section embeds 1, g."""
    h4 = sweedler_algebra()
    kc2 = group_algebra(_group("c2"))
    proj = LinMap.from_rows(h4.space, kc2.space,
                            [[1, 0, 0, 0], [0, 1, 0, 0]])
    incl = LinMap.from_rows(kc2.space, h4.space,
                            [[1, 0], [0, 1], [0, 0], [0, 0]])
    return HopfProjection(h4, kc2, proj, incl, name="H4->kC2")


@lru_cache(maxsize=None)
def proj_sign_s3() -> HopfProjection:
    """kS3 ->> kC2 by parity, split by g -> (12)."""
    s3 = _group("s3")
    ks3 = group_algebra(s3)
    kc2 = group_algebra(_group("c2"))
    sign = s3_sign_indices()
    proj = LinMap.from_entries(ks3.space, kc2.space,
                               {(sign[j], j): 1 for j in range(6)})
    incl = LinMap.from_entries(kc2.space, ks3.space,
                               {(s3.index("e"), 0): 1,
                                (s3.index("(12)"), 1): 1})
    return HopfProjection(ks3, kc2, proj, incl, name="kS3->kC2")


@lru_cache(maxsize=None)
def crossed_module(name: str) -> GroupCrossedModule:
    if name == "c2-id":
        return identity_crossed_module(_group("c2"))
    if name == "c2-trivial":
        c2 = _group("c2")
        return GroupCrossedModule(trivial_group(), c2, [c2.identity],
                                  [[0], [0]], name="1->C2")
    if name == "s3-id":
        return identity_crossed_module(_group("s3"))
    raise UsageError(f"unknown crossed module {name!r}")


# nerve-NAME is the nerve of crossed_module(NAME) to this depth; the kernel
# tower needs levels 0..2, and nerve-s3-id's level 3 would have order 1296
_NERVE_DEPTHS = {"nerve-c2-id": 3, "nerve-c2-trivial": 3, "nerve-s3-id": 2}


@lru_cache(maxsize=None)
def group_nerve(name: str) -> TruncatedSimplicialGroup:
    """The group-level nerve behind a nerve-* builtin."""
    if name not in _NERVE_DEPTHS:
        raise UsageError(f"unknown nerve {name!r}")
    return nerve_of_crossed_module(crossed_module(name.removeprefix("nerve-")),
                                   depth=_NERVE_DEPTHS[name], name=name)


def corrupted_c2():
    """k[C2] with a spurious unit coefficient in the 1*g column.

    C2 is small enough that swapping table cells keeps the product
    associative, so the corruption adds 1 to the unit row instead:
    1*g = g + 1 breaks associativity at the triple (1, 1, g) while the
    antipode stays invertible, so the object still constructs.
    """
    space = Space(("1", "g"))
    sq = tensor_space(space, space)
    mul = LinMap.from_entries(sq, space, {
        (0, 0): 1, (1, 1): 1, (0, 1): 1, (1, 2): 1, (0, 3): 1})
    unit = LinMap.from_entries(SCALAR, space, {(0, 0): 1})
    comul = LinMap.from_entries(space, sq, {(0, 0): 1, (3, 1): 1})
    counit = LinMap.from_rows(space, SCALAR, [[1, 1]])
    antipode = LinMap.identity(space)
    return HopfAlgebra(space, mul, unit, comul, counit, antipode,
                       name="corrupted-kC2")


# name -> (kind, large, builder)
_REGISTRY = {
    "trivial": ("group", False, lambda: _group("trivial")),
    "c2": ("group", False, lambda: _group("c2")),
    "c3": ("group", False, lambda: _group("c3")),
    "s3": ("group", False, lambda: _group("s3")),
    "sweedler": ("hopf", False, sweedler_algebra),
    "proj-sweedler": ("projection", False, proj_sweedler),
    "proj-sign-s3": ("projection", False, proj_sign_s3),
    "nerve-c2-id": ("simplicial", False,
                    lambda: linearize(group_nerve("nerve-c2-id"))),
    "nerve-c2-trivial": ("simplicial", False,
                         lambda: linearize(group_nerve("nerve-c2-trivial"))),
    "nerve-s3-id": ("simplicial", True,
                    lambda: linearize(group_nerve("nerve-s3-id"))),
}

BUILTIN_NAMES = tuple(_REGISTRY)


def builtin_kind(name) -> str:
    try:
        return _REGISTRY[name][0]
    except (KeyError, TypeError):
        raise UsageError(f"unknown builtin {name!r}; choose from "
                         f"{', '.join(BUILTIN_NAMES)}")


def builtin_is_large(name) -> bool:
    builtin_kind(name)
    return _REGISTRY[name][1]


@lru_cache(maxsize=None)
def builtin_raw(name):
    """The object behind a builtin name (group names give the GroupTable)."""
    builtin_kind(name)
    return _REGISTRY[name][2]()
