"""A reference evaluator for ``linalg.composite_map``: column by column on
sparse vectors {index: value}, for any maps.

Each domain basis vector is pushed through the stages one at a time.  A
tensor stage decodes every index into its factors' coordinates, takes the
product of the factors' columns (a Space part is the identity on its
factor) and encodes each combination back into one index; equal indices
are summed and zeros dropped.  It reads maps only through
``LinMap.column``, so it shares nothing with the array engine but that
accessor and the ``LinMap(...)`` constructor of its result.
"""

import itertools

from hopfforge.errors import DimensionMismatch
from hopfforge.linalg import LinMap, Space


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


def _stage_parts(stage):
    """Normalise one stage to [(in_dim, out_dim, map_or_None)]."""
    parts = []
    for p in [stage] if isinstance(stage, LinMap) else stage:
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
        factor_terms = []
        for (_, _, m), c in zip(parts, _decode(idx, in_dims)):
            col = {c: 1} if m is None else m.column(c)
            if not col:
                break
            factor_terms.append(tuple(col.items()))
        else:
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
    """``linalg.composite_map`` evaluated column by column."""
    stages = [_stage_parts(st) for st in stages]
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
