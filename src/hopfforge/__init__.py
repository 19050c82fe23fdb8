"""Exact-arithmetic toolkit for finite-dimensional Hopf algebras.

Everything is structure constants over Q (``int`` when whole, else
``fractions.Fraction``): Hopf algebras and their axiom checkers,
Yetter-Drinfeld modules and their braiding, Radford's braided Hopf
algebra on the kernel of a split projection with its bosonisation,
truncated simplicial Hopf algebras, the level-2 kernel tower, the
Peiffer pairing, braided Hopf crossed module extraction, and a
group-level Moore-complex oracle.  The ``hopfforge`` command line
exposes the same operations on JSON inputs.

Import each name from the module that defines it: ``linalg`` (spaces,
maps, subspaces), ``report`` (checks), ``hopf`` (Hopf algebras, groups,
projections), ``yd`` (Yetter-Drinfeld modules, braided Hopf algebras),
``radford`` (kernels, bosonisation), ``simplicial`` (towers, nerves,
crossed modules), ``io`` (JSON), ``fixtures`` (builtins), ``cli``.
"""

__version__ = "0.1.0"
