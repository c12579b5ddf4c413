"""lkwb: exact-arithmetic workbench for the Lawrence-Krammer representation.

Constructs the representation of the BMW algebra over exact ground fields
(Q, Q(l,r), Q(r), Q[x]/(f)), decides reducibility at specialized parameters
via the kernel of a distinguished test element, and certifies the
dimensions and uniqueness of the invariant subspaces at every
reducibility locus.
"""

__version__ = "0.1.0"
