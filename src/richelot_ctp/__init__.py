"""Descent and Cassels-Tate pairing computations for split genus-2 Jacobians over Q."""

from .arith import PlaceSet, bad_places, squarefree_reduce
from .cohomology import KummerQuintuple, KummerTriple
from .ctp import DescentReport, PairingMatrix, ctp_global, ctp_local, ctp_matrix, rank_report
from .curve import RichelotPair, build_pair
from .localfield import local_square_class
from .localpoints import (
    LocalImage,
    MumfordDivisor,
    SearchConfig,
    mu_phi,
    mu_phihat,
    mu_two,
)
from .selmer import SelmerGroup, selmer_group, torsion_images

__version__ = "0.1.0"
