"""Exact calculator and verifier for Thom polynomials of Morin loci, the
associated Gysin pushforward identities, and the cusp germ lab.

Everything is computed exactly: characteristic classes live in a sparse
GF(2) polynomial ring (with a free-plus-torsion model for the integral
classes), the germ computations in rational arithmetic. Each theorem-level
statement has a verifier returning a Report with pass/fail checks and
witnesses; run_suite chains them all.
"""

from .gf2 import GF2Poly, poly_from_json, poly_to_json, sq1
from .gysin import verify_pushforward
from .reports import Report
from .suite import run_suite
from .thom import (gtp, morin_tp, morin_tp_integral, sigma2_integral,
                   verify_cusp_coincidence, verify_gtp_convention,
                   verify_morin_derivation, verify_prim_coincidence,
                   verify_twisted_coincidence)

__version__ = "0.1.0"

__all__ = [
    "GF2Poly", "Report", "gtp", "morin_tp", "morin_tp_integral",
    "poly_from_json", "poly_to_json", "run_suite", "sigma2_integral", "sq1",
    "verify_cusp_coincidence", "verify_gtp_convention",
    "verify_morin_derivation", "verify_prim_coincidence",
    "verify_pushforward", "verify_twisted_coincidence",
]
