"""Exact decomposition of upper-half-plane iterated integrals into
Eisenstein-integral words, with the derivation-algebra and Fourier
constraints on the image.  The symbol ``pi`` denotes 2*pi*i throughout."""

from .coeffring import (
    CoeffElem,
    MzvMonomial,
    MzvTable,
    bernoulli,
    coeff_mul,
    load_mzv_table,
    reduce_even_zeta,
    shipped_table,
)
from .decomp import (
    Decomposition,
    decompose,
    diffeq_expand,
    emzv_qexp,
    find_emzv_relations,
    gseries_decompose,
)
from .derlie import (
    annihilates,
    build_D_derivation,
    find_lie_relations,
    fourier_membership,
    to_E0_basis,
    uu_dual_membership,
)
from .eisalg import (
    EPoly,
    deconcat,
    eisenstein_qexp,
    epoly_mul,
    epoly_to_qexp,
    iei_qexp,
    shuffle_words,
)
from .errors import (
    ConsistencyError,
    DegreeMismatch,
    DimensionMismatch,
    EmzvError,
    ExtractionInconsistent,
    FourierViolation,
    ParseError,
    PreconditionViolated,
    TableOverflow,
)
from .linalg import RatMatrix, kernel_basis, rref, solve
from .ncalg import (
    NCSeries,
    ad_pow,
    build_Ainf,
    build_phi,
    build_ytilde,
    extract_gamma,
    nc_exp,
    nc_inv,
    nc_mul,
    shuffle_regularize,
)
from .qseries import QTSeries, qt_antider, qt_ddT, qt_mul

__version__ = "0.1.0"
