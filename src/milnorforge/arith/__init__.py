from .factor import is_irreducible, poly_factor
from .finite_field import FFElement, FiniteFieldCtx, ff_ctx, ff_ctx_q
from .laurent import LaurentSeries
from .local import (
    LocalFieldCtx,
    laurent_ctx,
    padic_ctx,
    principal_unit_root,
    teichmuller,
    unit_decompose,
)
from .padic import PadicNumber
from .poly import Poly

__all__ = [
    "FFElement",
    "FiniteFieldCtx",
    "LaurentSeries",
    "LocalFieldCtx",
    "PadicNumber",
    "Poly",
    "ff_ctx",
    "ff_ctx_q",
    "is_irreducible",
    "laurent_ctx",
    "padic_ctx",
    "poly_factor",
    "principal_unit_root",
    "teichmuller",
    "unit_decompose",
]
