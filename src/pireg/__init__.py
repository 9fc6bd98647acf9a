"""Dimensionless-feature construction and units-equivariant regression.

Exact integer linear algebra (Smith normal form) turns a table of feature
units into a lattice of dimensionless monomial features and a family of
unit-restoring decoder monomials; linear and LASSO fits over those features
are exactly equivariant to any change of base units.
"""

from .units import (
    BaseUnitSystem,
    GroupElement,
    Quantity,
    UnitVector,
    UnitMismatch,
    UnknownUnit,
    format_unit,
    parse_unit,
    rescale,
    si_system,
)
from .intlinalg import (
    IntMatrix,
    nullspace_basis,
    rank,
    smith_normal_form,
    solve_diophantine,
)
from .geometry import invariant_rows, scalarize
from .pi import (
    FeatureDef,
    FeatureSpec,
    Monomial,
    MonomialSet,
    build_design_matrix,
    decoder_solutions,
    degree,
    dimensionless_basis,
    enumerate_monomials,
    lattice_points,
    reynolds_project,
    sample_dimensional_monomials,
    total_degree,
)
from .regress import (
    DataError,
    Dataset,
    RegressionModel,
    fit_lasso,
    fit_monomial_model,
    fit_monomial_models,
    fit_ols,
    load_dataset_csv,
    predict,
    save_dataset_csv,
)

__version__ = "0.1.0"
