"""Exact Spencer cohomology and jet calculus for transitive pseudogroups.

All linear algebra is integer/rational; no floating point enters any
computation.  Subspaces are stored as primitive integer rows in canonical
reduced echelon form; ``Fraction`` values appear at the API boundary.
Subpackages:

* exactla    -- exact sparse vectors, subspaces, echelon forms
* symbolic   -- symbol spaces, the lowering differential, cohomology
* covariants -- flag restrictions, stationary subsymbols, obstruction spaces
* catalog    -- built-in pseudogroup symbols and dimension formulas
* jetcalc    -- polynomial jets, prolonged fields, Tresse derivatives
* cli        -- deterministic command-line front end
"""

__version__ = "0.1.0"

from .errors import (AmbientMismatch, CancellationFailure, CapExceeded,
                     ConsistencyCheckFailed, DegreeUnderflow,
                     EquationNotInvariant, MissingGrade,
                     NotASubcomplex, NotASubspace, ParamOutOfRange,
                     ShapeMismatch, SingularJacobian, SpencerError,
                     UnsupportedDegree, ZeroVector)
from .exactla import LinearMap, Subspace, TensorShape
from .symbolic import (SymbolicSystem, char_fiber, delta_map, prolong,
                       spencer_H, spencer_table, strongly_noncharacteristic)
from .covariants import (CovariantReport, FlagContext, covariants,
                         covariant_cohomology, restriction_isomorphism_check,
                         restriction_kernel, restriction_map,
                         stationary_subspace, transversality_scan)
from .catalog import (PseudogroupSpec, contact_lie_dim, make_spec,
                      parse_pseudogroup, point_lie_dim, symbol, symbol_dim,
                      system)
