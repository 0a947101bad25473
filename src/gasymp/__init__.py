"""gasymp: exact computer algebra for additive-group actions on cotangent
bundles — moment maps, level-set geometry, stability loci, invariant rings,
and the embedding into the enveloping SL2 picture."""

from .poly import (BLOCK_ALPHA, BLOCK_AUX, BLOCK_X, BlockElim, Derivation,
                   GrevLex, GREVLEX, Lex, LEX, MonomialOrder, PolyMap,
                   Polynomial, VariableTable, format_poly)
from .groebner import DEFAULT_CAPS, GroebnerCaps, Ideal, NotCompleted
from .forms import DifferentialForm, exterior_derivative, liouville, pullback, wedge
from .reps import (GaRep, NilpotentInput, RepSpecError, cotangent_lift,
                   ga_action, jordan_decompose, parse_rep, sl2_infinitesimal)
from .moments import (MomentTriple, WeightMatrix, cox_torus_data, ga_moment,
                      moment_triple, sl2_moment_w, torus_moment,
                      verify_equivariance, verify_lifting_identity)
from .levelsets import (GeometryReport, Hypersurface, classify, components,
                        fixed_locus, check_moment_vanishes_on_unstable,
                        stable_complement_codim, unstable_locus)
from .invariants import (InvariantReport, QuotientRing, essen_derksen, graded_kernel,
                         nullcone_equals_fixed, restriction_misses, section_sigma,
                         verify_generators)
from .comparison import (EmbeddingMap, build_embedding, induced_quotient_map_sym2,
                         induced_quotient_maps_sym1, scaling_map,
                         verify_embedding_into_zero_level,
                         verify_equivariance_of_embedding, verify_family_scaling,
                         verify_liouville_pullback)

__version__ = "0.1.0"
