"""supercluster: an exact engine for the cluster theory of the unipotent
upper triangular groups over small finite fields.

The public surface, by layer: gf (exact GF(p^k)), core (matrices,
functionals, the six actions), clusters (template classification and the
d/i indices), characters (cyclotomic character tables), tensor (the product
ring), discrete (the discrete-series decomposition), oracle + verify
(brute-force certification; packed is the oracle's integer encoding, lanes
runs verify's checks in two processes), cli (the command line).
clear_memos() empties every module-level memo of the engine.
"""

from .gf import Field, FieldElement, field_make
from .core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_adjoint,
    act_left,
    act_right,
    coact_coadjoint,
    coact_left,
    coact_right,
    e_ij,
    elementary,
    eps_ij,
    evaluate,
    fixes_left,
    identity,
)
from .cyclotomic import Cyclotomic
from .clusters import (
    ClusterInvariants,
    Template,
    adjoint_cluster_size,
    adjoint_template_of,
    bell_poly,
    cluster_size,
    coadjoint_template_of,
    enumerate_templates,
    invariants_of,
    parse_template,
)
from .characters import (
    CharacterTable,
    build_table,
    char_value_closed,
    char_value_sum,
    degree,
    fourier_value,
    inner_product,
    self_intertwining,
    table_from_json,
    theta_of,
    verify_axioms,
)
from .tensor import CharSum, c_count, primary_product, tensor_by_counting, tensor_rewrite
from .discrete import (
    DeltaDecomposition,
    delta_decompose,
    delta_multiplicity,
    delta_value,
    in_delta,
    is_degenerate,
)
from .errors import InvariantViolation, ResourceCapExceeded
# Nothing in the engine calls util any more, but perfbench's tracer looks up
# every layer module by name, util included.
from . import util  # noqa: F401

__version__ = "0.1.0"


def clear_memos() -> None:
    """Empty every module-level memo of the engine: the left-orbit splits of
    clusters, the cell tables of characters and the two step caches of
    tensor, rewrite and count."""
    from . import characters, clusters, tensor

    characters._cell_tables.cache_clear()
    clusters.left_orbits.cache_clear()
    tensor._rewrite_step.cache_clear()
    tensor._count_step.cache_clear()
