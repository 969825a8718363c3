"""absarith: exact invariants of pointed-set endomorphisms, Arakelov theta
invariants with their probabilistic counting, and brute-force homotopy of the
simplicial spaces attached to divisors."""

from .arakelov import (
    ArakelovDivisor,
    Lattice1,
    McResult,
    ScaleValue,
    count_E_xi,
    count_xi_over_L,
    degree,
    e_xi_member,
    exp_degree,
    gaussian_avg_mc,
    gaussian_avg_quadrature,
    lattice_of,
    principal,
    riemann_roch_defect,
    theta_h0,
    theta_h0_of_degree,
)
from .combinat import delannoy, delannoy_table, iter_l1_ball
from .dold_kan import (
    FiniteAbelianGroup,
    GroupHom,
    HomotopyGroups,
    HPhiElement,
    PairMap,
    PairOfPointedSets,
    boundary,
    degeneracy as dk_degeneracy,
    h_phi_add,
    h_phi_map,
    h_phi_zero,
    homotopy_groups,
    simplicial_level,
    simplicial_map,
)
from .errors import CapExceeded
from .gamma_core import (
    NormedVectorConfig,
    PointedEndo,
    PointedMap,
    collapse,
    cycle_type,
    eventual_image,
    norm_filtered_member,
    odometer,
    push_forward,
    smash,
    trace,
    wedge,
)
from .gamma_space import (
    GSConfig,
    GSElement,
    TrivialityCertificate,
    face,
    degeneracy,
    higher_pi_trivial,
    member,
    pi0_cardinality_k1,
    pi0_trivial_predicate,
    pi1_count,
    pi1_spherical_enumerate,
    zero_element,
)
from .group_ring import (
    GroupRingElt,
    act_unit,
    fourier,
    ghost_invariant,
    groupring_to_witt,
    is_invariant,
    primitive_orbit_sum,
    rho_tilde,
    sigma,
    witt_to_groupring,
)
from .packing import PackingResult, circle_distance, packing_number
from .witt import (
    WittElement,
    frobenius,
    from_ghost,
    from_primitive_basis,
    ghost,
    ghost_vector,
    tau,
    to_primitive_basis,
    verschiebung,
)

__version__ = "0.1.0"
