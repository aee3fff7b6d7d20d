"""cfspectra: exact desk-scale lab for rank-one towers, cocycles and Koopman spectra."""

from .cyclotomic import Cyclo, abs_lower, abs_upper
from .groups import (
    Automorphism,
    Character,
    Element,
    FinAbGroup,
    Subgroup,
    annihilator,
    catalog_search,
    character_orbit_average,
    multiplicity_set,
    orbit,
    separation_witness,
)
from .tower import Cylinder, Point, Tag, Tower, defect_fraction, measure
from .cocycle import Cocycle, CosetSpace, TailShift, check_coboundary_condition
from .pairings import LevelPairing, PairingEngine
from .koopman import (
    pairing,
    separation_check,
    skew_decomposition_check,
    tail_shift_residual,
    weak_limit_residual_even,
    weak_limit_residual_stagger,
)
from .spectra import generic_diagonal, homogeneous_multiplicity_check, multiplicity_function
from .recurrence import multiple_recurrence_search, return_cuts, transport_witness
from .experiment import ExperimentConfig, build_tower

__version__ = "0.1.0"
