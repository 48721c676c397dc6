"""Decision analysis with belief functions on valuation networks.

Networks of decision and random variables carry utility valuations and
conditional belief-function potentials; a fusion (variable-elimination)
algorithm with a lambda-weighted decision calculus computes expected values
and optimal strategies.
"""

from .calculus import (
    SolutionTable,
    combine,
    combine_all,
    marginalize,
    marginalize_belief,
)
from .errors import (
    DomainMismatchError,
    KindError,
    MassError,
    NetworkError,
    NotWellDefinedError,
    ProblemFormatError,
    SolverError,
    TotalConflictError,
    UtilityError,
    ValnetError,
)
from .model import (
    DIAMOND,
    Variable,
    all_configs,
    decision,
    make_config,
    random_var,
)
from .network import Network, ValidationReport, elimination_order, validate
from .problemfile import ParsedProblem, parse_problem, serialize
from .solver import (
    FusionStep,
    SolveResult,
    Strategy,
    UtilityInterval,
    bayesian_check,
    expected_interval,
    fuse,
    lambda_sweep,
    oracle_solve,
    propagate_marginal,
    solve,
)
from .valuation import (
    BeliefFocal,
    ConditionalPotential,
    Focal,
    Valuation,
    belief_of,
    conditional,
    is_conditional,
    make_bpa,
    make_utility,
    vacuous,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
