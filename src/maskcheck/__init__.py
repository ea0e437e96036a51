"""Verification of masked arithmetic programs against first-order
power side-channel attacks.

The pipeline: parse a straight-line program, expand each internal
variable into an expression over the inputs, assign distribution types
by syntactic rules, simplify what the rules cannot decide, and settle
the rest by exact model counting (enumeration or an external SMT
solver). Leaky variables additionally get a quantitative masking
strength, the exact complement of the best distinguishing advantage.
"""

from .counting import (
    DEFAULT_BUDGET,
    CountVector,
    Qms,
    check_si,
    check_uniform,
    distribution,
    qms_exact,
)
from .domain import (
    DEFAULT_POLYS,
    MAX_BITS,
    DomainConfig,
    eval_op,
    gf_mul,
    gf_mul_vec,
    is_irreducible,
    make_domain,
)
from .errors import (
    BadDegree,
    BudgetExceeded,
    InconclusiveSolver,
    MaskcheckError,
    NonConstShift,
    NotSSA,
    ParseError,
    ReduciblePolynomial,
    ShiftOutOfRange,
    SolverSpawnFailure,
    TooManyCopies,
    UncoveredVariable,
    UnknownClass,
    UnknownVariable,
    UseBeforeDef,
    VariableTimeout,
)
from .expr import (
    INTERNAL,
    PUBLIC,
    RANDOM,
    SECRET,
    Binary,
    Const,
    Expr,
    Unary,
    Var,
    binop,
    const,
    eval_expr,
    eval_vec,
    neg,
    postorder,
    pretty,
    replace,
    rvars,
    size,
    subterms,
    var,
    variables,
)
from .infer import (
    RUD,
    SDD,
    SID,
    UKD,
    DistType,
    Judgement,
    RunMemo,
    at_most_sid,
    dominant_vars,
    infer,
)
from .program import Program, Statement, execute, expr_of, parse
from .reduction import (
    BUILTIN_META,
    apply_algebraic_laws,
    apply_meta_theorems,
    eliminate_dominated,
    eliminate_ineffective,
    effective_variables,
    is_effective,
    load_meta_patterns,
    parse_pattern,
    simplify,
)
from .smt import (
    MAX_COPY_BITS,
    SAT,
    UNKNOWN,
    UNSAT,
    SmtQuery,
    SolverSession,
    SolverVerdict,
    check_sat,
    encode_psi,
    qms_smt,
)
from .verify import (
    ENGINES,
    METHOD_COUNT_BF,
    METHOD_COUNT_SMT,
    METHOD_INCONCLUSIVE,
    METHOD_REDUCED,
    METHOD_TYPE,
    EngineConfig,
    Report,
    VariableVerdict,
    pm_check,
    qms_compute,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
)

__version__ = "0.1.0"


def corpus_dir():
    """Directory holding the bundled example programs."""
    from .cli import corpus_dir as _dir
    return _dir()
