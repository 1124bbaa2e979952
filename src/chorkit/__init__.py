"""chorkit: a choreographic programming kernel.

Choreographies describe multiparty protocols from a global viewpoint;
endpoint projection compiles them to networks of communicating stateful
processes that are deadlock-free by construction.  Both a synchronous and
an asynchronous (queue-based) semantics are provided, together with a
bounded checker for the metatheory connecting them.
"""

from .errors import (
    BindError,
    ChorError,
    DupProcessError,
    DupTagError,
    GuardNotBoolean,
    IllFormed,
    NonEmptyQueue,
    NotACom,
    NotProjectable,
    ParseError,
    TagsExhausted,
    UnknownProcess,
)
from .terms import (
    EMPTY_NETWORK,
    ERR,
    NIL,
    BCond,
    BRecv,
    BSend,
    BinOp,
    BoolV,
    Call,
    Cell,
    Com,
    Cond,
    Def,
    ErrV,
    Hole,
    IntV,
    Lit,
    Message,
    Network,
    Nil,
    Not,
    Process,
    Queue,
    RtRecv,
    RtSend,
    Tag,
    TagSupply,
    Value,
    gc,
    head_pn,
    pn,
    seq,
)
from .values import GlobalState, eval_expr, eval_with_cell
from .parse import parse_choreography, parse_expr, parse_network
from .render import (
    render,
    render_behaviour,
    render_choreography,
    render_expr,
    render_network,
    render_value,
)
from .sync import (
    Configuration,
    StepLabel,
    enabled,
    terminated,
)
from .chor_async import (
    NextVerdict,
    check_abstract_async,
    harvest_contexts,
    next_action,
    plug,
    unfold_com,
    well_formed,
)
from .network import (
    classify,
    enabled_asp,
    enabled_sp,
    normalize_network,
)
from .project import epp_async, epp_sync, project_behaviour, \
    project_network, projectable
from .congruence import (
    behaviour_equiv,
    canonical,
    network_equiv,
)
from .run import (
    LeftmostScheduler,
    RandomScheduler,
    Trace,
    TraceStep,
    format_trace,
    make_scheduler,
    run_chor,
    run_network,
)
from .verify import (
    CorpusSpec,
    TheoremReport,
    check_async_equivalence,
    check_deadlock_freedom,
    check_diamond,
    check_epp_async,
    check_epp_sync,
    check_sp_asp_simulation,
    check_well_formedness_preservation,
    generate_corpus,
    verify_corpus,
)

__version__ = "1.0.0"
