"""Coordinator automaton states (paper Fig 1(b)).

A coordinator is a hybrid process participating in two algorithms; its
global state is the combination of its intra-level and inter-level
states:

========================  ===========  ===========
global state              intra state  inter state
========================  ===========  ===========
``OUT``                   CS           NO_REQ
``WAIT_FOR_IN``           CS           REQ
``IN``                    NO_REQ       CS
``WAIT_FOR_OUT``          REQ          CS
========================  ===========  ===========

The safety argument of §3.1 rests on the invariant that at most one
coordinator system-wide is in ``IN`` or ``WAIT_FOR_OUT`` (both imply
possession of the single inter token).
"""

from __future__ import annotations

import enum

__all__ = ["CoordinatorState"]


class CoordinatorState(enum.Enum):
    """Global state of a coordinator (paper Fig 1(b)).

    ``STARTING`` is an implementation detail absent from the paper's
    automaton: the window between construction and the first acquisition
    of the intra CS.  For token-based intra algorithms it lasts zero
    simulated time (the coordinator holds the token and enters
    synchronously); for permission-based ones it covers the startup
    round-trip, during which the coordinator's time-zero, lowest-id
    request outranks every application request.
    """

    #: Initial acquisition of the intra CS is in flight.
    STARTING = "STARTING"
    #: Holds the intra token, no local demand: the cluster is out of the CS.
    OUT = "OUT"
    #: Local demand exists; holds the intra token, waiting for the inter token.
    WAIT_FOR_IN = "WAIT_FOR_IN"
    #: Holds the inter token; the intra token circulates among local
    #: application processes.
    IN = "IN"
    #: Still holds the inter token but is re-acquiring the intra token in
    #: order to satisfy a remote cluster's pending request.
    WAIT_FOR_OUT = "WAIT_FOR_OUT"

    @property
    def holds_inter_token(self) -> bool:
        """Whether a coordinator in this state possesses the inter token
        *as critical-section right* (``IN``/``WAIT_FOR_OUT``).  Note an
        ``OUT`` coordinator may still *store* an idle inter token."""
        return self in (CoordinatorState.IN, CoordinatorState.WAIT_FOR_OUT)
