"""Bundled specification corpus.

Each function returns the source text of one module, parameterized by
instance size (number of resource managers, clients, or nodes).  The
two-phase commit family follows the standard protocol description:
resource managers prepare, a transaction manager collects prepares and
then commits or aborts, and resource managers may also abort silently
while still working.

`twophase_prepare` is the prepare phase only; `rm_component`,
`env_component`, `tm1_component` and `tm2_component` are its slices over
the four state variables, kept as independent hand-written transcriptions
so slicing and composition can be checked against them.
"""

from __future__ import annotations


def _rms(n):
    return "{%s}" % ", ".join('"rm%d"' % i for i in range(1, n + 1))


def _config(n):
    return "CONFIG\n  RMs = %s\n" % _rms(n)


_CONSISTENT = (
    "PROPERTY Consistent\n"
    "  \\A rm1 \\in RMs : \\A rm2 \\in RMs : "
    '~(rmState[rm1] = "aborted" /\\ rmState[rm2] = "committed")\n'
)


def twophase(n=3):
    """Full two-phase commit over n resource managers."""
    return (
        "MODULE TwoPhase\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES msgs, rmState, tmState, tmPrepared\n\n"
        + _config(n) +
        "\nINIT\n"
        "  /\\ msgs = {}\n"
        '  /\\ rmState = [rm \\in RMs |-> "working"]\n'
        '  /\\ tmState = "init"\n'
        "  /\\ tmPrepared = {}\n"
        "\nACTION SndPrepare(rm)\n"
        '  /\\ rmState[rm] = "working"\n'
        '  /\\ msgs\' = msgs \\union {[type |-> "Prepared", theRM |-> rm]}\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "prepared"]\n'
        "  /\\ UNCHANGED <<tmState, tmPrepared>>\n"
        "\nACTION RcvPrepare(rm)\n"
        '  /\\ [type |-> "Prepared", theRM |-> rm] \\in msgs\n'
        '  /\\ tmState = "init"\n'
        "  /\\ tmPrepared' = tmPrepared \\union {rm}\n"
        "  /\\ UNCHANGED <<msgs, rmState, tmState>>\n"
        "\nACTION SndCommit(rm)\n"
        '  /\\ tmState = "init"\n'
        "  /\\ tmPrepared = RMs\n"
        '  /\\ tmState\' = "committed"\n'
        '  /\\ msgs\' = msgs \\union {[type |-> "Commit"]}\n'
        "  /\\ UNCHANGED <<rmState, tmPrepared>>\n"
        "\nACTION SndAbort(rm)\n"
        '  /\\ tmState = "init"\n'
        '  /\\ tmState\' = "aborted"\n'
        '  /\\ msgs\' = msgs \\union {[type |-> "Abort"]}\n'
        "  /\\ UNCHANGED <<rmState, tmPrepared>>\n"
        "\nACTION RcvCommit(rm)\n"
        '  /\\ [type |-> "Commit"] \\in msgs\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "committed"]\n'
        "  /\\ UNCHANGED <<msgs, tmState, tmPrepared>>\n"
        "\nACTION RcvAbort(rm)\n"
        '  /\\ [type |-> "Abort"] \\in msgs\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "aborted"]\n'
        "  /\\ UNCHANGED <<msgs, tmState, tmPrepared>>\n"
        "\nACTION SilentAbort(rm)\n"
        '  /\\ rmState[rm] = "working"\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "aborted"]\n'
        "  /\\ UNCHANGED <<msgs, tmState, tmPrepared>>\n"
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ SndPrepare(rm)\n"
        "  \\/ RcvPrepare(rm)\n"
        "  \\/ SndCommit(rm)\n"
        "  \\/ SndAbort(rm)\n"
        "  \\/ RcvCommit(rm)\n"
        "  \\/ RcvAbort(rm)\n"
        "  \\/ SilentAbort(rm)\n\n"
        + _CONSISTENT +
        "\nPROPERTY NoPrepares\n"
        "  tmPrepared = {}\n"
    )


def twophase_prepare(n=3):
    """Prepare phase only (the two actions shown in the worked protocol)."""
    return (
        "MODULE TwoPhasePrep\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES msgs, rmState, tmState, tmPrepared\n\n"
        + _config(n) +
        "\nINIT\n"
        "  /\\ msgs = {}\n"
        '  /\\ rmState = [rm \\in RMs |-> "working"]\n'
        '  /\\ tmState = "init"\n'
        "  /\\ tmPrepared = {}\n"
        "\nACTION SndPrepare(rm)\n"
        '  /\\ rmState[rm] = "working"\n'
        '  /\\ msgs\' = msgs \\union {[type |-> "Prepared", theRM |-> rm]}\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "prepared"]\n'
        "  /\\ UNCHANGED <<tmState, tmPrepared>>\n"
        "\nACTION RcvPrepare(rm)\n"
        '  /\\ [type |-> "Prepared", theRM |-> rm] \\in msgs\n'
        '  /\\ tmState = "init"\n'
        "  /\\ tmPrepared' = tmPrepared \\union {rm}\n"
        "  /\\ UNCHANGED <<msgs, rmState, tmState>>\n"
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ SndPrepare(rm)\n"
        "  \\/ RcvPrepare(rm)\n\n"
        + _CONSISTENT
    )


def rm_component(n=3):
    """Prepare-phase slice over rmState."""
    return (
        "MODULE RM\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES rmState\n\n"
        + _config(n) +
        "\nINIT\n"
        '  /\\ rmState = [rm \\in RMs |-> "working"]\n'
        "\nACTION SndPrepare(rm)\n"
        '  /\\ rmState[rm] = "working"\n'
        '  /\\ rmState\' = [rmState EXCEPT ![rm] = "prepared"]\n'
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ SndPrepare(rm)\n\n"
        + _CONSISTENT
    )


def env_component(n=3):
    """Prepare-phase slice over msgs."""
    return (
        "MODULE Env\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES msgs\n\n"
        + _config(n) +
        "\nINIT\n"
        "  /\\ msgs = {}\n"
        "\nACTION SndPrepare(rm)\n"
        '  /\\ msgs\' = msgs \\union {[type |-> "Prepared", theRM |-> rm]}\n'
        "\nACTION RcvPrepare(rm)\n"
        '  /\\ [type |-> "Prepared", theRM |-> rm] \\in msgs\n'
        "  /\\ UNCHANGED <<msgs>>\n"
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ SndPrepare(rm)\n"
        "  \\/ RcvPrepare(rm)\n"
    )


def tm1_component(n=3):
    """Prepare-phase slice over tmState (guard-only RcvPrepare)."""
    return (
        "MODULE TM1\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES tmState\n\n"
        + _config(n) +
        "\nINIT\n"
        '  /\\ tmState = "init"\n'
        "\nACTION RcvPrepare(rm)\n"
        '  /\\ tmState = "init"\n'
        "  /\\ UNCHANGED <<tmState>>\n"
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ RcvPrepare(rm)\n"
    )


def tm2_component(n=3):
    """Prepare-phase slice over tmPrepared."""
    return (
        "MODULE TM2\n\n"
        "CONSTANTS RMs\n\n"
        "VARIABLES tmPrepared\n\n"
        + _config(n) +
        "\nINIT\n"
        "  /\\ tmPrepared = {}\n"
        "\nACTION RcvPrepare(rm)\n"
        "  /\\ tmPrepared' = tmPrepared \\union {rm}\n"
        "\nNEXT \\E rm \\in RMs :\n"
        "  \\/ RcvPrepare(rm)\n"
    )


def tpcounter(n=3):
    """Two-phase commit plus an always-enabled event counter.

    The counter makes the monolithic system infinite-state while leaving
    the protocol untouched, so it only verifies compositionally.
    """
    base = twophase(n)
    base = base.replace("MODULE TwoPhase\n", "MODULE TPCounter\n")
    base = base.replace(
        "VARIABLES msgs, rmState, tmState, tmPrepared",
        "VARIABLES msgs, rmState, tmState, tmPrepared, counter")
    base = base.replace(
        "  /\\ tmPrepared = {}\n\nACTION SndPrepare",
        "  /\\ tmPrepared = {}\n  /\\ counter = 0\n\nACTION SndPrepare")
    base = base.replace("UNCHANGED <<tmState, tmPrepared>>",
                        "UNCHANGED <<tmState, tmPrepared, counter>>")
    base = base.replace("UNCHANGED <<msgs, rmState, tmState>>",
                        "UNCHANGED <<msgs, rmState, tmState, counter>>")
    base = base.replace("UNCHANGED <<rmState, tmPrepared>>",
                        "UNCHANGED <<rmState, tmPrepared, counter>>")
    base = base.replace("UNCHANGED <<msgs, tmState, tmPrepared>>",
                        "UNCHANGED <<msgs, tmState, tmPrepared, counter>>")
    base = base.replace(
        "\nNEXT \\E rm \\in RMs :",
        "\nACTION Increment(rm)\n"
        "  /\\ counter' = counter + 1\n"
        "  /\\ UNCHANGED <<msgs, rmState, tmState, tmPrepared>>\n"
        "\nNEXT \\E rm \\in RMs :")
    base = base.replace("  \\/ SilentAbort(rm)\n",
                        "  \\/ SilentAbort(rm)\n  \\/ Increment(rm)\n")
    return base


def lockserv(n=3):
    """Message-passing lock server: request/grant/take/release/unlock.

    One token circulates between the server and at most one client, so
    two clients never hold the lock at once.
    """
    clients = "{%s}" % ", ".join('"c%d"' % i for i in range(1, n + 1))
    return (
        "MODULE LockServ\n\n"
        "CONSTANTS Clients\n\n"
        "VARIABLES reqs, grants, holds, rels, server\n\n"
        "CONFIG\n  Clients = %s\n" % clients +
        "\nINIT\n"
        '  /\\ reqs = [c \\in Clients |-> "none"]\n'
        '  /\\ grants = [c \\in Clients |-> "none"]\n'
        '  /\\ holds = [c \\in Clients |-> "no"]\n'
        '  /\\ rels = [c \\in Clients |-> "none"]\n'
        '  /\\ server = "free"\n'
        "\nACTION Request(c)\n"
        '  /\\ reqs[c] = "none"\n'
        '  /\\ reqs\' = [reqs EXCEPT ![c] = "sent"]\n'
        "  /\\ UNCHANGED <<grants, holds, rels, server>>\n"
        "\nACTION Grant(c)\n"
        '  /\\ reqs[c] = "sent"\n'
        '  /\\ server = "free"\n'
        '  /\\ server\' = "held"\n'
        '  /\\ grants\' = [grants EXCEPT ![c] = "sent"]\n'
        '  /\\ reqs\' = [reqs EXCEPT ![c] = "none"]\n'
        "  /\\ UNCHANGED <<holds, rels>>\n"
        "\nACTION TakeLock(c)\n"
        '  /\\ grants[c] = "sent"\n'
        '  /\\ grants\' = [grants EXCEPT ![c] = "none"]\n'
        '  /\\ holds\' = [holds EXCEPT ![c] = "yes"]\n'
        "  /\\ UNCHANGED <<reqs, rels, server>>\n"
        "\nACTION ReleaseLock(c)\n"
        '  /\\ holds[c] = "yes"\n'
        '  /\\ holds\' = [holds EXCEPT ![c] = "no"]\n'
        '  /\\ rels\' = [rels EXCEPT ![c] = "sent"]\n'
        "  /\\ UNCHANGED <<reqs, grants, server>>\n"
        "\nACTION RecvRelease(c)\n"
        '  /\\ rels[c] = "sent"\n'
        '  /\\ rels\' = [rels EXCEPT ![c] = "none"]\n'
        '  /\\ server\' = "free"\n'
        "  /\\ UNCHANGED <<reqs, grants, holds>>\n"
        "\nNEXT \\E c \\in Clients :\n"
        "  \\/ Request(c)\n"
        "  \\/ Grant(c)\n"
        "  \\/ TakeLock(c)\n"
        "  \\/ ReleaseLock(c)\n"
        "  \\/ RecvRelease(c)\n\n"
        "PROPERTY Mutex\n"
        "  \\A x \\in Clients : \\A y \\in Clients : "
        '(x = y) \\/ ~(holds[x] = "yes" /\\ holds[y] = "yes")\n'
    )


def consensus(n=2):
    """Toy consensus: a proposal is fixed once, nodes copy it."""
    nodes = "{%s}" % ", ".join('"n%d"' % i for i in range(1, n + 1))
    return (
        "MODULE Consensus\n\n"
        "CONSTANTS Nodes\n\n"
        "VARIABLES proposal, decision\n\n"
        "CONFIG\n  Nodes = %s\n" % nodes +
        "\nINIT\n"
        '  /\\ proposal = "none"\n'
        '  /\\ decision = [nd \\in Nodes |-> "none"]\n'
        "\nACTION Propose1(nd)\n"
        '  /\\ proposal = "none"\n'
        '  /\\ proposal\' = "v1"\n'
        "  /\\ UNCHANGED <<decision>>\n"
        "\nACTION Propose2(nd)\n"
        '  /\\ proposal = "none"\n'
        '  /\\ proposal\' = "v2"\n'
        "  /\\ UNCHANGED <<decision>>\n"
        "\nACTION Decide1(nd)\n"
        '  /\\ proposal = "v1"\n'
        '  /\\ decision\' = [decision EXCEPT ![nd] = "v1"]\n'
        "  /\\ UNCHANGED <<proposal>>\n"
        "\nACTION Decide2(nd)\n"
        '  /\\ proposal = "v2"\n'
        '  /\\ decision\' = [decision EXCEPT ![nd] = "v2"]\n'
        "  /\\ UNCHANGED <<proposal>>\n"
        "\nNEXT \\E nd \\in Nodes :\n"
        "  \\/ Propose1(nd)\n"
        "  \\/ Propose2(nd)\n"
        "  \\/ Decide1(nd)\n"
        "  \\/ Decide2(nd)\n\n"
        "PROPERTY Agreement\n"
        "  \\A a \\in Nodes : \\A b \\in Nodes : "
        '(decision[a] = "none") \\/ (decision[b] = "none") '
        "\\/ decision[a] = decision[b]\n"
    )


ALL = {
    "twophase": twophase,
    "twophase_prepare": twophase_prepare,
    "rm": rm_component,
    "env": env_component,
    "tm1": tm1_component,
    "tm2": tm2_component,
    "tpcounter": tpcounter,
    "lockserv": lockserv,
    "consensus": consensus,
}

