"""Exception hierarchy shared across the package.

Every structured failure carries enough context to reproduce the violation
(indices, labels, the condition that broke).  The CLI maps these onto its
exit-code contract; library callers can catch the base classes.
"""


class FanloopsError(Exception):
    """Base class for all package errors."""


class ParseError(FanloopsError):
    """A text input could not be parsed.  Carries line/column."""

    def __init__(self, message, line=None, column=None, path=None):
        self.line = line
        self.column = column
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line is not None:
            where += f"{line}:"
        if column is not None:
            where += f"{column}:"
        super().__init__(f"{where} {message}" if where else message)


class AxiomError(FanloopsError):
    """A loop axiom failed (Latin square / identity)."""


class NotLatinSquare(AxiomError):
    def __init__(self, kind, row, col, value):
        # kind: "value" (entry out of range or not an integer), "row"
        # (duplicate in row), "col" (duplicate in column)
        self.kind = kind
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            f"not a Latin square: {kind} violation at cell ({row},{col}), value {value!r}"
        )


class NoIdentity(AxiomError):
    def __init__(self, candidate=None, counterexample=None):
        self.candidate = candidate
        self.counterexample = counterexample
        if candidate is None:
            msg = "no two-sided identity element"
        elif counterexample is None:
            msg = f"candidate identity {candidate} is not an element index"
        else:
            msg = (
                f"candidate identity {candidate} fails at element {counterexample}"
            )
        super().__init__(msg)


class DuplicateLabel(ParseError):
    def __init__(self, label, line=None, column=None, path=None):
        self.label = label
        super().__init__(f"duplicate element label {label!r}", line, column, path)


class OrderCapExceeded(FanloopsError):
    def __init__(self, order, cap):
        self.order = order
        self.cap = cap
        super().__init__(f"order {order} exceeds cap {cap}")


class SizeCapExceeded(OrderCapExceeded):
    pass


class InvalidOrderCap(OrderCapExceeded):
    """A --cap or FANLOOP_CAP value that is not an integer."""

    def __init__(self, value):
        FanloopsError.__init__(self, f"order cap must be an integer, got {value!r}")
        self.order = None
        self.cap = value


class LoopMismatch(FanloopsError):
    """Two arguments refer to different loops."""


class NotASubloop(FanloopsError):
    def __init__(self, witness, reason):
        self.witness = witness
        self.reason = reason
        super().__init__(f"not a subloop: {reason} (witness {witness})")


class NotASubgroup(NotASubloop):
    pass


class NotNormal(FanloopsError):
    def __init__(self, condition, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"subloop not normal: {condition} fails at {witness}")


class WellDefinednessFailure(FanloopsError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coset product depends on representatives: {witness}")


class NotFanLoop(FanloopsError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(
            "loop is not a fan loop"
            + (f" (associator witness {witness})" if witness else "")
        )


class ReferenceNotInUpsilon(FanloopsError):
    def __init__(self, detail=""):
        super().__init__(
            "reference function is not invariant under the fan subgroup"
            + (f": {detail}" if detail else "")
        )


class ZeroComparisonFunction(FanloopsError):
    def __init__(self):
        super().__init__("comparison function is identically zero")


class ZeroReference(FanloopsError):
    def __init__(self):
        super().__init__("reference function is identically zero")


class ValidationFailed(FanloopsError):
    """Smashing data violates one of its defining conditions."""

    def __init__(self, condition, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"smashing condition {condition} fails at {witness}")


class FanLoopCheckFailed(FanloopsError):
    """A computed result failed an internal theorem-backed check.

    This always signals an implementation bug and is surfaced, never
    swallowed.
    """

    def __init__(self, check, witness):
        self.check = check
        self.witness = witness
        super().__init__(f"internal cross-check {check} failed at {witness}")


class UnknownPredicate(FanloopsError):
    def __init__(self, name, known):
        self.name = name
        super().__init__(f"unknown predicate {name!r}; known: {', '.join(known)}")


class UnknownLaw(FanloopsError, KeyError):
    """A law id that is not in the registry; a KeyError too, as a lookup
    by id."""

    # KeyError's own str() would quote the message
    __str__ = Exception.__str__

    def __init__(self, law_id):
        self.law_id = law_id
        super().__init__(f"unknown law id {law_id!r}")


class NotApplicable(FanloopsError):
    """A law's loop-class precondition (e.g. fan loop only) is not met."""

    def __init__(self, law_id):
        self.law_id = law_id
        super().__init__(f"law {law_id} is not applicable to this loop")
