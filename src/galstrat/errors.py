"""Exception hierarchy for the whole engine.

Every structured failure the engine can signal is a subclass of
GalstratError, so callers (and the command-line front end) can separate
engine verdicts from programming errors.
"""


class GalstratError(Exception):
    """Base class for all engine errors."""


# -- exact algebra ---------------------------------------------------------

class NonPrime(GalstratError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class CapExceeded(GalstratError):
    pass


class MissingVariable(GalstratError):
    pass


class DenominatorNotInvertible(GalstratError):
    pass


class ZeroInput(GalstratError):
    pass


class IncompatibleModulus(GalstratError):
    pass


class NotSquarefree(GalstratError):
    pass


# -- formula engine --------------------------------------------------------

class FormulaSyntaxError(GalstratError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableCollision(GalstratError):
    pass


class BudgetExceeded(GalstratError):
    pass


class InvalidBudget(GalstratError):
    """A budget that is not a finite number of bits, which no search could exceed."""


class VariableMismatch(GalstratError):
    pass


# -- groups and characters -------------------------------------------------

class GroupLawViolation(GalstratError):
    pass


class NotAHomomorphism(GalstratError):
    pass


class NotInjective(GalstratError):
    pass


class NotSurjective(GalstratError):
    pass


class GroupMismatch(GalstratError):
    pass


class CentralInvariantViolation(GalstratError):
    pass


class NotConjugationStable(GalstratError):
    def __init__(self, subgroup):
        super().__init__(f"family is not conjugation-stable: missing conjugate of {sorted(subgroup)}")
        self.subgroup = subgroup


class NotCyclic(GalstratError):
    def __init__(self, subgroup):
        super().__init__(f"member is not cyclic: {sorted(subgroup)}")
        self.subgroup = subgroup


class SingularSystem(GalstratError):
    pass


class ZeroNorm(GalstratError):
    pass


# -- covers and stratifications --------------------------------------------

class PointOffStratum(GalstratError):
    pass


class InadmissiblePrime(GalstratError):
    pass


class UnequalDegrees(GalstratError):
    pass


class PartitionViolation(GalstratError):
    def __init__(self, point, count):
        super().__init__(f"tuple {point} lies in {count} strata (expected exactly 1)")
        self.point = point
        self.count = count


class NotASubgroup(GalstratError):
    pass


class DimMismatch(GalstratError):
    pass


class CommonRefinementRequired(GalstratError):
    pass


class WitnessInvalid(GalstratError):
    pass


class EmbeddingInvalid(GalstratError):
    pass


class SurjectionInvalid(GalstratError):
    pass


class MissingDatum(GalstratError):
    pass


class SemanticMismatch(GalstratError):
    def __init__(self, message, witness):
        super().__init__(f"{message}; witness: {witness}")
        self.witness = witness


# -- motives and chi -------------------------------------------------------

class NegativeExponent(GalstratError):
    pass


class MissingCount(GalstratError):
    pass


class MissingQuotient(GalstratError):
    def __init__(self, subgroup):
        super().__init__(f"no quotient class supplied for subgroup {sorted(subgroup)}")
        self.subgroup = subgroup


class MissingData(GalstratError):
    pass


# -- jets -------------------------------------------------------------------

class NoStabilization(GalstratError):
    def __init__(self, level, depth_cap):
        super().__init__(f"no stabilization for coefficient {level} within depth cap {depth_cap}")
        self.level = level
        self.depth_cap = depth_cap


# -- fixtures / CLI ----------------------------------------------------------

class SchemaError(GalstratError):
    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class IoError(GalstratError):
    pass
