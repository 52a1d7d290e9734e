"""Exception hierarchy.

Every domain failure raises a subclass of ``HypisoError`` so callers (and the
CLI) can map failures to exit codes without string matching.  ``Borderline``
(with its case ``ClusterAmbiguity``) and ``BudgetExhausted`` form their own
branch, ``RefusedToDecide``: they signal an honest refusal to decide, not
invalid input.
"""


class HypisoError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(HypisoError):
    """Vector or matrix size does not match the ambient space."""


class ZeroVector(HypisoError):
    """A nonzero vector was required."""


class DependentBasis(HypisoError):
    """Supplied basis vectors are linearly dependent."""


class NotAnIsometry(HypisoError):
    """Form-preservation residual exceeds the tolerance."""


class AmbiguousComponent(HypisoError):
    """Sheet entry too close to zero; input is corrupt, not a group element."""


class NotOrthogonal(HypisoError):
    """Matrix is not orthogonal within tolerance."""


class NotSpecialOrthogonal(HypisoError):
    """Matrix is orthogonal but has determinant -1."""


class NotInIdentityComponent(HypisoError):
    """Lorentz matrix lies outside the identity component."""


class NotRegular(HypisoError):
    """Operation defined only for regular elements (distinct rotation
    angles, each of pair multiplicity one)."""


class NotHyperbolic(HypisoError):
    """Stretch factor requested for a non-hyperbolic isometry."""


class NonpositiveScale(HypisoError):
    """Boundary similarity scale must be positive."""


class AngleMultiplicity(HypisoError):
    """Fiber enumeration needs pairwise distinct rotation angles."""


class InvalidArg(HypisoError):
    """Argument outside the documented domain."""


class OutOfRange(InvalidArg):
    """Space parameters outside their admissible range."""


class NotConjugate(HypisoError):
    """Conjugator requested for a provably non-conjugate pair."""


class RefusedToDecide(HypisoError):
    """Base for honest refusals: a tolerance gray zone or a search budget."""


class Borderline(RefusedToDecide):
    """Input sits inside a tolerance gray zone; no decision emitted."""


class ClusterAmbiguity(Borderline):
    """Two eigenvalue clusters sit between delta and 2*delta apart; the
    caller must refine delta."""


class BudgetExhausted(RefusedToDecide):
    """Randomized search used up its sample budget before meeting a
    requested target."""
