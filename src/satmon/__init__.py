"""satmon: exact arithmetic for saturated commutative monoids.

Subpackages mirror the mathematical layers: ``zlat`` (integer/rational
linear algebra), ``monoid`` (affine monoids, faces, saturation), ``homs``
(morphism taxonomy, pushouts), ``valuative`` (ordered lattices and the
valuative-base pipelines), ``pi1`` (Kummer etale covers), ``cli``
(document front end).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
