"""Shape-based classification of eddy-current impedance records.

A probe sweep traces a closed figure in the impedance plane; its geometry
(oriented extents, orientation angle, and derived descriptors) separates
defect classes well enough for standard classifiers. This package covers
the whole pipeline: record ingestion, noise trimming, shape features,
three from-scratch classifiers, cross-validated evaluation, synthetic
data generation, and SVG plots, plus the `ect-shape` command.
"""

# pyproject.toml holds the same string; a test pins the two equal
__version__ = "0.1.0"
