"""Exact calculator for gradings of Heegaard-diagram generators.

The package works with combinatorial Heegaard diagrams given as oriented
curve listings with crossing signs (a rotation system plus region
directives for non-disk complement regions).  On top of that encoding it
enumerates generators, partitions them into Spin^c classes, builds
connecting domains on the factorization of the intersection matrix A and
certifies every domain against the corner system, computes Euler and
point measures, Maslov indices, relative gradings with their modulus,
layer decompositions with corner audits, and the quarter-integer shift
arithmetic of the absolute grading.  All arithmetic is exact: integers
are arbitrary precision, index quantities are computed as integers in
quarter units, and the public functions that return a quarter-integer
(Euler and point measures, the audit's layer indices, the grading shift)
return a ``fractions.Fraction``.  ``fractions`` is imported when the first
one is made, so of the commands only ``domain``, ``audit``, ``shift`` and
``selftest`` load it; and a command-line run builds two argument
parsers, the top-level one and its own command's.

Every record, the audit's reports included, is a ``typing.NamedTuple``:
immutable, updated with ``_replace``, iterated, ordered and compared as
tuples (a ``Domain`` is equal only to itself).  Every module of hfcalc,
``layers`` included, is imported with the package, and a diagram's lookup
tables are built when it is assembled.

Modules
-------
``diagram``   parsing, face tracing, assembly, canonical serialization
``zlattice``  exact integer linear algebra (Smith form, lattice solving)
``grading``   generators, domains, Spin^c classes, gradings, homology
``layers``    the layer-by-layer index audit and its corner counts
``atlas``     builders for benchmark diagrams and stabilization
``cli``       the ``hfcalc`` command-line front end
"""

from .diagram import (CurveSystemInput, DiagramError, HeegaardDiagram, ParseError,
                      RegionDirective, ValidationError, assemble_regions, load_diagram,
                      parse_diagram, rename, reverse_curve, serialize, trace_faces)
from .zlattice import (AffineSolutionSet, IntMatrix, gcd_over_lattice,
                       smith_invariants, smith_normal_form, solve_integer_system)
from .grading import (ConsistencyError, Domain, Generator, GradingLabel, Homology,
                      NoConnectingClassError, NoPositiveRepresentative, SpincClass,
                      basepoint_multiplicity, divisibility, enumerate_generators,
                      euler_measure, generator_measure, gr0_of_theta, grading_table,
                      homogeneous_lattice, homology_of_Y, label_of, maslov_index,
                      point_measure, positive_representative, relative_grading,
                      solve_domain, spinc_class_of, spinc_partition, theta_and_shift)
from .layers import AuditError, AuditReport, audit_index
from .atlas import (MarkedDiagram, build_annulus_open_book, build_s1s2,
                    build_torus_diagram, stabilize)

__version__ = "0.1.0"
