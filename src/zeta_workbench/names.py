"""Names the library and the command-line parser share, declared once.

The module imports nothing, so building the parser, whose choices these
are, loads no layer of the workbench.
"""

ZETA_KINDS = ("selberg", "ruelle", "symmetrized", "super", "super_ruelle")

# in the order `report` runs them; verify.SUITES maps each to its suite_<name>
SUITE_NAMES = (
    "kernels",
    "partial-fractions",
    "residues",
    "logderiv",
    "factorization",
    "parity",
    "trace-scaling",
)
