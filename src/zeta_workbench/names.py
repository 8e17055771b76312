"""Names and rules the library and the command-line front end share,
declared once.

The module imports nothing, so building the parser, whose choices these
are, or summarizing a cached spectrum loads no layer of the workbench.
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


def source_is_incomplete(source: str) -> bool:
    """Whether an enumerated spectrum's source flags that longer words may
    still hold classes under its cutoff."""
    return "cutoff_incomplete=true" in source
