"""Analysis utilities: validation, scalability and reporting.

* :mod:`repro.analysis.validation` — analytical-model vs simulation
  comparison.
* :mod:`repro.analysis.scalability` — solve-time and solution behaviour as
  the network grows (the paper's scalability claim).
* :mod:`repro.analysis.reporting` — plain-text tables and CSV writers used
  by the examples, the CLI and the benches.
"""

from repro.analysis.validation import (
    ValidationReport,
    validate_protocol,
    validate_protocols,
)
from repro.analysis.scalability import ScalabilityRecord, scalability_study
from repro.analysis.reporting import format_table, solutions_to_rows, write_csv

__all__ = [
    "ValidationReport",
    "validate_protocol",
    "validate_protocols",
    "ScalabilityRecord",
    "scalability_study",
    "format_table",
    "solutions_to_rows",
    "write_csv",
]
