"""Analysis utilities: validation and reporting.

* :mod:`repro.analysis.validation` — analytical-model vs simulation
  comparison.
* :mod:`repro.analysis.reporting` — plain-text tables and CSV writers used
  by the examples, the CLI and the benches.
"""

from repro.analysis.validation import ValidationReport, validate_protocol
from repro.analysis.reporting import format_table, write_csv

__all__ = [
    "ValidationReport",
    "validate_protocol",
    "format_table",
    "write_csv",
]
