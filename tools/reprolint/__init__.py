"""reprolint — project-specific static analysis for the batched engine stack.

Five PRs of fused engines made the hot path fast; every invariant that
keeps it fast and bit-for-bit correct holds purely by convention.  This
package turns those conventions into machine-checked contracts:

========  ==========================================================
R001      no scalar Python loops over trials/nodes inside flooding
          rounds in hot-path modules
R002      dtype-ladder policy for engine color state (int8 -> int32,
          int64 only under the widening guard)
R003      no array allocation lexically inside per-round loops
R004      ``Adversary`` subclasses must port the batch protocol
R005      Generator-only RNG discipline (no global ``np.random.*``)
R006      public engine entry points validate before array compute
========  ==========================================================

Findings on a line are suppressed with a ``# reprolint: disable=RXXX``
comment on the same line or on a comment-only line directly above, and
grandfathered findings live in a JSON baseline (see ``baseline.py``).

Usage::

    python -m reprolint src/ --format github

The analyzer is pure stdlib (``ast``) so it runs anywhere the test suite
runs; see ``CONTRIBUTING.md`` for the rationale behind each rule.
"""

from .engine import Finding, ModuleContext, lint_path, lint_paths, lint_source
from .rules import ALL_RULES, Rule

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleContext",
    "Rule",
    "lint_path",
    "lint_paths",
    "lint_source",
    "__version__",
]
