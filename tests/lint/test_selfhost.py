"""Self-hosting: the shipped source tree is lint-clean.

This is the merge gate the CI job enforces; keeping it in tier-1 means
a rule regression (or a new violation) fails fast locally too.
"""

from pathlib import Path

import repro
from repro.lint import run_lint

SRC = Path(repro.__file__).parent


def test_source_tree_is_lint_clean():
    report = run_lint([str(SRC)])
    assert report.findings == [], "\n" + report.render()
    assert report.exit_code == 0
    # The walk really covered the package, not an empty directory.
    assert report.files_checked > 80
    # The justified point-exemptions (CLI and manifest stamps) are
    # suppressions, not silent holes: they are counted and visible, and
    # a new one must be added here on purpose.
    assert report.suppressed == 2
