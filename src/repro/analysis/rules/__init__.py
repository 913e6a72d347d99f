"""Built-in rule families.  Importing this package registers them."""

from __future__ import annotations

import repro.analysis.rules.cache  # noqa: F401
import repro.analysis.rules.chaos_cov  # noqa: F401
import repro.analysis.rules.copies  # noqa: F401
import repro.analysis.rules.excflow  # noqa: F401
import repro.analysis.rules.locks  # noqa: F401
import repro.analysis.rules.race  # noqa: F401
import repro.analysis.rules.layout  # noqa: F401
import repro.analysis.rules.hotpath  # noqa: F401
import repro.analysis.rules.hygiene  # noqa: F401
import repro.analysis.rules.obs  # noqa: F401
import repro.analysis.rules.robustness  # noqa: F401
import repro.analysis.rules.rpc  # noqa: F401
