"""Built-in repro-lint rules.

Importing this package registers every rule module with the framework
registry (the same self-registration idiom the simulator backends use).
Each module covers one invariant family:

========================= ============================================
:mod:`.determinism`        DET0xx -- no wall clocks, unseeded RNGs or
                           unordered-set iteration in the simulators
:mod:`.hotpath`            HOT0xx -- ``__slots__`` contracts and
                           branch-free hot loops
:mod:`.handlers`           HTB0xx -- event-kind constants vs handler
                           tables (cross-module)
:mod:`.faults`             FLT0xx -- ``FaultKind`` members vs the
                           injector and invariant-checker registries
:mod:`.parity`             PAR0xx -- flat vs reference datapath surface
                           parity and ``-1`` sentinel hygiene
:mod:`.asyncsafety`        ASY0xx -- no blocking calls / lost tasks in
                           the asyncio service
:mod:`.registry`           REG0xx -- backend registrations declare their
                           accepted parameters
:mod:`.snapshot`           SNP0xx -- hot-path ``__slots__`` state is
                           covered by the checkpoint/restore codec
========================= ============================================
"""

from __future__ import annotations

import repro.lint.rules.asyncsafety  # noqa: F401
import repro.lint.rules.determinism  # noqa: F401
import repro.lint.rules.faults  # noqa: F401
import repro.lint.rules.handlers  # noqa: F401
import repro.lint.rules.hotpath  # noqa: F401
import repro.lint.rules.parity  # noqa: F401
import repro.lint.rules.registry  # noqa: F401
import repro.lint.rules.snapshot  # noqa: F401
