"""Exception hierarchy for the repro package.

Two distinct families live here:

* ``ReproError`` subclasses signal *misuse of the library* (bad arguments,
  unmapped configuration, malformed assembly).  They are ordinary bugs in the
  caller's code and should never be caught by simulation logic.

* ``SimulationEvent`` subclasses signal *simulated architectural events*
  (hardware exceptions, assertion violations, guest failures).  They are part
  of the simulation's control flow: the hypervisor and the Xentry framework
  catch them and turn them into detection outcomes, exactly like real
  exception vectors fan out to handlers on hardware.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-usage errors raised by :mod:`repro`."""


class AssemblyError(ReproError):
    """Malformed assembly source or an unresolvable label."""


class MemoryConfigError(ReproError):
    """Invalid memory-map configuration (overlapping or misaligned regions)."""


class MachineConfigError(ReproError):
    """Invalid machine configuration (core counts, counter selection, ...)."""


class CampaignConfigError(ReproError):
    """Invalid fault-injection campaign parameters."""


class ScenarioError(CampaignConfigError):
    """Invalid scenario definition, with provenance.

    Carries where the problem came from (``source``: the YAML file path or
    a caller-supplied tag) and which key it concerns (``keypath``, dotted:
    ``faults.memory.subsystem``), so deep validation failures surface with
    enough context to fix the scenario file directly.
    """

    def __init__(self, message: str, *, source: str = "", keypath: str = "") -> None:
        self.source = source
        self.keypath = keypath
        prefix = ": ".join(part for part in (source, keypath) if part)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DatasetError(ReproError):
    """Malformed machine-learning dataset (shape/label mismatches), or a
    saved file — records, model, rules, journal — that cannot be read back.

    Every loader of a saved file raises this type (journals through the
    :class:`JournalError` subclass), so a caller handling bad input catches
    one exception.
    """


class NotFittedError(ReproError):
    """A classifier was used before :meth:`fit` was called."""


class EngineError(ReproError):
    """Invalid campaign-engine state (shard mismatch, incomplete merge)."""


class JournalError(EngineError, DatasetError):
    """Malformed or mismatched trial journal (wrong campaign, bad format)."""


class ChaosInjected(EngineError):
    """An engine-level fault injected by a :class:`~repro.engine.chaos.ChaosPolicy`.

    Raised inside workers (simulated crash) or around journal writes so the
    supervisor's recovery paths can be exercised deterministically.  Seeing
    this escape the engine means a recovery path failed to contain it.
    """


class SimulationEvent(Exception):
    """Base class for simulated architectural events.

    These are *not* library errors: they model events that real hardware or a
    real hypervisor would observe (exception vectors, failed assertions).
    """


class SimulationLimitExceeded(SimulationEvent):
    """The per-activation dynamic instruction budget was exhausted.

    On real hardware a runaway hypervisor execution manifests as a hang or a
    watchdog reset; the instruction budget is our watchdog.
    """

    def __init__(self, budget: int, message: str = "") -> None:
        super().__init__(message or f"instruction budget of {budget} exhausted")
        self.budget = budget
