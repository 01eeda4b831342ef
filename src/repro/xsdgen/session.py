"""Generation options and the status/error session.

These mirror the generator dialog of the paper's Figure 5: the user picks a
root element, toggles annotations, chooses an output folder, and "during
the generation of the schema, status messages are passed back to the user
interface.  In case the UML model is erroneous, the generation aborts and
the user is presented an error message."
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.errors import CctsError, GenerationError


@dataclass
class GenerationOptions:
    """User-facing switches of one generation run.

    ``annotated`` is the Figure-5 checkbox; ``shared_aggregation_as_ref``
    selects the Figure-7 reading (shared aggregation -> global element +
    ``ref``; see the module docstring of :mod:`repro.uml.association` for
    the paper's terminology wobble) -- turning it off inlines every ASBIE,
    which is the ablation arm benchmarked in DESIGN.md;
    ``include_version_in_urn`` switches the URN style; ``validate_first``
    runs the basic rule set before generating.

    Caching (see docs/architecture.md, "Generation cache"): ``use_cache``
    consults the process-shared fingerprint-keyed
    :class:`~repro.xsdgen.cache.GenerationCache`; ``cache_dir``
    additionally persists cached schemas on disk (implies caching).
    Caching is off by default so a bare ``SchemaGenerator`` behaves
    exactly like the paper's add-in.  Libraries are built serially, one
    schema at a time, as the add-in does.

    ``on_error`` selects the failure policy: ``"raise"`` (default)
    aborts the run on the first failing library, mirroring the paper's
    error dialog; ``"collect"`` isolates each failing library as a
    :class:`~repro.xsdgen.generator.LibraryFailure` on
    ``GenerationResult.errors`` and still builds every library not
    reachable from a failing one.

    ``embed_provenance`` renders each schema's provenance records into an
    ``xs:annotation/xs:appinfo`` block when serializing (see
    docs/observability.md, "Provenance").  Off by default: the generated
    schema text is then byte-identical to a provenance-unaware run.  The
    flag does not key the cache -- provenance is stored alongside the
    schema and the embedding decision is made at serialization time.
    """

    annotated: bool = False
    shared_aggregation_as_ref: bool = True
    include_version_in_urn: bool = False
    validate_first: bool = True
    target_directory: Path | None = None
    use_cache: bool = False
    cache_dir: Path | None = None
    on_error: str = "raise"
    embed_provenance: bool = False

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {self.on_error!r}"
            )


@dataclass
class GenerationSession:
    """Collects status messages; aborts with :class:`GenerationError`."""

    messages: list[str] = field(default_factory=list)

    def status(self, message: str) -> None:
        """Record a progress message (the Figure-5 status box)."""
        self.messages.append(message)

    def fail(self, message: str) -> None:
        """Record and raise a fatal generation error."""
        self.messages.append(f"ERROR: {message}")
        raise GenerationError(message)

    @property
    def log(self) -> str:
        """The full status log as one string."""
        return "\n".join(self.messages)


@contextmanager
def wrap_build_errors(stereotype: str, library_name: str) -> Iterator[None]:
    """Give escaping CCTS-level errors their library context.

    The per-library builders call typed-facade accessors (``den()``,
    wrapper lookups, ...) that raise bare :class:`CctsError` subclasses
    naming only the element.  This wrapper re-raises them as
    :class:`GenerationError` naming the library being built -- the unit
    the ``on_error="collect"`` policy isolates -- while keeping the
    original error as the cause chain.  ``GenerationError`` itself (from
    ``session.fail``) passes through untouched.
    """
    try:
        yield
    except GenerationError:
        raise
    except CctsError as error:
        raise GenerationError(
            f"building {stereotype} schema for library {library_name!r} failed: {error}"
        ) from error
