"""The pluggable policy-family registry.

Every steering-policy family the repo knows — the paper's menu in
:mod:`repro.core.steering` as well as new families like the
BDD-synthesised tables in :mod:`repro.core.bdd` — registers exactly one
:class:`PolicyFamily` descriptor here.  Everything that used to be a
hand-maintained dispatch site consults the registry instead:

* :func:`repro.core.steering.make_policy` resolves kind strings
  (``lut-4``, ``bdd-8``, ``original``) through :meth:`PolicyRegistry.build`;
* the batch engine resolves fused kernels through
  :meth:`PolicyRegistry.kernel_factory` instead of ``type(policy)``
  chains (a family with no kernel cleanly falls through to the object
  path);
* figure-4 grids, CLI policy choices/defaults, campaign-spec
  validation, and report labels all derive from the family metadata.

Adding a family therefore touches one module: define the policy class,
build a :class:`PolicyFamily` (name pattern + parameter parser +
constructor + requirements + grid metadata), call
:meth:`PolicyRegistry.register`, and optionally attach fused kernels
with :meth:`PolicyRegistry.register_kernel`.  No dispatch site changes.

The registry deliberately imports nothing from the rest of the package
so any module (core, batch, analysis, runner, CLI) can depend on it
without cycles; family modules import the registry, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "PolicyFamily", "PolicyNameError", "PolicyRegistry", "PolicyRequest",
    "REGISTRY", "exact_name", "int_suffix",
]


class PolicyNameError(ValueError):
    """An unknown or malformed policy kind string.

    A :class:`ValueError` subclass so pre-registry callers that caught
    ``ValueError`` from ``make_policy`` keep working.
    """


class _ParseError(Exception):
    """Raised by a parser that owns the kind's shape but rejects it
    (e.g. ``lut-abc``): carries the reason into the final error."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def exact_name(name: str) -> Callable[[str], Optional[Mapping[str, Any]]]:
    """Parser for a parameterless kind: matches exactly ``name``."""

    def parse(kind: str) -> Optional[Mapping[str, Any]]:
        return {} if kind == name else None

    return parse


def int_suffix(prefix: str, param: str = "bits"
               ) -> Callable[[str], Optional[Mapping[str, Any]]]:
    """Parser for ``<prefix><int>`` kinds (``lut-4`` → ``{"bits": 4}``).

    A kind with the right prefix but a non-integer suffix is *owned but
    malformed* — the registry reports it with the family's syntax
    instead of letting a bare ``int()`` traceback escape.
    """

    def parse(kind: str) -> Optional[Mapping[str, Any]]:
        if not kind.startswith(prefix):
            return None
        suffix = kind[len(prefix):]
        try:
            return {param: int(suffix)}
        except ValueError:
            raise _ParseError(
                f"expected an integer after '{prefix}', got '{suffix}'")

    return parse


@dataclass(frozen=True)
class PolicyRequest:
    """Everything a family constructor may need to build one policy."""

    kind: str                       # the full kind string, e.g. "lut-4"
    params: Mapping[str, Any]       # what the family's parser extracted
    fu_class: Any                   # repro.isa.instructions.FUClass
    num_modules: int
    stats: Optional[Any]            # repro.core.statistics.CaseStatistics
    scheme: Any                     # repro.core.info_bits.InfoBitScheme
    allow_swap: bool


@dataclass(frozen=True)
class PolicyFamily:
    """One registered policy family.

    ``parse`` maps a kind string to a parameter mapping (``None`` when
    the kind is not this family's); ``build`` constructs a policy from
    a :class:`PolicyRequest`.  ``policy_types`` lists the *exact*
    runtime classes the family constructs — kernel resolution matches
    ``type(policy)`` against them, so subclasses (e.g. the hybrid
    criticality-aware LUT) deliberately fall through to the object
    path unless they register their own family.
    """

    name: str                       # registry key, e.g. "lut"
    syntax: str                     # display pattern, e.g. "lut-<bits>"
    description: str
    parse: Callable[[str], Optional[Mapping[str, Any]]]
    build: Callable[[PolicyRequest], Any]
    policy_types: Tuple[type, ...] = ()
    #: the constructor requires CaseStatistics (LUT-style synthesis)
    needs_stats: bool = False
    #: the policy itself honours ``allow_swap`` (router operand swaps
    #: computed by the matcher); families without it get a hardware
    #: pre-swapper in swap regimes instead
    supports_swap: bool = False
    #: kinds this family contributes to the default figure-4 grid
    grid_kinds: Tuple[str, ...] = ()
    #: grid rows are ordered by (grid_order, declaration order)
    grid_order: float = 50.0
    #: (rank, kind) pairs contributed to the default CLI policy list
    cli_defaults: Tuple[Tuple[int, str], ...] = ()
    #: optional report-label override: kind -> column label
    label: Optional[Callable[[str], str]] = None


class PolicyRegistry:
    """Registry instance: families, per-backend kernels, metadata."""

    def __init__(self) -> None:
        self._families: Dict[str, PolicyFamily] = {}
        self._by_type: Dict[type, PolicyFamily] = {}
        self._kernels: Dict[Tuple[str, str], Callable] = {}

    # ----- registration -------------------------------------------------

    def register(self, family: PolicyFamily) -> PolicyFamily:
        """Add one family; duplicate names or policy types are bugs."""
        if family.name in self._families:
            raise ValueError(f"policy family '{family.name}' already"
                             " registered")
        for cls in family.policy_types:
            owner = self._by_type.get(cls)
            if owner is not None:
                raise ValueError(
                    f"policy type {cls.__name__} already registered to"
                    f" family '{owner.name}'")
        self._families[family.name] = family
        for cls in family.policy_types:
            self._by_type[cls] = family
        return family

    def register_kernel(self, family_name: str, backend: str,
                        factory: Callable) -> None:
        """Attach a fused batch kernel factory to a family.

        ``factory(evaluator, columns)`` returns a zero-argument runner,
        or ``None`` to decline this evaluator (scheme mismatch, module
        count out of the kernel's range, ...) — declining falls through
        exactly like an unregistered backend.
        """
        if family_name not in self._families:
            raise ValueError(f"unknown policy family '{family_name}'")
        self._kernels[(family_name, backend)] = factory

    # ----- kind resolution ----------------------------------------------

    def known_kinds(self) -> str:
        """Human-readable list of every registered kind syntax."""
        return ", ".join(f.syntax for f in self._families.values())

    def resolve(self, kind: str) -> Tuple[PolicyFamily, Mapping[str, Any]]:
        """Match a kind string to (family, parameters) or raise
        :class:`PolicyNameError` naming every registered kind."""
        for family in self._families.values():
            try:
                params = family.parse(kind)
            except _ParseError as exc:
                raise PolicyNameError(
                    f"malformed policy kind '{kind}': {exc.reason}"
                    f" (syntax: {family.syntax});"
                    f" registered kinds: {self.known_kinds()}") from None
            if params is not None:
                return family, params
        raise PolicyNameError(
            f"unknown policy kind '{kind}';"
            f" registered kinds: {self.known_kinds()}")

    def build(self, kind: str, fu_class: Any, num_modules: int,
              stats: Optional[Any] = None, scheme: Optional[Any] = None,
              allow_swap: bool = False) -> Any:
        """Construct a policy — the engine behind ``make_policy``."""
        family, params = self.resolve(kind)
        if family.needs_stats and stats is None:
            raise PolicyNameError(
                f"{family.syntax} policies need case statistics")
        if scheme is None:
            from .info_bits import scheme_for
            scheme = scheme_for(fu_class)
        return family.build(PolicyRequest(
            kind=kind, params=params, fu_class=fu_class,
            num_modules=num_modules, stats=stats, scheme=scheme,
            allow_swap=allow_swap))

    # ----- kernel resolution --------------------------------------------

    def family_of(self, policy: Any) -> Optional[PolicyFamily]:
        """The family that registered ``type(policy)`` exactly, if any."""
        return self._by_type.get(type(policy))

    def kernel_factory(self, policy: Any, backend: str
                       ) -> Optional[Callable]:
        """The fused-kernel factory for this policy on one backend, or
        ``None`` → fall through to the object path."""
        family = self._by_type.get(type(policy))
        if family is None:
            return None
        return self._kernels.get((family.name, backend))

    def kernel_backends(self, family_name: str) -> Tuple[str, ...]:
        """Backends a family has fused kernels registered for."""
        return tuple(sorted(backend for (name, backend) in self._kernels
                            if name == family_name))

    # ----- metadata for grids, CLI, and reports -------------------------

    def families(self) -> List[PolicyFamily]:
        """All families in registration order."""
        return list(self._families.values())

    def grid_kinds(self) -> Tuple[str, ...]:
        """The default figure-4 grid, ordered by family grid_order."""
        ordered = sorted(self._families.values(),
                         key=lambda f: f.grid_order)
        return tuple(kind for family in ordered
                     for kind in family.grid_kinds)

    def grid_sort_key(self, kind: str):
        """Sort key placing known grid kinds first, in grid order."""
        grid = self.grid_kinds()
        if kind in grid:
            return (0, grid.index(kind), "")
        return (1, 0, kind)

    def default_policies(self) -> Tuple[str, ...]:
        """The default CLI policy list, from family cli_defaults."""
        pairs = sorted((rank, kind) for family in self._families.values()
                       for rank, kind in family.cli_defaults)
        return tuple(kind for _rank, kind in pairs)

    def label_for(self, kind: str) -> str:
        """Report label for a kind (family override or the kind itself)."""
        for family in self._families.values():
            try:
                params = family.parse(kind)
            except _ParseError:
                return kind
            if params is not None:
                return family.label(kind) if family.label else kind
        return kind


#: the process-wide registry every dispatch site consults
REGISTRY = PolicyRegistry()
