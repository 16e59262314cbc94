"""Intersection arithmetic on a plane blown up at finitely many points.

A SurfaceConfig records the boundary shape combinatorially: component
degrees, which components are paired with an auxiliary curve that pins the
blown-up points, and the incidence table of those points.  Every point lies
on exactly one component, and a paired component of degree d carries
exactly d^2 of them (transversal intersections plus padding), which forces
its strict transform to have self-intersection zero; unpaired components
carry none.

Every class the boundary argument builds (D_p, n D_p - m D_i, K, d - K and
the twisted boundary) gives all points on a component the same coefficient,
so a class is stored as h*H - sum(c_i E_i), where E_i sums the exceptional
curves over the n_i points on component i.  The Gram form diag(1, -1, ...)
on H and the exceptional curves gives E_i . E_j = -n_i [i == j].
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Coeff = Union[int, Fraction]

CONFIG_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """The combinatorial surface description violates an invariant."""


class InternalError(RuntimeError):
    """Two independent computations inside orbicert disagree: a defect in
    the program, never in its input."""


@contextmanager
def malformed(what: str):
    """Report a missing key or a mistyped field of a document as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing key {exc}") from exc
    except (TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed {what}: {exc}") from exc


def _typed(value, kind: type, what: str, null: bool = False):
    # bool() would read "false" as true, and int() would read 1.7 as 1
    if type(value) is not kind and not (null and value is None):
        also = " or null" if null else ""
        raise ConfigError(f"{what} must be {kind.__name__}{also}, not {value!r}")
    return value


def load_json(text: str, what: str) -> dict:
    """Parse a document that must be a JSON object."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} JSON must be an object")
    return doc


@dataclass(frozen=True)
class DivisorClass:
    """h*H - sum(c[i] * E_i), n[i] points under E_i, c[i] = 0 where n[i] = 0."""

    h: Coeff
    c: tuple[Coeff, ...]
    n: tuple[int, ...]

    @staticmethod
    def make(
        cfg: SurfaceConfig, h: Coeff, c: Sequence[Coeff] | None = None
    ) -> "DivisorClass":
        n = cfg.point_counts
        c = (0,) * len(n) if c is None else tuple(c)
        if len(c) != len(n):
            raise ConfigError(f"{len(c)} coefficients for {len(n)} components")
        return DivisorClass(h, tuple(x if k else 0 for x, k in zip(c, n)), n)

    def is_integral(self) -> bool:
        return all(
            isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
            for v in (self.h, *self.c)
        )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.n != other.n:
            raise ConfigError("classes on different surfaces")
        return DivisorClass(
            self.h + other.h, tuple(x + y for x, y in zip(self.c, other.c)), self.n
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __mul__(self, scalar: Coeff) -> "DivisorClass":
        return DivisorClass(self.h * scalar, tuple(x * scalar for x in self.c), self.n)

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return (-1) * self

    def __str__(self) -> str:
        parts = [f"{self.h}H"]
        for i, x in enumerate(self.c):
            if x:
                parts.append(f"- {x}E{i + 1}" if x > 0 else f"+ {-x}E{i + 1}")
        return " ".join(parts)


def intersect(a: DivisorClass, b: DivisorClass) -> Coeff:
    """Intersection pairing: a.h*b.h - sum of n[i]*a.c[i]*b.c[i]."""
    if a.n != b.n:
        raise ConfigError("classes on different surfaces")
    return a.h * b.h - sum(k * x * y for k, x, y in zip(a.n, a.c, b.c) if k)


@dataclass(frozen=True)
class Component:
    """One boundary curve: plane degree, optional pairing curve degree."""

    degree: int
    paired: bool = False
    pairing_degree: int | None = None
    role: str = "boundary"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigError(f"component degree {self.degree} must be positive")
        if self.paired:
            pd = self.degree if self.pairing_degree is None else self.pairing_degree
            if not 1 <= pd <= self.degree:
                raise ConfigError(
                    f"pairing degree {pd} must lie in [1, {self.degree}]"
                )
            object.__setattr__(self, "pairing_degree", pd)
        elif self.pairing_degree is not None:
            raise ConfigError("unpaired component cannot carry a pairing degree")


@dataclass(frozen=True)
class BlownPoint:
    ident: str
    on: frozenset[int]

    @staticmethod
    def make(ident: str, on: Iterable[int]) -> "BlownPoint":
        return BlownPoint(
            _typed(ident, str, "point id"),
            frozenset(_typed(i, int, f"point {ident!r} component") for i in on),
        )


def _generated_ids(comps: Iterable[Component]) -> Iterator[tuple[str, int]]:
    """(P<i+1>.<k+1>, i) for the degree^2 points of every paired component."""
    for i, comp in enumerate(comps):
        if comp.paired:
            for k in range(comp.degree**2):
                yield f"P{i + 1}.{k + 1}", i


def _pads(comps: Iterable[Component]) -> bool:
    """Whether a paired component carries padding points (b < d)."""
    return any(c.paired and c.pairing_degree < c.degree for c in comps)


@dataclass
class SurfaceConfig:
    """Combinatorial description of the blown-up plane and its boundary.

    points=None stands for the generated list P<i+1>.<k+1>, degree^2 points
    per paired component.  Such a config stores no point objects: cfg.points
    builds the list each time it is read, and everything else reads only
    point_counts.
    """

    components: tuple[Component, ...]
    points: tuple[BlownPoint, ...] | None
    no_three_meet: bool = True
    allow_single_component: bool = False
    padded: bool = False
    name: str = ""
    default_weights: tuple[str, ...] | None = None
    default_multiplicities: tuple[str, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.points is None:
            # reads of cfg.points now fall through to __getattr__
            del self.points
        self.validate()

    def __getattr__(self, name: str) -> tuple[BlownPoint, ...]:
        if name != "points":
            raise AttributeError(
                f"'SurfaceConfig' object has no attribute {name!r}", name=name, obj=self
            )
        return tuple(
            BlownPoint(ident, frozenset((i,)))
            for ident, i in _generated_ids(self.components)
        )

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check the components, and the point list if one was supplied;
        a generated list is valid by construction."""
        if not self.components:
            raise ConfigError("at least one component is required")
        if "points" not in vars(self):
            return
        counts = {i: 0 for i, c in enumerate(self.components) if c.paired}
        seen: set[str] = set()
        for pt in self.points:
            if pt.ident in seen:
                raise ConfigError(f"duplicate point id {pt.ident!r}")
            seen.add(pt.ident)
            if len(pt.on) != 1:
                raise ConfigError(
                    f"point {pt.ident!r} must lie on exactly one component"
                )
            (idx,) = pt.on
            if not 0 <= idx < len(self.components):
                raise ConfigError(f"point {pt.ident!r} on unknown component {idx}")
            if not self.components[idx].paired:
                raise ConfigError(
                    f"point {pt.ident!r} lies on unpaired component {idx}"
                )
            counts[idx] += 1
        for idx, got in counts.items():
            want = self.components[idx].degree ** 2
            if got != want:
                raise ConfigError(
                    f"component {idx} needs {want} points after padding, has {got}"
                )

    # -- construction ---------------------------------------------------------

    @staticmethod
    def build(
        paired_degrees: Iterable[int],
        pairing_degrees: Iterable[int] | None = None,
        hyperplane: bool = True,
        **kwargs,
    ) -> "SurfaceConfig":
        """Assemble a config whose points are generated, one per incidence.

        Each paired component of degree d carries d*b transversal points
        plus d*(d-b) padding points, where b is its pairing degree.  The
        config stores only the components: the points P<i+1>.<k+1> are
        built when cfg.points is read, and to_json_dict writes them from
        point_counts.
        """
        degrees = list(paired_degrees)
        pairings = list(pairing_degrees) if pairing_degrees else degrees[:]
        if len(pairings) != len(degrees):
            raise ConfigError("one pairing degree per paired component")
        comps = [
            Component(degree=d, paired=True, pairing_degree=b)
            for d, b in zip(degrees, pairings)
        ]
        if hyperplane:
            comps.append(Component(degree=1, paired=False, role="hyperplane"))
        return SurfaceConfig(
            components=tuple(comps), points=None, padded=_pads(comps), **kwargs
        )

    @property
    def r(self) -> int:
        return len(self.components)

    @property
    def point_counts(self) -> tuple[int, ...]:
        """Blown points per component: degree^2 if paired, else none."""
        return tuple(c.degree**2 if c.paired else 0 for c in self.components)

    def points_on(self, index: int) -> list[BlownPoint]:
        return [p for p in self.points if index in p.on]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "version": CONFIG_FORMAT_VERSION,
            "components": [
                {
                    "degree": c.degree,
                    "paired": c.paired,
                    **({"pairing_degree": c.pairing_degree} if c.paired else {}),
                    "role": c.role,
                }
                for c in self.components
            ],
            "points": (
                [{"id": p.ident, "on": sorted(p.on)} for p in self.points]
                if "points" in vars(self)
                else [
                    {"id": ident, "on": [i]}
                    for ident, i in _generated_ids(self.components)
                ]
            ),
            "no_three_meet": self.no_three_meet,
            "allow_single_component": self.allow_single_component,
            "padded": self.padded,
        }
        if self.name:
            doc["name"] = self.name
        if self.default_weights is not None:
            doc["weights"] = list(self.default_weights)
        if self.default_multiplicities is not None:
            doc["multiplicities"] = list(self.default_multiplicities)
        if self.metadata:
            doc["metadata"] = self.metadata
        return doc

    @staticmethod
    @malformed("config")
    def from_json_dict(doc: Mapping) -> "SurfaceConfig":
        version = _typed(doc.get("version", CONFIG_FORMAT_VERSION), int, "version")
        if version != CONFIG_FORMAT_VERSION:
            raise ConfigError(f"unsupported config version {version}")
        comps = []
        for raw in doc.get("components", []):
            paired = _typed(raw.get("paired", False), bool, "paired")
            comps.append(
                Component(
                    degree=_typed(raw["degree"], int, "degree"),
                    paired=paired,
                    pairing_degree=(
                        _typed(raw["pairing_degree"], int, "pairing_degree")
                        if paired and "pairing_degree" in raw
                        else None
                    ),
                    role=_typed(raw.get("role", "boundary"), str, "role"),
                )
            )
        if _typed(doc.get("hyperplane", False), bool, "hyperplane"):
            comps.append(Component(degree=1, paired=False, role="hyperplane"))
        padded = _typed(doc.get("padded", False), bool, "padded")
        points = None
        if "points" in doc:
            points = tuple(
                BlownPoint.make(raw["id"], raw["on"]) for raw in doc["points"]
            )
        else:
            padded = padded or _pads(comps)
        weights = doc.get("weights")
        mults = doc.get("multiplicities")
        return SurfaceConfig(
            components=tuple(comps),
            points=points,
            no_three_meet=_typed(doc.get("no_three_meet", True), bool, "no_three_meet"),
            allow_single_component=_typed(
                doc.get("allow_single_component", False), bool, "allow_single_component"
            ),
            padded=padded,
            name=_typed(doc.get("name", ""), str, "name"),
            default_weights=(
                tuple(str(w) for w in weights) if weights is not None else None
            ),
            default_multiplicities=(
                tuple(str(m) for m in mults) if mults is not None else None
            ),
            metadata=_typed(doc.get("metadata", {}), dict, "metadata"),
        )

    @staticmethod
    def from_json(text: str) -> "SurfaceConfig":
        return SurfaceConfig.from_json_dict(load_json(text, "config"))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def canonical_class(cfg: SurfaceConfig) -> DivisorClass:
    """-3H + sum of the E_i, i.e. coefficient -1 on every component with points."""
    return DivisorClass.make(cfg, -3, [-1] * cfg.r)


def chi(cfg: SurfaceConfig, d: DivisorClass) -> Fraction:
    """Euler characteristic 1 + d.(d - K)/2 on the rational surface.

    Integral classes must produce an integer; a parity failure here means
    the lattice arithmetic is corrupted, so it raises InternalError.
    """
    k = canonical_class(cfg)
    pairing = intersect(d, d - k)
    value = 1 + Fraction(pairing) / 2
    if value.denominator != 1 and d.is_integral():
        raise InternalError(f"chi({d}) = {value} not integral")
    return value


def strict_transform(cfg: SurfaceConfig, component_index: int) -> DivisorClass:
    """Class of a component's strict transform: d*H - E_i."""
    if not 0 <= component_index < len(cfg.components):
        raise ConfigError(f"no component {component_index}")
    c = [0] * cfg.r
    c[component_index] = 1
    return DivisorClass.make(cfg, cfg.components[component_index].degree, c)
