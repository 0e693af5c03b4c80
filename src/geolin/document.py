"""System description files.

A document is an INI-like UTF-8 text with a `[system]` header naming
the equations and their shape, a `[coefficients]` table, and optional
`[transformation]`, `[metric]`, and `[gauge]` blocks.  Expression
values are double-quoted; `#` starts a comment; omitted coefficients
are zero.  Unknown sections or keys are hard errors so that a typo can
never silently weaken a check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from .criteria import (
    Linear2,
    Quadratic2,
    appendix_residuals,
    check_cubic2,
    check_linear2,
    check_quadratic2,
    lie_gauge_residuals,
    tresse_scalar,
)
from .geometry import (
    Christoffel,
    Geodesic2Coefficients,
    Metric,
    SYM_PAIRS,
    coordinates,
    geodesic2_flat_conditions,
    is_flat,
)
from .kernel import Expr, KernelDomainError, ParseError, parse
from .projection import (
    ScalarCubic,
    ScalarGauge,
    SystemCubic2,
    SystemGauge,
    lift_scalar,
    lift_system,
)
from .transform import GeneralSystem2, Transformation, normal_form


class DocumentError(ValueError):
    """Malformed or inconsistent system description."""


@dataclass(frozen=True)
class Kind:
    """What the package knows about one document kind.

    `build` turns the coefficient table (keyed by `keys`) into the typed
    system and `entry` reads a key back out of it.  `check` is the
    invariant test, taking the system and a zero-test config.  An
    equation kind converts its system to the cubic shape with
    `equations`, lifts that with a `gauge` through `lift`, and scores a
    gauge with `appendix`; a connection kind converts its system to a
    connection with `connection`; a general kind reduces its system to
    the cubic shape with `normal_form`.  `counterpart` names the kind
    that lifting or projecting produces.
    """

    dim: int
    keys: Tuple[str, ...]
    build: Callable
    entry: Callable[[object, str], Expr] = getattr
    check: Optional[Callable] = None
    counterpart: Optional[str] = None
    equations: Optional[Callable] = None
    gauge: Optional[type] = None
    lift: Optional[Callable] = None
    appendix: Optional[Callable] = None
    connection: Optional[Callable] = None
    normal_form: Optional[Callable] = None

    @property
    def gauge_keys(self) -> Optional[Tuple[str, ...]]:
        return None if self.gauge is None else self.gauge.keys()

    def table(self, value) -> Dict[str, str]:
        """Printed coefficient table of a value of this kind."""
        return {key: str(self.entry(value, key)) for key in self.keys}


def _itself(value):
    return value


def _table(cls) -> Dict[str, object]:
    """Key list and builder of a kind that reads one coefficient table."""
    return dict(keys=cls.keys(), build=cls.make)


# geodesic-3 coefficient keys G{i}_{jk} and the connection index each names
_GEODESIC3 = {f"G{i}_{j}{k}": (i, j, k) for i in (1, 2, 3) for j, k in SYM_PAIRS[3]}


def _christoffel3(**table) -> Christoffel:
    return Christoffel.from_components(
        3, {_GEODESIC3[key]: value for key, value in table.items()})


_SCALAR_EQUATION = dict(
    dim=2, counterpart="geodesic-2", equations=_itself, gauge=ScalarGauge,
    lift=lift_scalar, appendix=lie_gauge_residuals)
_PAIR_EQUATION = dict(
    dim=3, counterpart="geodesic-3", gauge=SystemGauge, lift=lift_system,
    appendix=appendix_residuals)

KINDS: Dict[str, Kind] = {
    "scalar-cubic": Kind(
        **_table(ScalarCubic), check=tresse_scalar, **_SCALAR_EQUATION),
    "cubic-2": Kind(
        **_table(SystemCubic2), check=check_cubic2, equations=_itself,
        **_PAIR_EQUATION),
    "quadratic-2": Kind(
        **_table(Quadratic2), check=check_quadratic2,
        equations=Quadratic2.as_cubic, **_PAIR_EQUATION),
    "linear-2": Kind(
        **_table(Linear2), check=check_linear2, equations=Linear2.as_cubic,
        **_PAIR_EQUATION),
    "geodesic-2": Kind(
        dim=2, **_table(Geodesic2Coefficients),
        check=geodesic2_flat_conditions, counterpart="scalar-cubic",
        connection=Geodesic2Coefficients.as_christoffel),
    "geodesic-3": Kind(
        dim=3,
        keys=tuple(_GEODESIC3),
        build=_christoffel3,
        entry=lambda gamma, key: gamma.gamma(*_GEODESIC3[key]),
        check=is_flat, counterpart="cubic-2", connection=_itself),
    "general-2": Kind(
        dim=3, **_table(GeneralSystem2), normal_form=normal_form),
}

_MAP_KEYS = {2: ("u", "v"), 3: ("u", "v", "w")}
_METRIC_KEYS = ("p", "q", "r")
_SECTIONS = ("system", "coefficients", "transformation", "metric", "gauge")

_KEY_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class SystemDocument:
    """Parsed description: name, kind, and the raw expression tables."""

    name: str
    kind: str
    coefficients: Dict[str, Expr]
    transformation_components: Optional[Dict[str, Expr]] = None
    metric_entries: Optional[Dict[str, Expr]] = None
    gauge_entries: Optional[Dict[str, Expr]] = None

    @property
    def spec(self) -> Kind:
        return KINDS[self.kind]

    @property
    def dim(self) -> int:
        return self.spec.dim

    def system(self):
        """Build the typed coefficient object the kind declares."""
        return self.spec.build(**self.coefficients)

    def transformation(self) -> Optional[Transformation]:
        if self.transformation_components is None:
            return None
        keys = _MAP_KEYS[self.dim]
        return Transformation.make(
            *(self.transformation_components[k] for k in keys))

    def metric(self) -> Optional[Metric]:
        if self.metric_entries is None:
            return None
        zero = parse("0")
        return Metric.plane(*(self.metric_entries.get(k, zero)
                              for k in _METRIC_KEYS))

    def gauge(self, overrides: Optional[Dict[str, Expr]] = None
              ) -> Union[ScalarGauge, SystemGauge, None]:
        """Gauge block merged with command-line overrides; zero gauge
        when the kind supports one and nothing was given."""
        keys = self.spec.gauge_keys
        if keys is None:
            if self.gauge_entries or overrides:
                raise DocumentError(
                    f"kind {self.kind!r} does not take a gauge")
            return None
        table = dict(self.gauge_entries or {})
        for key, value in (overrides or {}).items():
            if key not in keys:
                raise DocumentError(
                    f"unknown gauge key {key!r} for kind {self.kind!r}")
            table[key] = value
        return self.spec.gauge.make(**table)


def load_document(path: str) -> SystemDocument:
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read(), label=path)


def parse_document(text: str, label: str = "<string>") -> SystemDocument:
    sections = _split_sections(text, label)
    if "system" not in sections:
        raise DocumentError(f"{label}: missing [system] section")
    head = dict(sections["system"])
    name = head.pop("name", None)
    kind = head.pop("kind", None)
    coords = head.pop("coordinates", None)
    if head:
        raise DocumentError(
            f"{label}: unknown [system] keys {sorted(head)}")
    if not name:
        raise DocumentError(f"{label}: [system] needs a name")
    if kind not in KINDS:
        raise DocumentError(
            f"{label}: unknown kind {kind!r}; expected one of "
            + ", ".join(sorted(KINDS)))
    spec = KINDS[kind]
    dim = spec.dim
    if coords is not None and tuple(coords.split()) != coordinates(dim):
        raise DocumentError(
            f"{label}: kind {kind!r} uses coordinates "
            + " ".join(coordinates(dim)))

    coefficients = _expression_table(
        sections.get("coefficients", []), spec.keys, "coefficient", label)
    transformation = None
    if "transformation" in sections:
        transformation = _expression_table(
            sections["transformation"], _MAP_KEYS[dim],
            "transformation", label)
        missing = [k for k in _MAP_KEYS[dim] if k not in transformation]
        if missing:
            raise DocumentError(
                f"{label}: transformation block is missing {missing}")
    metric = None
    if "metric" in sections:
        if dim != 2:
            raise DocumentError(
                f"{label}: metric blocks apply to two-coordinate kinds only")
        metric = _expression_table(
            sections["metric"], _METRIC_KEYS, "metric", label)
    gauge = None
    if "gauge" in sections:
        keys = spec.gauge_keys
        if keys is None:
            raise DocumentError(
                f"{label}: kind {kind!r} does not take a gauge block")
        gauge = _expression_table(sections["gauge"], keys, "gauge", label)
    return SystemDocument(
        name=name, kind=kind, coefficients=coefficients,
        transformation_components=transformation,
        metric_entries=metric, gauge_entries=gauge)


def _split_sections(text: str, label: str):
    sections: Dict[str, list] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise DocumentError(f"{label}:{lineno}: unterminated section header")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise DocumentError(
                    f"{label}:{lineno}: unknown section [{section}]")
            if section in sections:
                raise DocumentError(
                    f"{label}:{lineno}: duplicate section [{section}]")
            sections[section] = []
            current = section
            continue
        if current is None:
            raise DocumentError(
                f"{label}:{lineno}: content before any section header")
        if "=" not in line:
            raise DocumentError(f"{label}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise DocumentError(f"{label}:{lineno}: bad key {key!r}")
        if any(k == key for k, _, _ in sections[current]):
            raise DocumentError(f"{label}:{lineno}: duplicate key {key!r}")
        sections[current].append((key, value, lineno))
    if "system" in sections:
        sections["system"] = {k: _unquote(v) for k, v, _ in sections["system"]}
    return sections


def _strip_comment(line: str) -> str:
    in_quotes = False
    for pos, char in enumerate(line):
        if char == '"':
            in_quotes = not in_quotes
        elif char == "#" and not in_quotes:
            return line[:pos]
    return line


def _unquote(value: str) -> str:
    if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    return value


def _expression_table(entries, allowed, what, label) -> Dict[str, Expr]:
    table: Dict[str, Expr] = {}
    for key, value, lineno in entries:
        if key not in allowed:
            raise DocumentError(
                f"{label}:{lineno}: unknown {what} key {key!r}; expected "
                "one of " + ", ".join(allowed))
        if not (value.startswith('"') and value.endswith('"') and len(value) >= 2):
            raise DocumentError(
                f"{label}:{lineno}: {what} values must be double-quoted")
        try:
            table[key] = parse(value[1:-1])
        except (ParseError, KernelDomainError) as err:
            raise DocumentError(
                f"{label}:{lineno}: bad expression for {key}: {err}") from err
    return table
