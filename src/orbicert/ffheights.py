"""Heights, proximity and counting over the rational function field.

Points of projective space over Q(t) are held as coprime integer
polynomial coordinates.  Places are the monic irreducible polynomials
(weight = degree) together with the infinite place (v = -deg), so the sum
of deg * v over all places of any nonzero element is 0.

For a homogeneous form F of degree e and a point x the local value
lambda = v(F(x)) - e * min_j v(x_j) is nonnegative, the proximity m_S
collects lambda over S, the counting N_S collects deg * v(F(x)) outside S,
and m_S + N_S = e * h(x) exactly.  N1_S truncates counting to multiplicity
one; the radical degree makes that computable without factoring.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from . import polys
from .lattice import ConfigError, InternalError, SurfaceConfig, _typed, malformed
from .polys import IntPoly
from .positivity import WeightedBoundary
from .sampling import _sweep, _tally


class DegenerateError(Exception):
    """Input violates a nondegeneracy hypothesis of the inequality."""


class ProbeExcluded(Exception):
    """The sampled curve is outside the scope of the probe."""


# -- places --------------------------------------------------------------------


def _has_integer_root(b: int, c: int, d: int) -> bool:
    """Whether the monic cubic y^3 + b y^2 + c y + d vanishes at an integer.

    Splits [-B, B] (B the Cauchy bound) at the floor and the ceiling of each
    critical point, bracketed through the isqrt of the derivative's
    discriminant, and bisects each monotone piece whose endpoints change
    sign.  The floor and the ceiling are adjacent, so the pieces' endpoints
    cover every integer between the pieces.
    """

    def f(y: int) -> int:
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))
    cuts = [-bound]
    disc = b * b - 3 * c  # f' = 3y^2 + 2by + c has roots (-b -+ sqrt(disc)) / 3
    if disc > 0:
        s = math.isqrt(disc)
        # sqrt(disc) lies in [s, s + 1)
        for lo, hi in ((-b - s - 1, -b - s), (-b + s, -b + s + 1)):
            cuts += [lo // 3, -(-hi // 3)]
    cuts.append(bound)
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        if lo > hi:
            continue
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0 or f_hi == 0:
            return True
        if (f_lo < 0) == (f_hi < 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f_mid = f(mid)
            if f_mid == 0:
                return True
            if (f_mid < 0) == (f_lo < 0):
                lo = mid
            else:
                hi = mid
    return False


def _certify_irreducible(poly: IntPoly) -> bool:
    """Irreducibility over Q of a polynomial of degree 1, 2 or 3.

    Degree 1 is irreducible.  Degree 2 is irreducible iff its discriminant
    is not a perfect square (an isqrt test).  Degree 3 is irreducible iff it
    has no rational root; a3^2 f(y / a3) is a monic integer cubic, whose
    rational roots are integers, found by bisection on its monotone pieces.
    No integer is factored, and no other degree is decided: places stop at
    degree 3.
    """
    deg = polys.degree(poly)
    if deg == 1:
        return True
    if deg == 2:
        c, b, a = poly
        disc = b * b - 4 * a * c
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if deg == 3:
        a0, a1, a2, a3 = poly
        return not _has_integer_root(a2, a1 * a3, a0 * a3 * a3)
    raise InternalError(f"irreducibility of degree {deg} is not decided")


@dataclass(frozen=True)
class Place:
    """A finite place (irreducible polynomial) or the infinite place."""

    poly: IntPoly | None

    @staticmethod
    def finite(coeffs: Iterable[int | Fraction]) -> "Place":
        """The place of an irreducible polynomial of degree 1, 2 or 3;
        ConfigError for any other polynomial, degree 4 and up included."""
        p = polys.clear_rationals(Fraction(c) for c in coeffs)
        if p and p[-1] < 0:
            p = polys.neg(p)
        deg = polys.degree(p)
        if deg < 1:
            raise ConfigError("a finite place needs positive degree")
        if deg > 3:
            raise ConfigError(
                f"place {polys.to_string(p)} has degree {deg}; "
                "places are limited to degree 3"
            )
        if not _certify_irreducible(p):
            raise ConfigError(f"reducible place {polys.to_string(p)}")
        return Place(poly=p)

    @staticmethod
    def infinite() -> "Place":
        return Place(poly=None)

    @property
    def is_infinite(self) -> bool:
        return self.poly is None

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else polys.degree(self.poly)

    def valuation(self, f: IntPoly) -> int:
        """v(f) for nonzero f; raises on the zero polynomial."""
        if polys.is_zero(f):
            raise ValueError("valuation of the zero polynomial")
        if self.poly is None:
            return -polys.degree(f)
        if polys.degree(self.poly) == 1:
            c0, c1 = self.poly[0], self.poly[1]
            return polys.valuation_linear(-c0, c1, f)
        return polys.valuation(self.poly, f)

    def __str__(self) -> str:
        return "inf" if self.poly is None else f"({polys.to_string(self.poly)})"


# -- points of projective space -------------------------------------------------


@dataclass(frozen=True)
class RatMap:
    """Coprime integer coordinates of a point of P^m over Q(t).

    _from_ints is the only path that builds one, and it divides out the
    integer content and the polynomial gcd.  So no finite place divides
    every coordinate: min_j v(x_j) is 0 at every finite place, and -height
    at the infinite place (see _local_value).
    """

    coords: tuple[IntPoly, ...]

    @staticmethod
    def make(raw: Sequence[Iterable[int | Fraction]]) -> "RatMap":
        rows = [tuple(Fraction(c) for c in coord) for coord in raw]
        den = 1
        for row in rows:
            for c in row:
                den = math.lcm(den, c.denominator)
        return RatMap._from_ints(
            [polys.trim([int(c * den) for c in row]) for row in rows]
        )

    @staticmethod
    def _from_ints(ints: list[IntPoly]) -> "RatMap":
        """The point with trimmed integer coordinates ints, made coprime."""
        if all(polys.is_zero(p) for p in ints):
            raise ConfigError("all coordinates vanish")
        ints = _divide_common(ints)
        lead = next(p for p in ints if not polys.is_zero(p))
        if lead[-1] < 0:
            ints = [polys.neg(p) for p in ints]
        return RatMap(coords=tuple(ints))

    @property
    def m(self) -> int:
        return len(self.coords) - 1

    @cached_property
    def height(self) -> int:
        return max(polys.degree(c) for c in self.coords)

    @cached_property
    def nondegenerate(self) -> bool:
        """Coordinates linearly independent over the constants, proved once."""
        width = self.height + 1
        rows = [list(c) + [0] * (width - len(c)) for c in self.coords]
        return gaussian_rank(rows) == len(self.coords)

    def __str__(self) -> str:
        return "[" + " : ".join(polys.to_string(c) for c in self.coords) + "]"


def _divide_common(ints: list[IntPoly]) -> list[IntPoly]:
    cont = 0
    for p in ints:
        if not polys.is_zero(p):
            cont = math.gcd(cont, polys.content(p))
    ints = [polys.trim([c // cont for c in p]) for p in ints]
    g: IntPoly = ()
    for p in ints:
        if not polys.is_zero(p):
            g = polys.gcd_poly(g, p)
            if polys.degree(g) == 0:
                break
    if polys.degree(g) > 0:
        # g is primitive, so each cofactor is an integer polynomial
        quotients = [polys.exact_quotient(p, g) for p in ints]
        if None in quotients:
            raise InternalError("gcd fails to divide a coordinate")
        ints = quotients
    return ints


# -- homogeneous forms -----------------------------------------------------------


@dataclass(frozen=True)
class HForm:
    """Homogeneous integer form; terms map exponent tuples to coefficients."""

    nvars: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(nvars: int, terms: Mapping[tuple[int, ...], int | Fraction]) -> "HForm":
        cleaned = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, int):
                coeff = Fraction(coeff)
                if coeff.denominator != 1:
                    raise ConfigError("form coefficients must be integers")
                coeff = int(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ConfigError(f"bad exponent tuple {exps}")
            cleaned[exps] = cleaned.get(exps, 0) + coeff
        cleaned = {e: c for e, c in cleaned.items() if c}
        if not cleaned:
            raise ConfigError("zero form")
        degrees = {sum(e) for e in cleaned}
        if len(degrees) != 1:
            raise ConfigError(f"form is not homogeneous: degrees {sorted(degrees)}")
        return HForm(
            nvars=nvars,
            degree=degrees.pop(),
            terms=tuple(sorted(cleaned.items())),
        )

    def evaluate(self, x: RatMap) -> IntPoly:
        if len(x.coords) != self.nvars:
            raise ConfigError(f"{len(x.coords)} coordinates for {self.nvars} variables")
        if self.degree == 1:
            # sum_j c_j x_j, accumulated into one coefficient list
            acc = [0] * max(len(c) for c in x.coords)
            for exps, coeff in self.terms:
                for i, c in enumerate(x.coords[exps.index(1)]):
                    acc[i] += coeff * c
            return polys.trim(acc)
        powers: dict[tuple[int, int], IntPoly] = {}
        total: IntPoly = ()
        for exps, coeff in self.terms:
            term: IntPoly = (coeff,)
            for j, e in enumerate(exps):
                if e:
                    key = (j, e)
                    if key not in powers:
                        powers[key] = polys.pow_(x.coords[j], e)
                    term = polys.mul(term, powers[key])
            total = polys.add(total, term)
        return total

    def linear_vector(self) -> tuple[int, ...]:
        if self.degree != 1:
            raise ConfigError("not a linear form")
        vec = [0] * self.nvars
        for exps, coeff in self.terms:
            vec[exps.index(1)] = coeff
        return tuple(vec)

    def __str__(self) -> str:
        names = _var_names(self.nvars)
        parts = []
        for exps, coeff in sorted(self.terms, reverse=True):
            body = "*".join(
                f"{names[j]}^{e}" if e > 1 else names[j]
                for j, e in enumerate(exps)
                if e
            )
            mag = abs(coeff)
            txt = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
            parts.append(("- " if coeff < 0 else "+ ") + txt)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _var_names(nvars: int) -> tuple[str, ...]:
    base = ("X", "Y", "Z", "W")
    if nvars <= len(base):
        return base[:nvars]
    return tuple(f"X{j}" for j in range(nvars))


# -- form parser -----------------------------------------------------------------


# Products whose coefficients could pass this many bits are refused: a nested
# power of a constant, ((9)^2)^2..., stays within any degree, yet each level
# doubles the digits, so the text's length alone would not bound the work.
_COEFF_BITS_MAX = 1 << 16

# a number, a name, an operator, or (last group) a bad character
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\d*)|([-+*^()])|(\S))")


def _parse(text: str, names: Sequence[str], degree: float = math.inf) -> dict:
    """Read an integer polynomial in names into {exponents: coefficient}.

    Recursive descent: runs of + and - before a term, then *, then ^ with
    a decimal exponent, then parentheses.  An exponent or a product above
    degree is refused before anything is multiplied.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        if match[4]:
            raise ConfigError(f"bad character {match[4]!r} in form")
        tokens.append(match[match.lastindex])
    tokens.reverse()  # tokens.pop() takes the next token
    one = (0,) * len(names)
    var = {name: one[:j] + (1,) + one[j + 1 :] for j, name in enumerate(names)}

    def expr() -> dict:
        total: dict = {}
        while True:
            sign = 1
            while tokens and tokens[-1] in ("+", "-"):
                sign = -sign if tokens.pop() == "-" else sign
            for e, c in term().items():
                total[e] = total.get(e, 0) + sign * c
            if not tokens or tokens[-1] not in ("+", "-"):
                return {e: c for e, c in total.items() if c}

    def term() -> dict:
        total = factor()
        while tokens and tokens[-1] == "*":
            tokens.pop()
            total = _poly_mul(total, factor(), degree)
        return total

    def factor() -> dict:
        tok = tokens.pop()
        if tok == "(":
            base = expr()
            if tokens.pop() != ")":
                raise ConfigError("unbalanced parentheses")
        elif tok.isdigit():
            base = {one: int(tok)}
        elif tok in var:
            base = {var[tok]: 1}
        else:
            raise ConfigError(f"unknown token {tok!r}")
        if not tokens or tokens[-1] != "^":
            return base
        tokens.pop()
        tok = tokens.pop()
        if not tok.isdigit():
            raise ConfigError(f"bad exponent {tok!r}")
        if int(tok) > degree:
            raise ConfigError(f"exponent {tok} exceeds the form's degree {degree}")
        # by squaring: X^99999999 costs 27 squarings, not 10^8 products
        out = {one: 1}
        for bit in bin(int(tok))[2:]:
            out = _poly_mul(out, out, degree)
            if bit == "1":
                out = _poly_mul(out, base, degree)
        return out

    try:
        out = expr()
    except IndexError:  # tokens.pop() past the last token
        raise ConfigError("unexpected end of form") from None
    except RecursionError:
        raise ConfigError("form nested too deeply") from None
    if tokens:
        raise ConfigError(f"trailing token {tokens[-1]!r}")
    return out


def _poly_mul(a: dict, b: dict, degree: float) -> dict:
    if max(map(sum, a), default=0) + max(map(sum, b), default=0) > degree:
        raise ConfigError(f"a product in the form exceeds degree {degree}")
    # each coefficient of the product sums at most min(len(a), len(b)) products
    bits = (
        max(map(int.bit_length, a.values()), default=0)
        + max(map(int.bit_length, b.values()), default=0)
        + min(len(a), len(b)).bit_length()
    )
    if bits > _COEFF_BITS_MAX:
        raise ConfigError(
            f"a product in the form could have coefficients above {_COEFF_BITS_MAX} bits"
        )
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def parse_form(text: str, nvars: int = 3, degree: float = math.inf) -> HForm:
    """Parse a homogeneous integer form in X, Y, Z, W (or X0, X1, ...) of
    at most the given degree."""
    return HForm.make(nvars, _parse(text, _var_names(nvars), degree))


# -- heights and counting --------------------------------------------------------


def _local_value(place: Place, fx: IntPoly, e: int, x: RatMap) -> int:
    """v(F(x)) - e * min_j v(x_j) at place, for fx = F(x) with F of degree e.

    x's coordinates are coprime, so min_j v(x_j) is 0 at a finite place and
    -height at infinity: no valuation of a coordinate is needed.
    """
    v = place.valuation(fx)
    return v + e * x.height if place.is_infinite else v


@dataclass(frozen=True)
class Counting:
    proximity: int
    counting: int
    counting_truncated: int | None
    total: int


def _check_places(places: Sequence[Place]) -> None:
    if len(set(places)) != len(places):
        raise ConfigError("repeated place in S")


def counting_functions(
    form: HForm, x: RatMap, places: Sequence[Place], *, truncated: bool = True
) -> Counting:
    """Proximity, counting and truncated counting of F at x relative to S.

    proximity + counting equals deg(F) * height(x) exactly.  Pass
    truncated=False to skip the radical computation behind the truncated
    count; the field is then None.
    """
    _check_places(places)
    fx = form.evaluate(x)
    if polys.is_zero(fx):
        raise DegenerateError("the point lies on the hypersurface")
    e, inf = form.degree, Place.infinite()
    lam_inf = _local_value(inf, fx, e, x)
    # at a finite place lambda is v(F(x)), so the proximity's finite part is
    # the sum that counting subtracts
    finite = [(p.degree, _local_value(p, fx, e, x)) for p in places if p != inf]
    finite_in_s = sum(d * lam for d, lam in finite)
    prox, counting = finite_in_s, polys.degree(fx) - finite_in_s
    trunc = None
    if truncated:
        trunc = polys.radical_degree(fx) - sum(d for d, lam in finite if lam > 0)
    if inf in places:
        prox += lam_inf
    else:
        counting += lam_inf
        if truncated and lam_inf > 0:
            trunc += 1
    return Counting(
        proximity=prox,
        counting=counting,
        counting_truncated=trunc,
        total=e * x.height,
    )


# -- linear algebra over Q -------------------------------------------------------


def _insert(echelon: list[tuple[int, list[int]]], vec: Sequence[int]) -> bool:
    """Reduce vec against echelon's (pivot column, row) pairs without fractions;
    append a nonzero remainder (vec is independent of the rows) and return True."""
    v = list(vec)
    for col, row in echelon:
        if v[col]:
            lead, factor = row[col], v[col]
            v = [lead * a - factor * b for a, b in zip(v, row)]
    pivot = next((col for col, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    echelon.append((pivot, v))
    return True


def gaussian_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    echelon: list[tuple[int, list[int]]] = []
    for row in rows:
        if not all(isinstance(c, int) for c in row):
            # scale the row to integers; its span is unchanged
            den = math.lcm(*(Fraction(c).denominator for c in row))
            row = [int(Fraction(c) * den) for c in row]
        _insert(echelon, row)
    return len(echelon)


# -- the subspace-type inequality -------------------------------------------------


@dataclass(frozen=True)
class SubspaceReport:
    lhs: int
    rhs: Fraction
    holds: bool
    family_rank: int


def subspace_inequality(
    x: RatMap, hyperplanes: Sequence[HForm], places: Sequence[Place]
) -> SubspaceReport:
    """Sum over S of the best independent-subfamily proximity, against
    (m+1) h(x) + (m(m+1)/2) (#S - 2).

    At each place the best subfamily is a basis of the family, taken
    greedily: hyperplanes by falling local value, each kept when it is
    independent of those kept before.  The independent subfamilies form a
    matroid, so the greedy basis has the largest sum and the family's rank
    (Edmonds, "Matroids and the greedy algorithm", Math. Programming 1
    (1971)); below two places, the family's own order is a second basis.

    Requires coordinates linearly independent over the constants; the
    point then lies on none of the hyperplanes.
    """
    _check_places(places)
    if not hyperplanes:
        raise ConfigError("empty hyperplane family")
    m = x.m
    for hp in hyperplanes:
        if hp.degree != 1 or hp.nvars != m + 1:
            raise ConfigError("hyperplanes must be linear forms in the same space")
    if not x.nondegenerate:
        raise DegenerateError("coordinates satisfy a constant linear relation")

    vectors = [hp.linear_vector() for hp in hyperplanes]
    values = [hp.evaluate(x) for hp in hyperplanes]

    lhs = 0
    ranks = set() if len(places) > 1 else {gaussian_rank(vectors)}
    for place in places:
        lams = [_local_value(place, fx, 1, x) for fx in values]
        echelon: list[tuple[int, list[int]]] = []
        best = 0
        # sorted is stable, so equal values keep the family's order
        for j in sorted(range(len(vectors)), key=lambda j: -lams[j]):
            if len(echelon) == m + 1:
                break
            if _insert(echelon, vectors[j]):
                best += lams[j]
        ranks.add(len(echelon))
        lhs += place.degree * best
    if len(ranks) != 1:
        raise InternalError(f"greedy bases of one family have sizes {sorted(ranks)}")
    rhs = (m + 1) * Fraction(x.height) + Fraction(m * (m + 1), 2) * (len(places) - 2)
    return SubspaceReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs, family_rank=ranks.pop())


# -- plane realizations and the hyperbolicity probe -------------------------------


@dataclass(frozen=True)
class PlaneRealization:
    """Explicit plane curves realizing the boundary components."""

    boundary_forms: tuple[HForm, ...]
    pairing_forms: tuple[HForm | None, ...]
    blown_points: tuple[tuple[str, tuple[int, int, int]], ...]

    @staticmethod
    def make(boundary_forms, pairing_forms, blown_points) -> "PlaneRealization":
        return PlaneRealization(
            boundary_forms=tuple(boundary_forms),
            pairing_forms=tuple(pairing_forms),
            blown_points=tuple(sorted((str(k), tuple(v)) for k, v in dict(blown_points).items())),
        )

    def validate_against(self, cfg: SurfaceConfig) -> None:
        if len(self.boundary_forms) != len(cfg.components):
            raise ConfigError("one form per boundary component is required")
        if len(self.pairing_forms) != len(cfg.components):
            raise ConfigError("one pairing slot per component is required")
        points = dict(self.blown_points)
        for i, comp in enumerate(cfg.components):
            form = self.boundary_forms[i]
            if form.nvars != 3 or form.degree != comp.degree:
                raise ConfigError(f"form degree mismatch at component {i}")
            pairing = self.pairing_forms[i]
            if comp.paired != (pairing is not None):
                raise ConfigError(f"pairing form mismatch at component {i}")
            if pairing is not None and pairing.degree != comp.pairing_degree:
                raise ConfigError(f"pairing degree mismatch at component {i}")
        blown = cfg.points
        foreign = sorted(points.keys() - {point.ident for point in blown})
        if foreign:
            raise ConfigError(f"{foreign[0]} is not a blown point of the configuration")
        seen = set()
        for point in blown:
            coords = points.get(point.ident)
            if coords is None:
                raise ConfigError(f"no coordinates for blown point {point.ident}")
            # a constant map: equal points are equal RatMaps
            x = RatMap.make([[c] for c in coords])
            if x in seen:
                raise ConfigError(f"blown points collide at {coords}")
            seen.add(x)
            (home,) = point.on
            for i, form in enumerate(self.boundary_forms):
                on = polys.is_zero(form.evaluate(x))
                if i == home and not on:
                    raise ConfigError(f"{point.ident} is not on its component")
                if i != home and on:
                    raise ConfigError(f"{point.ident} lies on a foreign component")
            pairing = self.pairing_forms[home]
            if pairing is not None and not polys.is_zero(pairing.evaluate(x)):
                raise ConfigError(f"{point.ident} misses its pairing curve")


@malformed("realization")
def realization_from_config(cfg: SurfaceConfig) -> PlaneRealization:
    doc = cfg.metadata.get("realization")
    if not doc:
        raise ConfigError("configuration carries no plane realization")
    comps = cfg.components
    forms = _typed(doc["forms"], list, "forms")
    if len(forms) != len(comps):  # before reading a form at its degree
        raise ConfigError("one form per boundary component is required")
    boundary = [
        parse_form(_typed(text, str, "form"), degree=comp.degree)
        for text, comp in zip(forms, comps)
    ]
    pairing: list[HForm | None] = [None] * len(comps)
    slots = {str(i): i for i, comp in enumerate(comps) if comp.paired}
    for key, text in doc.get("pairings", {}).items():
        if key not in slots:
            raise ConfigError(f"pairing key {key!r} is not a paired component's index")
        degree = comps[slots[key]].pairing_degree
        pairing[slots[key]] = parse_form(_typed(text, str, "form"), degree=degree)
    coords = doc.get("points", {}).items()
    points = {k: tuple(_typed(c, int, "point coordinate") for c in v) for k, v in coords}
    real = PlaneRealization.make(boundary, pairing, points)
    real.validate_against(cfg)
    return real


@dataclass(frozen=True)
class ProbeRecord:
    height: int
    pullback_degree: Fraction
    support_count: int
    ratio: Fraction


def height_bound_probe(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    realization: PlaneRealization,
    x: RatMap,
) -> ProbeRecord:
    """Pullback degree of the weighted boundary against truncated support.

    Curves through a blown point, inside a component or constant are out
    of scope and raise ProbeExcluded.
    """
    wb.check_against(cfg)
    if len(x.coords) != 3:
        raise ConfigError("the probe needs points of the projective plane")
    h = x.height
    if h == 0:
        raise ProbeExcluded("constant curve")
    inf = Place.infinite()
    values = []
    for i, form in enumerate(realization.boundary_forms):
        fx = form.evaluate(x)
        if polys.is_zero(fx):
            raise ProbeExcluded(f"curve lies inside boundary component {i}")
        values.append(fx)
    for i, pairing in enumerate(realization.pairing_forms):
        if pairing is None:
            continue
        bx = pairing.evaluate(x)
        if polys.is_zero(bx):
            raise ProbeExcluded(f"curve lies inside pairing curve {i}")
        if polys.degree(polys.gcd_poly(values[i], bx)) > 0:
            raise ProbeExcluded(f"curve passes through a blown point of component {i}")
        lam_f = _local_value(inf, values[i], realization.boundary_forms[i].degree, x)
        if lam_f > 0 and _local_value(inf, bx, pairing.degree, x) > 0:
            raise ProbeExcluded(
                f"curve passes through a blown point of component {i} at infinity"
            )

    product: IntPoly = (1,)
    for fx in values:
        product = polys.mul(product, fx)
    support = polys.radical_degree(product)
    # t = inf is in the support by the rule of counting_functions' truncated count
    e = sum(f.degree for f in realization.boundary_forms)
    if _local_value(inf, product, e, x) > 0:
        support += 1
    degree = h * sum(
        Fraction(w) * form.degree
        for w, form in zip(wb.weights, realization.boundary_forms)
    )
    ratio = Fraction(degree) / max(1, support - 2)
    return ProbeRecord(
        height=h, pullback_degree=degree, support_count=support, ratio=ratio
    )


# -- randomized sweeps -----------------------------------------------------------

_PLACE_POOL: tuple[IntPoly, ...] = (
    (0, 1),          # t
    (-1, 1),         # t - 1
    (2, 1),          # t + 2
    (1, 0, 1),       # t^2 + 1
    (-2, 0, 1),      # t^2 - 2
    (1, 1, 0, 1),    # t^3 + t + 1
)


def _require_positive_bound(bound: int, drawn: str) -> None:
    if bound < 1:
        raise ConfigError(
            f"coefficient bound {bound} must be at least 1: every {drawn} drawn "
            "would be zero"
        )


def _random_poly(rng: random.Random, max_deg: int, bound: int) -> IntPoly:
    deg = rng.randint(0, max_deg)
    return polys.trim([rng.randint(-bound, bound) for _ in range(deg + 1)])


_MAP_TRIES = 10_000


def random_map(
    rng: random.Random, m: int, max_deg: int, bound: int, *, nondegenerate: bool = False
) -> RatMap:
    """A random map to P^m; nondegenerate asks for independent coordinates,
    never all constant for m >= 1.  ConfigError after _MAP_TRIES draws."""
    if nondegenerate and m < 1:
        raise ConfigError(f"no nondegenerate map to P^{m} has positive height")
    for _ in range(_MAP_TRIES):
        raw = [_random_poly(rng, max_deg, bound) for _ in range(m + 1)]
        if all(polys.is_zero(p) for p in raw):
            continue
        x = RatMap._from_ints(raw)
        if nondegenerate and not x.nondegenerate:
            continue
        return x
    raise ConfigError(
        f"no {'nondegenerate ' if nondegenerate else ''}map to P^{m} of degree "
        f"<= {max_deg} with coefficients in [-{bound}, {bound}] "
        f"in {_MAP_TRIES} draws"
    )


@lru_cache(maxsize=1)
def _pool_places() -> tuple[Place, ...]:
    return tuple(Place.finite(p) for p in _PLACE_POOL)


def random_places(rng: random.Random) -> list[Place]:
    """2 to 4 distinct places, the infinite one with probability 0.7."""
    count = rng.randint(2, 4)
    chosen: list[Place] = [Place.infinite()] if rng.random() < 0.7 else []
    pool = list(_pool_places())
    rng.shuffle(pool)
    return chosen + pool[: count - len(chosen)]


def random_hyperplanes(
    rng: random.Random, m: int, q: int, bound: int
) -> list[HForm]:
    """q integer hyperplanes with every min(q, m+1)-subfamily independent.
    ConfigError after _MAP_TRIES families that are not in general position."""
    _require_positive_bound(bound, "hyperplane")
    k = min(q, m + 1)
    for _ in range(_MAP_TRIES):
        vectors = []
        for _ in range(q):
            while True:
                vec = [rng.randint(-bound, bound) for _ in range(m + 1)]
                if any(vec):
                    break
            vectors.append(vec)
        if all(
            gaussian_rank([vectors[j] for j in combo]) == k
            for combo in itertools.combinations(range(q), k)
        ):
            unit = [tuple(int(j == i) for j in range(m + 1)) for i in range(m + 1)]
            return [HForm.make(m + 1, dict(zip(unit, vec))) for vec in vectors]
    raise ConfigError(
        f"no {q} hyperplanes in P^{m} in general position with coefficients "
        f"in [-{bound}, {bound}] in {_MAP_TRIES} draws"
    )


def _random_form(rng: random.Random, nvars: int, degree: int, bound: int) -> HForm:
    _require_positive_bound(bound, "form")
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) == degree
    ]
    while True:
        terms = {e: rng.randint(-bound, bound) for e in exps}
        if any(terms.values()):
            return HForm.make(nvars, terms)


def _require_drawable(max_deg: int, bound: int) -> None:
    if max_deg < 0:
        raise ConfigError(f"max degree {max_deg} must not be negative")
    _require_positive_bound(bound, "map")


def _subspace_sample(
    rng: random.Random, max_m: int, max_deg: int, bound: int
) -> tuple[str, ...]:
    m = rng.randint(1, max_m)
    x = random_map(rng, m, max_deg, bound, nondegenerate=True)
    q = rng.randint(m + 1, m + 3)
    hyperplanes = random_hyperplanes(rng, m, q, 9)
    places = random_places(rng)
    # independent coordinates lie on no hyperplane: no DegenerateError here
    report = subspace_inequality(x, hyperplanes, places)
    out = ("samples",) if report.holds else ("samples", "violations")
    form = _random_form(rng, m + 1, rng.randint(1, 3), 9)
    try:
        counting = counting_functions(form, x, places, truncated=False)
    except DegenerateError:
        return out + ("degenerate",)
    if counting.proximity + counting.counting != counting.total:
        return out + ("fmt_failures",)
    return out


def subspace_sweep(
    samples: int,
    *,
    seed: int = 0,
    processes: int = 1,
    max_m: int = 3,
    max_deg: int = 10,
    bound: int = 100,
) -> dict:
    """Random subspace-inequality and height-identity sweep; returns tallies."""
    # m + 1 independent coordinates need degrees up to m, for every m <= max_m
    if max_deg < max_m:
        raise ConfigError(
            f"max degree {max_deg} is below max_m {max_m}: coordinates of degree "
            f"<= {max_deg} cannot be independent in P^{max_m}"
        )
    _require_drawable(max_deg, bound)
    params = (max_m, max_deg, bound)
    return _tally(
        ("samples", "violations", "fmt_failures", "degenerate"),
        _sweep(_subspace_sample, "subspace", samples, seed, processes, params),
    )


# _POOL_POWERS[i][e] is the e-th power of _PLACE_POOL[i], for the exponents
# 0 to 3 that the product suite draws
_POOL_POWERS: tuple[tuple[IntPoly, ...], ...] = tuple(
    tuple(polys.pow_(p, e) for e in range(4)) for p in _PLACE_POOL
)


def _product_formula_sample(rng: random.Random) -> tuple[str, ...]:
    exps = [rng.randint(0, 3) for _ in _PLACE_POOL]
    c = rng.choice([k for k in range(-9, 10) if k])
    f: IntPoly = (c,)
    for powers, e in zip(_POOL_POWERS, exps):
        f = polys.mul(f, powers[e])
    total = 0
    ok = True
    for place, e in zip(_pool_places(), exps):
        v = place.valuation(f)
        if v != e:
            ok = False
        total += place.degree * v
    inf = Place.infinite()
    total += inf.degree * inf.valuation(f)
    return ("samples",) if ok and total == 0 else ("samples", "failures")


def product_formula_sweep(samples: int, *, seed: int = 0, processes: int = 1) -> dict:
    """Build elements with known factorizations and re-read their valuations."""
    return _tally(
        ("samples", "failures"),
        _sweep(_product_formula_sample, "product", samples, seed, processes, ()),
    )


def _probe_sample(
    rng: random.Random,
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    realization: PlaneRealization,
    max_deg: int,
    bound: int,
) -> ProbeRecord | None:
    """The probe record of one random curve, None when it is excluded."""
    x = random_map(rng, 2, max_deg, bound)
    try:
        return height_bound_probe(cfg, wb, realization, x)
    except ProbeExcluded:
        return None


def probe_sweep(
    cfg: SurfaceConfig,
    wb: WeightedBoundary,
    realization: PlaneRealization,
    samples: int,
    *,
    seed: int = 0,
    processes: int = 1,
    max_deg: int = 6,
    bound: int = 20,
) -> dict:
    _require_drawable(max_deg, bound)
    wb.check_against(cfg)
    params = (cfg, wb, realization, max_deg, bound)
    records = _sweep(_probe_sample, "probe", samples, seed, processes, params)
    # the least index with the largest ratio names the worst case
    alpha, worst = Fraction(0), None
    for index, record in enumerate(records):
        if record is not None and record.ratio > alpha:
            alpha = record.ratio
            worst = {
                "index": index,
                "height": record.height,
                "degree": str(record.pullback_degree),
                "support": record.support_count,
            }
    kept = sum(record is not None for record in records)
    return {
        "samples": kept,
        "excluded": len(records) - kept,
        "alpha_emp": str(alpha),
        "alpha_emp_float": float(alpha),
        "worst": worst,
    }
