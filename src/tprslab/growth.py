"""Symbolic runtime-growth classes, negligibility rules, and bound expressions.

Asymptotic statements are made decidable through a rule table over recognized
monomial shapes plus a numeric witness grid. Anything outside the table comes
back "undecided" with evidence: numeric evaluation cannot prove asymptotics.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

from .config import DEFAULT_KAPPA, mem_cap
from .errors import NonEvaluable, UnrecognizedForm, UnsupportedGrowthClass, ValidationError

__all__ = [
    "GrowthClass",
    "Expr",
    "Const",
    "Growth",
    "Add",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Pow2",
    "Log2",
    "is_negligible",
    "check_closure",
    "check_repetition_consistency",
    "table_lower_bound",
    "TABLE_CLASSES",
    "TABLE_MEASURES",
    "parse_bound_expr",
    "SubsetAdvice",
    "advise_subset_size",
    "advise_copies",
]

# form: (label, degree vector, family base). The degree vector holds the
# (n, log n, loglog n) powers of the representative; a family's vector is its
# base's, scaled by the exponent. poly-of takes its base per instance.
_FORMS = {
    "const": ("O(1)", (0.0, 0.0, 0.0), None),
    "log": ("log n", (0.0, 1.0, 0.0), None),
    "loglog": ("loglog n", (0.0, 0.0, 1.0), None),
    "linear": ("n", (1.0, 0.0, 0.0), None),
    "linearithmic": ("n log n", (1.0, 1.0, 0.0), None),
    "polylog": ("polylog n", (0.0, 1.0, 0.0), "log"),
    "poly": ("poly n", (1.0, 0.0, 0.0), "linear"),
    "poly-of": ("poly({base})", None, None),
    "exp": ("2^n", None, None),
}
_PARSE_ALIASES = {
    **{form: form for form in _FORMS if form != "poly-of"},
    "logn": "log",
    "n": "linear",
    "nlogn": "linearithmic",
}
MAX_POLYF_NESTING = 16  # polyf: prefixes one class name may carry


def _log2(x: float) -> float:
    if x <= 0:
        raise NonEvaluable(f"log2 of non-positive value {x}")
    return math.log2(x)


@dataclass(frozen=True)
class GrowthClass:
    """A runtime family T(n), evaluable via a canonical representative.

    Family forms (poly, polylog, poly-of) quantify over all exponents; their
    ``exponent`` only selects the representative used for numeric evaluation.
    """

    form: str
    exponent: float = 2.0
    base: "GrowthClass | None" = None

    def __post_init__(self):
        if self.form not in _FORMS:
            raise ValidationError(f"unknown growth form {self.form!r}")
        if self.exponent <= 0:
            raise ValidationError("exponent must be positive")
        if self.form == "poly-of" and self.base is None:
            raise ValidationError("poly-of requires a base class")
        if self.form != "poly-of" and self.base is not None:
            raise ValidationError("base only allowed for poly-of")

    @classmethod
    def parse(cls, text: str) -> "GrowthClass":
        """Parse compact notation: log, loglog, polylog, linear, nlogn, poly, polyf:log."""
        t, nesting = text.strip().lower(), 0
        while t.startswith("polyf:"):
            t, nesting = t[len("polyf:") :].strip(), nesting + 1
        if nesting > MAX_POLYF_NESTING:
            raise UnsupportedGrowthClass(f"more than {MAX_POLYF_NESTING} nested polyf: prefixes")
        if t not in _PARSE_ALIASES:
            raise UnsupportedGrowthClass(f"cannot parse growth class {text!r}")
        gc = cls(_PARSE_ALIASES[t])
        for _ in range(nesting):
            gc = cls("poly-of", base=gc)
        return gc

    @property
    def is_family(self) -> bool:
        return self.form == "poly-of" or _FORMS[self.form][2] is not None

    def eval(self, n: float) -> float:
        """Canonical representative value at n (n >= 2)."""
        if n < 2:
            raise NonEvaluable("growth classes are evaluated at n >= 2")
        if self.form == "exp":
            return 2.0**n
        if self.form == "poly-of":
            return self.base.eval(n) ** self.exponent
        a, b, e = self.degree_vector()
        value = float(n) ** a if a else 1.0
        if b:
            value *= _log2(n) ** b
        if e:
            value *= _log2(_log2(n)) ** e
        return value

    def base_class(self) -> "GrowthClass":
        """Underlying single function: poly -> linear, polylog -> log, poly-of -> base."""
        if self.form == "poly-of":
            return self.base
        family_base = _FORMS[self.form][2]
        return GrowthClass(family_base) if family_base else self

    def degree_vector(self) -> "tuple[float, float, float] | None":
        """(n-power, log-power, loglog-power) of the representative, None for exp."""
        _, vec, family_base = _FORMS[self.form]
        if self.form == "poly-of":
            vec = self.base.degree_vector()
        elif family_base is None:
            return vec
        if vec is None:
            return None
        a, b, e = vec
        return (self.exponent * a, self.exponent * b, self.exponent * e)

    def __str__(self) -> str:
        return _FORMS[self.form][0].format(base=self.base)


# ---------------------------------------------------------------------------
# Bound expressions


class Expr:
    """Symbolic expression over growth evaluations, constants, + * / ^k 2^ log2 neg.
    It prints as its class's ``text``, a format string over its fields."""

    text = ""

    def eval(self, n: float) -> float:
        raise NotImplementedError

    def __str__(self):
        return self.text.format(**vars(self))


@dataclass(frozen=True)
class Const(Expr):
    value: float
    text = "{value:g}"

    def eval(self, n: float) -> float:
        return self.value


@dataclass(frozen=True)
class Growth(Expr):
    gc: GrowthClass
    text = "{gc}"

    def eval(self, n: float) -> float:
        return self.gc.eval(n)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr
    text = "({a} + {b})"

    def eval(self, n):
        return self.a.eval(n) + self.b.eval(n)


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr
    text = "({a} * {b})"

    def eval(self, n):
        return self.a.eval(n) * self.b.eval(n)


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr
    text = "({a} / {b})"

    def eval(self, n):
        denom = self.b.eval(n)
        if denom == 0:
            raise NonEvaluable("division by zero in bound expression")
        return self.a.eval(n) / denom


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr
    text = "(-{a})"

    def eval(self, n):
        return -self.a.eval(n)


@dataclass(frozen=True)
class Pow2(Expr):
    a: Expr
    text = "2^({a})"

    def eval(self, n):
        return 2.0 ** self.a.eval(n)


@dataclass(frozen=True)
class Pow(Expr):
    """a^k, k a nonzero integer: a evaluated once, |k| factors of it multiplied left to right, inverted for k < 0."""

    a: Expr
    k: int
    text = "({a})^{k}"

    def eval(self, n):
        base = out = self.a.eval(n)
        for _ in range(abs(self.k) - 1):
            out *= base
        if self.k < 0 and out == 0:
            raise NonEvaluable("division by zero in bound expression")
        return out if self.k > 0 else 1.0 / out


@dataclass(frozen=True)
class Log2(Expr):
    a: Expr
    text = "log2({a})"

    def eval(self, n):
        return _log2(self.a.eval(n))


@dataclass(frozen=True)
class _Monomial:
    """coeff * n^a * (log n)^b * (loglog n)^e * (2^n)^x."""

    coeff: float
    a: float
    b: float
    e: float
    x: float


def _times(ma: _Monomial | None, mb: _Monomial | None, sign: int = 1) -> _Monomial | None:
    """ma * mb (sign 1) or ma / mb (sign -1); None if either is None or divides by 0."""
    if ma is None or mb is None or (sign < 0 and mb.coeff == 0):
        return None
    coeff = ma.coeff * mb.coeff if sign > 0 else ma.coeff / mb.coeff
    return _Monomial(coeff, ma.a + sign * mb.a, ma.b + sign * mb.b, ma.e + sign * mb.e, ma.x + sign * mb.x)


def _monomial_of(expr: Expr) -> _Monomial | None:
    if isinstance(expr, Const):
        return _Monomial(expr.value, 0, 0, 0, 0)
    if isinstance(expr, Growth):
        if expr.gc.form == "exp":
            return _Monomial(1.0, 0, 0, 0, 1)
        vec = expr.gc.degree_vector()
        return None if vec is None else _Monomial(1.0, *vec, 0)
    if isinstance(expr, Neg):
        m = _monomial_of(expr.a)
        return None if m is None else _Monomial(-m.coeff, m.a, m.b, m.e, m.x)
    if isinstance(expr, (Mul, Div)):
        return _times(_monomial_of(expr.a), _monomial_of(expr.b), 1 if isinstance(expr, Mul) else -1)
    if isinstance(expr, Pow):
        base = out = _monomial_of(expr.a)
        for _ in range(abs(expr.k) - 1):
            out = _times(out, base)
        return out if expr.k > 0 else _times(_Monomial(1.0, 0, 0, 0, 0), out, -1)
    if isinstance(expr, Pow2):
        inner = _monomial_of(expr.a)
        if inner is None:
            return None
        # only pure multiples of n (or constants) produce a recognized exponential
        if inner.b == 0 and inner.e == 0 and inner.x == 0:
            if inner.a == 1.0:
                return _Monomial(1.0, 0, 0, 0, inner.coeff)
            if inner.a == 0.0 and inner.coeff < 1024:  # 2.0**1024 overflows
                return _Monomial(2.0**inner.coeff, 0, 0, 0, 0)
        return None
    if isinstance(expr, Log2):
        # log2 of a pure power of n folds to b exponent only for exact n^k
        inner = _monomial_of(expr.a)
        if inner is not None and inner.coeff == 1.0 and inner.a > 0 and inner.b == inner.e == inner.x == 0:
            return _Monomial(inner.a, 0, 1, 0, 0)
    return None


def _lex_positive(v: tuple[float, float, float]) -> bool:
    """Is the first entry that is positive or negative a positive one?"""
    return next((c > 0 for c in v if c > 0 or c < 0), False)


def _lead_level(v: tuple[float, float, float]) -> int:
    """0 for n-order, 1 for log-order, 2 for loglog-order, 3 for constant."""
    return next((i for i, c in enumerate(v) if c != 0), 3)


@dataclass(frozen=True)
class NegligibilityReport:
    verdict: str  # "yes" | "no" | "undecided"
    rule: str
    witness: tuple = ()

    def __bool__(self):
        return self.verdict == "yes"


_GRID = [2**k for k in range(4, 21)]
_GRID_CONSTANTS = (1.0, 10.0, 100.0)


def _numeric_witness(eta: Expr, T: GrowthClass) -> NegligibilityReport:
    rows = []
    for c in _GRID_CONSTANTS:
        for n in _GRID:
            try:
                rows.append((c, n, eta.eval(n) * c * T.eval(n)))
            except (OverflowError, ValueError) as exc:
                raise NonEvaluable(str(exc)) from exc
    note = "grid satisfied eta*c*T < 1" if all(val < 1.0 for _, _, val in rows) else "grid violated eta*c*T < 1"
    return NegligibilityReport("undecided", f"outside rule table; {note}", tuple(rows))


def is_negligible(eta: Expr, T: GrowthClass) -> NegligibilityReport:
    """Decide whether eta shrinks below 1/g for every g in Theta(T).

    Recognized monomial shapes are decided symbolically; sums recurse with the
    additivity rule; everything else returns an undecided verdict carrying the
    numeric witness grid of the whole of eta, evaluated once.
    """
    if not isinstance(eta, Expr):
        raise NonEvaluable("eta must be a bound expression")
    report = _decide(eta, T)
    return _numeric_witness(eta, T) if report is None else report


def _decide(eta: Expr, T: GrowthClass) -> NegligibilityReport | None:
    """is_negligible's symbolic verdict, or None where the rule table cannot decide."""
    if isinstance(eta, Add):
        ra, rb = _decide(eta.a, T), _decide(eta.b, T)
        if ra and rb:  # a report is truthy only when its verdict is "yes"
            return NegligibilityReport("yes", f"additivity: [{ra.rule}] + [{rb.rule}]")
        if any(r is not None and r.verdict == "no" for r in (ra, rb)):
            ma, mb = _monomial_of(eta.a), _monomial_of(eta.b)
            if ma is not None and mb is not None and ma.coeff >= 0 and mb.coeff >= 0:
                return NegligibilityReport("no", "a non-negligible nonnegative term dominates the sum")
        return None

    m = _monomial_of(eta)
    if m is None:
        return None
    if m.coeff == 0:
        return NegligibilityReport("yes", "identically zero")
    if m.coeff < 0:
        return None
    if m.x > 0 or (m.x == 0 and _lex_positive((m.a, m.b, m.e))):
        return NegligibilityReport("no", "eta does not even tend to zero")
    if m.x < 0:
        if T.form == "exp":
            return None
        return NegligibilityReport("yes", "exponential decay beats any sub-exponential class")

    decay = (-m.a, -m.b, -m.e)
    if T.is_family:
        beta = T.base_class().degree_vector()
        if beta is None or not _lex_positive(beta):
            raise UnrecognizedForm(f"family class {T} has no usable base")
        if _lead_level(decay) < _lead_level(beta):
            return NegligibilityReport(
                "yes", f"decay order strictly dominates every power of {T.base_class()}"
            )
        return NegligibilityReport(
            "no", f"a fixed power cannot beat all exponents of {T.base_class()}"
        )

    tvec = T.degree_vector()
    if tvec is None:
        raise UnrecognizedForm(f"class {T} outside the rule table")
    diff = tuple(d - t + 0.0 for d, t in zip(decay, tvec))  # + 0.0 turns -0.0 into 0.0
    if _lex_positive(diff):
        return NegligibilityReport("yes", f"eta * {T} tends to zero (order gap {diff})")
    return NegligibilityReport("no", f"eta * {T} does not tend to zero (order gap {diff})")


# ---------------------------------------------------------------------------
# Closure and repetition consistency


@dataclass(frozen=True)
class RuleReport:
    holds: bool
    rule: str
    counterexample: str | None = None
    witness: tuple = ()

    def __bool__(self):
        return self.holds


def _counterexample_for(T: GrowthClass, R: GrowthClass) -> tuple[str, tuple]:
    """eta = 1/(R_rep * T_rep) is T-negligible, but r * eta lands on 1/T_rep.

    The witness rows evaluate r * eta * T_rep, which the construction pins at
    exactly 1: the repeated bound does not vanish against the class, so the
    closure property fails for this (T, R) combination.
    """
    rows = tuple((n, R.eval(n) * (1.0 / (R.eval(n) * T.eval(n))) * T.eval(n)) for n in (2**6, 2**10, 2**14, 2**18))
    desc = (
        f"eta(n) = 1/({R} * {T}) is negligible for {T} (the 1/({R}) factor keeps "
        f"vanishing against the class), but r(n) * eta(n) = 1/({T}), which the "
        f"class matches instead of dominating"
    )
    return desc, rows


def _repeats_within_poly_base(T: GrowthClass, R: GrowthClass) -> bool:
    """The proved non-constant case: T is a family and R lies in O(poly base of T)."""
    if not T.is_family:
        return False
    base, rvec = T.base_class().degree_vector(), R.base_class().degree_vector()
    return base is not None and rvec is not None and _lead_level(rvec) >= _lead_level(base)


def check_closure(negl_class: GrowthClass, repeats: GrowthClass) -> RuleReport:
    """Closure of the negligible set for T under addition and R-fold repetition.

    Proved cases: plain-function classes with constant repeats, and poly-of
    classes with repeats bounded by a polynomial of the same base. Everything
    else fails with a numeric counterexample sketch.
    """
    if negl_class.form == "exp" or repeats.form == "exp":
        raise UnrecognizedForm("exponential classes are outside the closure rule table")
    additivity = "additivity holds: eta1 + eta2 stays below (c1+c2)/g"
    if repeats.form == "const":
        if negl_class.is_family:
            return RuleReport(True, f"constant repeats lie in O(poly {negl_class.base_class()}); {additivity}")
        return RuleReport(True, f"constant repeats preserve negligibility for {negl_class}; {additivity}")
    if _repeats_within_poly_base(negl_class, repeats):
        return RuleReport(
            True,
            f"repeats in O(poly {negl_class.base_class()}) shift the exponent only; {additivity}",
        )
    desc, rows = _counterexample_for(negl_class, repeats)
    return RuleReport(False, "combination not covered by the proved closure cases", desc, rows)


def check_repetition_consistency(T: GrowthClass, R: GrowthClass) -> RuleReport:
    """Does r(n) * s(n) stay in O(T) for every s in O(T), r in R?"""
    if T.form == "exp" or R.form == "exp":
        raise UnrecognizedForm("exponential classes are outside the consistency rule table")
    if R.form == "const":
        return RuleReport(True, "constant repeat factors never leave O(T)")
    if _repeats_within_poly_base(T, R):
        return RuleReport(True, f"products of poly {T.base_class()} factors stay poly {T.base_class()}")
    rows = tuple((n, R.eval(n) * T.eval(n) / T.eval(n) if T.eval(n) else 0.0) for n in (16, 256, 4096))
    desc = f"r(n) * s(n) with r = {R}, s = {T} grows like {R} * {T}, leaving O({T})"
    return RuleReport(False, "product leaves the class", desc, rows)


# ---------------------------------------------------------------------------
# Resource lower-bound table


TABLE_MEASURES = ("coherence", "entanglement", "magic")
TABLE_CLASSES = ("log", "polylog", "linear", "linearithmic", "poly")


def _omega_margin(g: float) -> float:
    """Finite-n rendering of a strict lower-order bound: one extra log factor."""
    return g * max(1.0, math.log2(max(g, 2.0)))


def table_lower_bound(
    T: GrowthClass,
    measure: str,
    n: int,
    kappa: float = DEFAULT_KAPPA,
    alpha: int = 3,
) -> float:
    """Evaluate the tabulated resource lower bound for a T-limited observer.

    Rows render their asymptotic entries with the constant knob kappa; strict
    lower-order terms carry an extra log factor so the class ordering
    log <= polylog <= linear <= linearithmic <= poly holds at every n >= 16.
    The magic table divides by alpha - 1.
    """
    if measure not in TABLE_MEASURES:
        raise ValidationError(f"measure must be one of {TABLE_MEASURES}")
    if T.form not in TABLE_CLASSES:
        raise UnsupportedGrowthClass(f"table has no row for {T.form}")
    if n < 4:
        raise ValidationError("table evaluation requires n >= 4")
    if not math.isfinite(kappa):
        raise ValidationError(f"kappa must be finite, got {kappa}")
    ln = math.log2(n)
    lln = math.log2(ln)
    value = kappa + {
        "log": lln, "polylog": _omega_margin(lln), "linear": ln, "linearithmic": math.log2(n * ln), "poly": _omega_margin(ln)
    }[T.form]
    if measure == "magic":
        if alpha < 2:
            raise ValidationError("alpha must be >= 2")
        value /= alpha - 1
    return value


# ---------------------------------------------------------------------------
# Parameter advisors for the runtime-bounded constructions


@dataclass(frozen=True)
class SubsetAdvice:
    m: int
    m_exp: int


def advise_subset_size(T: GrowthClass, n: int) -> SubsetAdvice:
    """Concrete subset size inside the validity window for runtime class T.

    m is the smallest power of two at or above f(n) * ceil(log2 n), where f is
    T's base function; the slowly growing log factor realizes the required
    strict dominance of f while keeping desk-scale sizes small. The cap
    m <= 2^{n-1} keeps m well below the full domain.
    """
    if n < 2:
        raise ValidationError("advisors require n >= 2")
    if T.form == "exp":
        raise UnsupportedGrowthClass("no valid subset-size window for exponential runtime")
    target = max(T.base_class().eval(n) * math.ceil(math.log2(n)), 1.0)
    m = min(2 ** (n - 1), 1 << max(0, math.ceil(math.log2(target))))
    return SubsetAdvice(m=m, m_exp=m.bit_length() - 1)


def advise_copies(T: GrowthClass, n: int) -> int:
    """Copy count: the two-copy minimum for plain classes, ceil(f(n)) for
    poly-of-f classes, clipped to the largest count whose exact distance route
    (``symmetry.route_cost``) fits the byte budget. Where two copies do not fit,
    the route's gate (``symmetry.check_route``) raises DimensionCapExceeded."""
    from .symmetry import check_route, route_cost  # numpy-free until it computes
    if n < 2:
        raise ValidationError("advisors require n >= 2")
    if T.form == "exp":
        raise UnsupportedGrowthClass("no valid copy count for exponential runtime")
    raw = max(2, math.ceil(T.base_class().eval(n))) if T.is_family else 2
    t = 2
    check_route("subset", n, t)
    while t < raw and route_cost(n, t + 1)[0] <= mem_cap():
        t += 1
    return t


# ---------------------------------------------------------------------------
# Bound expressions from text

MAX_EXPR_DEPTH = 600  # levels of a parsed expression; eval and is_negligible recurse once per level
_BINARY = {ast.Add: Add, ast.Mult: Mul, ast.Div: Div}


def parse_bound_expr(text: str) -> Expr:
    """Parse a bound expression written as Python arithmetic with ``^`` as the power.

    Accepted: numbers, n, unary minus, + - * /, powers and log2(x). Only base 2
    takes a non-integer exponent (a Pow2 node); any other base needs an integer
    literal k (a Pow node, evaluated as the product of |k| factors). Precedence is
    Python's, so -n^2 is -(n^2) and powers associate to the right.
    """
    try:
        tree = ast.parse(" ".join(text.split()).replace("^", "**"), mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise UnrecognizedForm(f"malformed bound expression ({type(exc).__name__}: {exc})") from None
    return _expr_of(tree.body, 1)


def _number(node: ast.AST) -> float | None:
    if not (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        return None
    try:
        return float(node.value)
    except OverflowError:  # an integer literal past the float range is inf, as float() of its text is
        return math.inf


def _int_power(node: ast.AST) -> int | None:
    """The value of an integer-literal exponent such as 3 or -3, else None."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1
    return sign * node.value if isinstance(node, ast.Constant) and type(node.value) is int else None


def _expr_of(node: ast.AST, depth: int) -> Expr:
    """The expression of one parsed node that sits ``depth`` levels below the root."""
    if depth > MAX_EXPR_DEPTH:
        raise UnrecognizedForm(f"bound expression nests deeper than {MAX_EXPR_DEPTH} levels")
    value = _number(node)
    if value is not None:
        return Const(value)
    if isinstance(node, ast.Name) and node.id == "n":
        return Growth(GrowthClass("linear"))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Neg(_expr_of(node.operand, depth + 1))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "log2":
        if len(node.args) != 1 or node.keywords:
            raise UnrecognizedForm("log2 takes exactly one argument")
        inner = _expr_of(node.args[0], depth + 1)
        if isinstance(inner, Growth) and inner.gc.form == "linear":
            return Growth(GrowthClass("log"))
        return Log2(inner)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return Add(_expr_of(node.left, depth + 1), Neg(_expr_of(node.right, depth + 2)))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_expr_of(node.left, depth + 1), _expr_of(node.right, depth + 1))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        if _number(node.left) == 2.0:
            return Pow2(_expr_of(node.right, depth + 1))
        k = _int_power(node.right)
        if k is None:
            raise UnrecognizedForm("only base 2 takes a non-integer exponent")
        atom = _expr_of(node.left, depth + abs(k) - (k > 0))  # the deepest of |k| factors
        return Const(1.0) if k == 0 else atom if k == 1 else Pow(atom, k)
    raise UnrecognizedForm(f"unsupported term {getattr(node, 'id', type(node).__name__)!r} in bound expression")
