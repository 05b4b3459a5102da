"""Symbolic runtime-growth classes, negligibility rules, and bound expressions.

Asymptotic statements are made decidable through a rule table over recognized
monomial shapes plus a numeric witness grid. Anything outside the table comes
back "undecided" with evidence: numeric evaluation cannot prove asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_KAPPA
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
    "Pow2",
    "Log2",
    "recip",
    "is_negligible",
    "check_closure",
    "check_repetition_consistency",
    "table_lower_bound",
    "parse_bound_expr",
]

PLAIN_FORMS = ("const", "log", "loglog", "linear", "linearithmic")
FAMILY_FORMS = ("polylog", "poly", "poly-of")
ALL_FORMS = PLAIN_FORMS + FAMILY_FORMS + ("exp",)

_PARSE_ALIASES = {
    "const": "const",
    "log": "log",
    "logn": "log",
    "loglog": "loglog",
    "polylog": "polylog",
    "linear": "linear",
    "n": "linear",
    "nlogn": "linearithmic",
    "linearithmic": "linearithmic",
    "poly": "poly",
    "exp": "exp",
}


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
        if self.form not in ALL_FORMS:
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
        t = text.strip().lower()
        if t.startswith("polyf:"):
            return cls("poly-of", base=cls.parse(t.split(":", 1)[1]))
        if t in _PARSE_ALIASES:
            return cls(_PARSE_ALIASES[t])
        raise UnsupportedGrowthClass(f"cannot parse growth class {text!r}")

    @property
    def is_family(self) -> bool:
        return self.form in FAMILY_FORMS

    def eval(self, n: float) -> float:
        """Canonical representative value at n (n >= 2)."""
        if n < 2:
            raise NonEvaluable("growth classes are evaluated at n >= 2")
        if self.form == "const":
            return 1.0
        if self.form == "log":
            return _log2(n)
        if self.form == "loglog":
            return _log2(_log2(n))
        if self.form == "linear":
            return float(n)
        if self.form == "linearithmic":
            return n * _log2(n)
        if self.form == "polylog":
            return _log2(n) ** self.exponent
        if self.form == "poly":
            return float(n) ** self.exponent
        if self.form == "poly-of":
            return self.base.eval(n) ** self.exponent
        if self.form == "exp":
            return 2.0**n
        raise UnsupportedGrowthClass(self.form)

    def base_class(self) -> "GrowthClass":
        """Underlying single function: poly -> linear, polylog -> log, poly-of -> base."""
        if self.form == "poly":
            return GrowthClass("linear")
        if self.form == "polylog":
            return GrowthClass("log")
        if self.form == "poly-of":
            return self.base
        return self

    def degree_vector(self) -> "tuple[float, float, float] | None":
        """(n-power, log-power, loglog-power) of the representative, None for exp."""
        if self.form == "const":
            return (0.0, 0.0, 0.0)
        if self.form == "log":
            return (0.0, 1.0, 0.0)
        if self.form == "loglog":
            return (0.0, 0.0, 1.0)
        if self.form == "linear":
            return (1.0, 0.0, 0.0)
        if self.form == "linearithmic":
            return (1.0, 1.0, 0.0)
        if self.form == "polylog":
            return (0.0, self.exponent, 0.0)
        if self.form == "poly":
            return (self.exponent, 0.0, 0.0)
        if self.form == "poly-of":
            inner = self.base.degree_vector()
            if inner is None:
                return None
            return tuple(self.exponent * v for v in inner)
        return None

    def __str__(self) -> str:
        if self.form == "poly-of":
            return f"poly({self.base})"
        return {
            "const": "O(1)",
            "log": "log n",
            "loglog": "loglog n",
            "polylog": "polylog n",
            "linear": "n",
            "linearithmic": "n log n",
            "poly": "poly n",
            "exp": "2^n",
        }[self.form]


# ---------------------------------------------------------------------------
# Bound expressions


class Expr:
    """Symbolic expression over growth evaluations, constants, + * / 2^ log2 neg."""

    def eval(self, n: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, n: float) -> float:
        return self.value

    def __str__(self):
        return f"{self.value:g}"


@dataclass(frozen=True)
class Growth(Expr):
    gc: GrowthClass

    def eval(self, n: float) -> float:
        return self.gc.eval(n)

    def __str__(self):
        return str(self.gc)


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def eval(self, n):
        return self.a.eval(n) + self.b.eval(n)

    def __str__(self):
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def eval(self, n):
        return self.a.eval(n) * self.b.eval(n)

    def __str__(self):
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def eval(self, n):
        denom = self.b.eval(n)
        if denom == 0:
            raise NonEvaluable("division by zero in bound expression")
        return self.a.eval(n) / denom

    def __str__(self):
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def eval(self, n):
        return -self.a.eval(n)

    def __str__(self):
        return f"(-{self.a})"


@dataclass(frozen=True)
class Pow2(Expr):
    a: Expr

    def eval(self, n):
        return 2.0 ** self.a.eval(n)

    def __str__(self):
        return f"2^({self.a})"


@dataclass(frozen=True)
class Log2(Expr):
    a: Expr

    def eval(self, n):
        return _log2(self.a.eval(n))

    def __str__(self):
        return f"log2({self.a})"


def recip(e) -> Expr:
    return Div(Const(1.0), e if isinstance(e, Expr) else Const(float(e)))


@dataclass(frozen=True)
class _Monomial:
    """coeff * n^a * (log n)^b * (loglog n)^e * (2^n)^x."""

    coeff: float
    a: float
    b: float
    e: float
    x: float

    def decay(self) -> tuple[float, float, float]:
        return (-self.a, -self.b, -self.e)


def _monomial_of(expr: Expr) -> _Monomial | None:
    if isinstance(expr, Const):
        return _Monomial(expr.value, 0, 0, 0, 0)
    if isinstance(expr, Growth):
        if expr.gc.form == "exp":
            return _Monomial(1.0, 0, 0, 0, 1)
        vec = expr.gc.degree_vector()
        if vec is None:
            return None
        return _Monomial(1.0, vec[0], vec[1], vec[2], 0)
    if isinstance(expr, Neg):
        m = _monomial_of(expr.a)
        return None if m is None else _Monomial(-m.coeff, m.a, m.b, m.e, m.x)
    if isinstance(expr, Mul):
        ma, mb = _monomial_of(expr.a), _monomial_of(expr.b)
        if ma is None or mb is None:
            return None
        return _Monomial(ma.coeff * mb.coeff, ma.a + mb.a, ma.b + mb.b, ma.e + mb.e, ma.x + mb.x)
    if isinstance(expr, Div):
        ma, mb = _monomial_of(expr.a), _monomial_of(expr.b)
        if ma is None or mb is None or mb.coeff == 0:
            return None
        return _Monomial(ma.coeff / mb.coeff, ma.a - mb.a, ma.b - mb.b, ma.e - mb.e, ma.x - mb.x)
    if isinstance(expr, Pow2):
        inner = _monomial_of(expr.a)
        if inner is None:
            return None
        # only pure multiples of n (or constants) produce a recognized exponential
        if inner.b == 0 and inner.e == 0 and inner.x == 0:
            if inner.a == 1.0:
                return _Monomial(1.0, 0, 0, 0, inner.coeff)
            if inner.a == 0.0:
                return _Monomial(2.0**inner.coeff, 0, 0, 0, 0)
        return None
    if isinstance(expr, Log2):
        # log2 of a pure power of n folds to b exponent only for exact n^k
        inner = _monomial_of(expr.a)
        if inner is not None and inner.coeff == 1.0 and inner.b == 0 and inner.e == 0 and inner.x == 0:
            if inner.a > 0:
                return _Monomial(inner.a, 0, 1, 0, 0)
        return None
    return None


def _lex_positive(v: tuple[float, float, float]) -> bool:
    for c in v:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def _lead_level(v: tuple[float, float, float]) -> int:
    """0 for n-order, 1 for log-order, 2 for loglog-order, 3 for constant."""
    for i, c in enumerate(v):
        if c != 0:
            return i
    return 3


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
    ok = True
    for c in _GRID_CONSTANTS:
        for n in _GRID:
            try:
                val = eta.eval(n) * c * T.eval(n)
            except NonEvaluable:
                raise
            except (OverflowError, ValueError) as exc:
                raise NonEvaluable(str(exc)) from exc
            if not val < 1.0:
                ok = False
            rows.append((c, n, val))
    note = "grid satisfied eta*c*T < 1" if ok else "grid violated eta*c*T < 1"
    return NegligibilityReport("undecided", f"outside rule table; {note}", tuple(rows))


def is_negligible(eta: Expr, T: GrowthClass) -> NegligibilityReport:
    """Decide whether eta shrinks below 1/g for every g in Theta(T).

    Recognized monomial shapes are decided symbolically; sums recurse with the
    additivity rule; everything else returns an undecided verdict carrying the
    numeric witness grid.
    """
    if not isinstance(eta, Expr):
        raise NonEvaluable("eta must be a bound expression")
    if isinstance(eta, Add):
        ra = is_negligible(eta.a, T)
        rb = is_negligible(eta.b, T)
        if ra.verdict == "yes" and rb.verdict == "yes":
            return NegligibilityReport("yes", f"additivity: [{ra.rule}] + [{rb.rule}]")
        if "no" in (ra.verdict, rb.verdict):
            ma, mb = _monomial_of(eta.a), _monomial_of(eta.b)
            if ma is not None and mb is not None and ma.coeff >= 0 and mb.coeff >= 0:
                return NegligibilityReport("no", "a non-negligible nonnegative term dominates the sum")
        return _numeric_witness(eta, T)

    m = _monomial_of(eta)
    if m is None:
        return _numeric_witness(eta, T)
    if m.coeff == 0:
        return NegligibilityReport("yes", "identically zero")
    if m.coeff < 0:
        return _numeric_witness(eta, T)
    if m.x > 0 or (m.x == 0 and _lex_positive((m.a, m.b, m.e))):
        return NegligibilityReport("no", "eta does not even tend to zero")
    if m.x < 0:
        if T.form == "exp":
            return _numeric_witness(eta, T)
        return NegligibilityReport("yes", "exponential decay beats any sub-exponential class")

    decay = m.decay()
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
    diff = tuple(d - t for d, t in zip(decay, tvec))
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
    rows = []
    for n in (2**6, 2**10, 2**14, 2**18):
        eta = 1.0 / (R.eval(n) * T.eval(n))
        rows.append((n, R.eval(n) * eta * T.eval(n)))
    desc = (
        f"eta(n) = 1/({R} * {T}) is negligible for {T} (the 1/({R}) factor keeps "
        f"vanishing against the class), but r(n) * eta(n) = 1/({T}), which the "
        f"class matches instead of dominating"
    )
    return desc, tuple(rows)


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
    if negl_class.is_family:
        base = negl_class.base_class().degree_vector()
        rvec = repeats.base_class().degree_vector() if repeats.is_family else repeats.degree_vector()
        if base is not None and rvec is not None and _lead_level(rvec) >= _lead_level(base):
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
    if T.is_family:
        base = T.base_class().degree_vector()
        rvec = R.base_class().degree_vector() if R.is_family else R.degree_vector()
        if base is not None and rvec is not None and _lead_level(rvec) >= _lead_level(base):
            return RuleReport(True, f"products of poly {T.base_class()} factors stay poly {T.base_class()}")
    rows = tuple((n, R.eval(n) * T.eval(n) / T.eval(n) if T.eval(n) else 0.0) for n in (16, 256, 4096))
    desc = f"r(n) * s(n) with r = {R}, s = {T} grows like {R} * {T}, leaving O({T})"
    return RuleReport(False, "product leaves the class", desc, rows)


# ---------------------------------------------------------------------------
# Resource lower-bound table


_TABLE_MEASURES = ("coherence", "entanglement", "magic")
_TABLE_CLASSES = ("log", "polylog", "linear", "linearithmic", "poly")


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
    if measure not in _TABLE_MEASURES:
        raise ValidationError(f"measure must be one of {_TABLE_MEASURES}")
    if T.form not in _TABLE_CLASSES:
        raise UnsupportedGrowthClass(f"table has no row for {T.form}")
    if n < 4:
        raise ValidationError("table evaluation requires n >= 4")
    ln = math.log2(n)
    lln = math.log2(ln)
    if T.form == "log":
        value = kappa + lln
    elif T.form == "polylog":
        value = kappa + _omega_margin(lln)
    elif T.form == "linear":
        value = kappa + ln
    elif T.form == "linearithmic":
        value = kappa + math.log2(n * ln)
    else:  # poly
        value = kappa + _omega_margin(ln)
    if measure == "magic":
        if alpha < 2:
            raise ValidationError("alpha must be >= 2")
        value /= alpha - 1
    return value


# ---------------------------------------------------------------------------
# Tiny parser for CLI bound expressions


def parse_bound_expr(text: str) -> Expr:
    """Parse a compact bound expression.

    Grammar: + - * / with parentheses; atoms are numbers, n, log2(expr),
    2^(expr); integer powers expand to repeated products (the expression
    language has no general power operator).
    """
    tokens = _tokenize(text)
    expr, pos = _parse_sum(tokens, 0)
    if pos != len(tokens):
        raise UnrecognizedForm(f"trailing input in expression {text!r}")
    return expr


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/()^":
            out.append(ch)
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            out.append(text[i:j])
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
            continue
        raise UnrecognizedForm(f"unexpected character {ch!r} in expression")
    return out


def _parse_sum(tokens, pos):
    expr, pos = _parse_term(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_term(tokens, pos + 1)
        expr = Add(expr, rhs if op == "+" else Neg(rhs))
    return expr, pos


def _parse_term(tokens, pos):
    expr, pos = _parse_factor(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "*/":
        op = tokens[pos]
        rhs, pos = _parse_factor(tokens, pos + 1)
        expr = Mul(expr, rhs) if op == "*" else Div(expr, rhs)
    return expr, pos


def _parse_factor(tokens, pos):
    atom, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos] == "^":
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            inner, pos = _parse_sum(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise UnrecognizedForm("unbalanced parentheses in exponent")
            pos += 1
            if isinstance(atom, Const) and atom.value == 2.0:
                return Pow2(inner), pos
            raise UnrecognizedForm("parenthesized exponents only allowed on base 2")
        neg = False
        if pos < len(tokens) and tokens[pos] == "-":
            neg = True
            pos += 1
        if pos >= len(tokens):
            raise UnrecognizedForm("dangling exponent")
        tok = tokens[pos]
        pos += 1
        if tok == "n" and isinstance(atom, Const) and atom.value == 2.0:
            inner = Growth(GrowthClass("linear"))
            return Pow2(Neg(inner) if neg else inner), pos
        try:
            power = int(tok)
        except ValueError as exc:
            raise UnrecognizedForm(f"unsupported exponent {tok!r}") from exc
        if neg:
            power = -power
        if power == 0:
            return Const(1.0), pos
        out = atom
        for _ in range(abs(power) - 1):
            out = Mul(out, atom)
        return (recip(out) if power < 0 else out), pos
    return atom, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise UnrecognizedForm("unexpected end of expression")
    tok = tokens[pos]
    if tok == "(":
        inner, pos = _parse_sum(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise UnrecognizedForm("unbalanced parentheses")
        return inner, pos + 1
    if tok == "-":
        inner, pos = _parse_atom(tokens, pos + 1)
        return Neg(inner), pos
    if tok == "n":
        return Growth(GrowthClass("linear")), pos + 1
    if tok == "log2":
        if pos + 1 >= len(tokens) or tokens[pos + 1] != "(":
            raise UnrecognizedForm("log2 requires parentheses")
        inner, pos = _parse_sum(tokens, pos + 2)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise UnrecognizedForm("unbalanced parentheses after log2")
        if isinstance(inner, Growth) and inner.gc.form == "linear":
            return Growth(GrowthClass("log")), pos + 1
        return Log2(inner), pos + 1
    try:
        return Const(float(tok)), pos + 1
    except ValueError as exc:
        raise UnrecognizedForm(f"unknown token {tok!r}") from exc
