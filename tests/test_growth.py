import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.errors import NonEvaluable, UnrecognizedForm, UnsupportedGrowthClass, ValidationError
from tprslab.growth import (
    MAX_EXPR_DEPTH,
    MAX_POLYF_NESTING,
    Add,
    Const,
    Div,
    Growth,
    GrowthClass,
    Log2,
    Mul,
    Neg,
    Pow,
    Pow2,
    check_closure,
    check_repetition_consistency,
    is_negligible,
    parse_bound_expr,
    table_lower_bound,
)

from .util import recip

EXP = GrowthClass.parse("exp")
LINEAR = GrowthClass.parse("linear")
LOG = GrowthClass.parse("log")
NLOGN = GrowthClass.parse("nlogn")
POLY = GrowthClass.parse("poly")
POLYLOG = GrowthClass.parse("polylog")


class TestGrowthClass:
    def test_parse_and_eval(self):
        assert LINEAR.eval(8) == 8
        assert LOG.eval(16) == 4
        assert NLOGN.eval(8) == 24
        assert GrowthClass.parse("loglog").eval(16) == 2
        assert POLYLOG.eval(16) == 16  # representative (log n)^2
        assert GrowthClass.parse("polyf:log").base_class() == LOG

    def test_parse_unknown(self):
        with pytest.raises(UnsupportedGrowthClass):
            GrowthClass.parse("quasipoly")

    def test_family_flags(self):
        assert POLY.is_family and POLYLOG.is_family
        assert not LINEAR.is_family and not NLOGN.is_family

    def test_polyf_nesting_is_bounded(self):
        nested = GrowthClass.parse("polyf:" * MAX_POLYF_NESTING + "log")
        assert nested.degree_vector() == (0.0, 2.0**MAX_POLYF_NESTING, 0.0)
        with pytest.raises(UnsupportedGrowthClass):
            GrowthClass.parse("polyf:" * (MAX_POLYF_NESTING + 1) + "log")


class TestIsNegligible:
    def test_exponential_beats_polylog(self):
        assert is_negligible(Pow2(Neg(Growth(LINEAR))), POLYLOG).verdict == "yes"

    def test_one_over_n_not_linear_negligible(self):
        assert is_negligible(recip(Growth(LINEAR)), LINEAR).verdict == "no"

    def test_one_over_nlogn_is_linear_negligible(self):
        eta = recip(Mul(Growth(LINEAR), Growth(LOG)))
        assert is_negligible(eta, LINEAR).verdict == "yes"

    def test_fixed_power_not_poly_negligible(self):
        eta = recip(Mul(Growth(LINEAR), Growth(LINEAR)))
        assert is_negligible(eta, POLY).verdict == "no"

    def test_one_over_n_is_polylog_negligible(self):
        assert is_negligible(recip(Growth(LINEAR)), POLYLOG).verdict == "yes"

    def test_additivity(self):
        eta = Add(Pow2(Neg(Growth(LINEAR))), recip(Mul(Growth(LINEAR), Growth(LOG))))
        rep = is_negligible(eta, LINEAR)
        assert rep.verdict == "yes"
        assert "additivity" in rep.rule
        # numeric re-check: eta * T must vanish along the grid (a fixed
        # constant cannot be beaten at finite n, so the signature is decay)
        trajectory = [eta.eval(2**k) * LINEAR.eval(2**k) for k in range(4, 21)]
        assert all(a > b for a, b in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] < 0.06

    def test_sum_with_bad_term(self):
        eta = Add(recip(Growth(LINEAR)), Pow2(Neg(Growth(LINEAR))))
        assert is_negligible(eta, LINEAR).verdict == "no"

    def test_unrecognized_returns_undecided_with_witness(self):
        eta = recip(Log2(Add(Growth(LINEAR), Const(1.0))))
        rep = is_negligible(eta, LOG)
        assert rep.verdict == "undecided"
        assert len(rep.witness) > 0

    def test_long_sum_evaluates_one_witness_grid(self):
        # only the whole sum's grid is evaluated, not one per undecided sub-sum
        eta = parse_bound_expr(" + ".join(["1/n"] * 500))
        t0 = time.perf_counter()
        rep = is_negligible(eta, LINEAR)
        assert time.perf_counter() - t0 < 1.0
        assert (rep.verdict, rep.rule) == ("undecided", "outside rule table; grid violated eta*c*T < 1")
        assert rep.witness == tuple((c, n, eta.eval(n) * c * n) for c in (1.0, 10.0, 100.0) for n in (2**k for k in range(4, 21)))

    @pytest.mark.parametrize(
        "text,T,outcome",
        [
            # an undecided term's grid (it overflows under exp) does not pre-empt the other term
            ("2^-n + n", EXP, ("no", "a non-negligible nonnegative term dominates the sum")),
            ("-n + 1", EXP, (UnrecognizedForm, "class 2\\^n outside the rule table")),
            # the whole sum's grid meets the log of a negative value at n = 16 first
            ("-3 + log2(-2^(n*n) + n)", EXP, (NonEvaluable, "log2 of non-positive value")),
            # 2^c overflows a float for a constant c >= 1024: undecided, and the grid reports it
            ("2^(1e300) + n", LINEAR, (NonEvaluable, "out of range")),
        ],
    )
    def test_sum_terms_are_decided_before_the_grid(self, text, T, outcome):
        eta = parse_bound_expr(text)
        if isinstance(outcome[0], str):
            rep = is_negligible(eta, T)
            assert (rep.verdict, rep.rule) == outcome
        else:
            with pytest.raises(outcome[0], match=outcome[1]):
                is_negligible(eta, T)

    def test_zero_function(self):
        assert is_negligible(Const(0.0), POLY).verdict == "yes"

    def test_parser_round_trip(self):
        eta = parse_bound_expr("1/(n*log2(n))")
        assert eta.eval(8) == pytest.approx(1 / 24)
        assert parse_bound_expr("2^(-n)").eval(10) == pytest.approx(2**-10)
        assert parse_bound_expr("1/n^2").eval(4) == pytest.approx(1 / 16)


class TestClosure:
    def test_plain_with_constants_holds(self):
        rep = check_closure(LINEAR, GrowthClass.parse("const"))
        assert rep.holds
        assert "constant repeats" in rep.rule

    def test_poly_f_with_poly_f_holds(self):
        rep = check_closure(GrowthClass.parse("polyf:log"), GrowthClass.parse("polyf:log"))
        assert rep.holds

    def test_poly_with_constants_holds(self):
        assert check_closure(POLY, GrowthClass.parse("const")).holds

    def test_poly_with_log_repeats_holds(self):
        assert check_closure(POLY, LOG).holds

    def test_plain_with_own_class_fails(self):
        rep = check_closure(LINEAR, LINEAR)
        assert not rep.holds
        assert rep.counterexample is not None
        assert len(rep.witness) > 0

    def test_counterexample_is_genuinely_negligible(self):
        # the sketched eta = 1/(r * T) must itself be negligible for T,
        # while r * eta = 1/T is not (plain case: T = R = linear)
        eta = recip(Mul(Growth(LINEAR), Growth(LINEAR)))
        assert is_negligible(eta, LINEAR).verdict == "yes"
        assert is_negligible(Mul(Growth(LINEAR), eta), LINEAR).verdict == "no"
        # family case: T = polylog, R = linear; eta = 1/(n * log^2 n)
        eta_f = recip(Mul(Growth(LINEAR), Growth(POLYLOG)))
        assert is_negligible(eta_f, POLYLOG).verdict == "yes"
        assert is_negligible(Mul(Growth(LINEAR), eta_f), POLYLOG).verdict == "no"
        rep = check_closure(POLYLOG, LINEAR)
        assert not rep.holds
        assert all(abs(v - 1.0) < 1e-9 for _, v in rep.witness)


class TestRepetitionConsistency:
    def test_constants_always_consistent(self):
        for T in (LINEAR, LOG, NLOGN, POLY):
            assert check_repetition_consistency(T, GrowthClass.parse("const")).holds

    def test_poly_f_closed_under_product(self):
        assert check_repetition_consistency(POLY, POLY).holds
        assert check_repetition_consistency(
            GrowthClass.parse("polyf:log"), GrowthClass.parse("polyf:log")
        ).holds

    def test_linear_times_linear_fails(self):
        rep = check_repetition_consistency(LINEAR, LINEAR)
        assert not rep.holds

    def test_log_repeats_break_plain_linear(self):
        assert not check_repetition_consistency(LINEAR, LOG).holds


class TestTableLowerBound:
    def test_linear_coherence_16(self):
        assert table_lower_bound(LINEAR, "coherence", 16) == pytest.approx(5.0)

    def test_log_entanglement_16(self):
        assert table_lower_bound(LOG, "entanglement", 16) == pytest.approx(3.0)

    def test_linearithmic_magic_16(self):
        assert table_lower_bound(NLOGN, "magic", 16, alpha=3) == pytest.approx(3.5)

    def test_magic_divides_by_alpha_minus_one(self):
        for cls in (LOG, LINEAR, POLY):
            coh = table_lower_bound(cls, "coherence", 64)
            assert table_lower_bound(cls, "magic", 64, alpha=3) == pytest.approx(coh / 2)

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize("measure", ["coherence", "entanglement", "magic"])
    def test_monotone_chain(self, n, measure):
        order = ["log", "polylog", "linear", "linearithmic", "poly"]
        vals = [table_lower_bound(GrowthClass.parse(c), measure, n, alpha=3) for c in order]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_unsupported_class(self):
        with pytest.raises(UnsupportedGrowthClass):
            table_lower_bound(GrowthClass.parse("const"), "coherence", 16)

    def test_kappa_knob(self):
        assert table_lower_bound(LINEAR, "coherence", 16, kappa=2.0) == pytest.approx(6.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_kappa_must_be_finite(self, kappa):
        with pytest.raises(ValidationError, match="kappa must be finite"):
            table_lower_bound(LINEAR, "coherence", 16, kappa=kappa)


CLASSES = ("const", "log", "loglog", "polylog", "linear", "nlogn", "poly", "exp")
GROWS = ("no", "eta does not even tend to zero")
VIOLATED = ("undecided", "outside rule table; grid violated eta*c*T < 1")
SATISFIED = ("undecided", "outside rule table; grid satisfied eta*c*T < 1")
SUM_GROWS = ("no", "a non-negligible nonnegative term dominates the sum")
EXP_DECAY = ("yes", "exponential decay beats any sub-exponential class")
CONSTANT = (
    ("no", "eta * O(1) does not tend to zero (order gap (0.0, 0.0, 0.0))"),
    ("no", "eta * log n does not tend to zero (order gap (0.0, -1.0, 0.0))"),
    ("no", "eta * loglog n does not tend to zero (order gap (0.0, 0.0, -1.0))"),
    ("no", "a fixed power cannot beat all exponents of log n"),
    ("no", "eta * n does not tend to zero (order gap (-1.0, 0.0, 0.0))"),
    ("no", "eta * n log n does not tend to zero (order gap (-1.0, -1.0, 0.0))"),
    ("no", "a fixed power cannot beat all exponents of n"),
    "UnrecognizedForm",
)

# One expression per production of the --eta grammar: eval at n = 4, 16 and
# 1024, then the is_negligible (verdict, rule), or the name of the raised
# error, for each of CLASSES. Recorded from the hand-written recursive-descent
# parser that the ast walk replaced.
PRODUCTIONS = [
    ("3", (3.0, 3.0, 3.0), CONSTANT),
    ("0.5", (0.5, 0.5, 0.5), CONSTANT),
    ("n", (4.0, 16.0, 1024.0), (GROWS,) * 8),
    ("-n", (-4.0, -16.0, -1024.0), (SATISFIED,) * 7 + ("NonEvaluable",)),
    ("n + 1", (5.0, 17.0, 1025.0), (SUM_GROWS,) * 7 + ("UnrecognizedForm",)),
    ("n - 1", (3.0, 15.0, 1023.0), (VIOLATED,) * 7 + ("NonEvaluable",)),
    ("2 * n", (8.0, 32.0, 2048.0), (GROWS,) * 8),
    ("1 / n", (0.25, 0.0625, 0.0009765625), (
        ("yes", "eta * O(1) tends to zero (order gap (1.0, 0.0, 0.0))"),
        ("yes", "eta * log n tends to zero (order gap (1.0, -1.0, 0.0))"),
        ("yes", "eta * loglog n tends to zero (order gap (1.0, 0.0, -1.0))"),
        ("yes", "decay order strictly dominates every power of log n"),
        ("no", "eta * n does not tend to zero (order gap (0.0, 0.0, 0.0))"),
        ("no", "eta * n log n does not tend to zero (order gap (0.0, -1.0, 0.0))"),
        ("no", "a fixed power cannot beat all exponents of n"),
        "UnrecognizedForm",
    )),
    ("(n + 1) * n", (20.0, 272.0, 1049600.0), (VIOLATED,) * 7 + ("NonEvaluable",)),
    ("n^3", (64.0, 4096.0, 1073741824.0), (GROWS,) * 8),
    ("n^-2", (0.0625, 0.00390625, 9.5367431640625e-07), (
        ("yes", "eta * O(1) tends to zero (order gap (2.0, 0.0, 0.0))"),
        ("yes", "eta * log n tends to zero (order gap (2.0, -1.0, 0.0))"),
        ("yes", "eta * loglog n tends to zero (order gap (2.0, 0.0, -1.0))"),
        ("yes", "decay order strictly dominates every power of log n"),
        ("yes", "eta * n tends to zero (order gap (1.0, 0.0, 0.0))"),
        ("yes", "eta * n log n tends to zero (order gap (1.0, -1.0, 0.0))"),
        ("no", "a fixed power cannot beat all exponents of n"),
        "UnrecognizedForm",
    )),
    ("n^0", (1.0, 1.0, 1.0), CONSTANT),
    ("2^n", (16.0, 65536.0, "OverflowError"), (GROWS,) * 8),
    ("2^-n", (0.0625, 1.52587890625e-05, 5.562684646268003e-309), (EXP_DECAY,) * 7 + ("NonEvaluable",)),
    ("2^(n / 2)", (4.0, 256.0, 1.3407807929942597e154), (GROWS,) * 8),
    ("log2(n)", (2.0, 4.0, 10.0), (GROWS,) * 8),
    ("log2(n + 1)", (2.321928094887362, 4.087462841250339, 10.001408194392809), (VIOLATED,) * 7 + ("NonEvaluable",)),
]


def _outcome(fn):
    """fn()'s value, (verdict, rule) for a negligibility report, or the name of the error it raises."""
    try:
        got = fn()
    except Exception as exc:
        return type(exc).__name__
    return (got.verdict, got.rule) if hasattr(got, "verdict") else got


class TestBoundGrammar:
    @pytest.mark.parametrize("text,values,reports", PRODUCTIONS, ids=[p[0] for p in PRODUCTIONS])
    def test_production(self, text, values, reports):
        eta = parse_bound_expr(text)
        assert tuple(_outcome(lambda: eta.eval(n)) for n in (4, 16, 1024)) == values
        assert tuple(_outcome(lambda: is_negligible(eta, GrowthClass.parse(c))) for c in CLASSES) == reports

    @pytest.mark.parametrize(
        "text,value",
        [("-n^2", -16.0), ("-log2(n)^2", -4.0), ("1/-n^2", -0.0625), ("(-n)^2", 16.0), ("--n^2", 16.0), ("-2^n", -16.0)],
    )
    def test_unary_minus_binds_looser_than_power(self, text, value):
        assert parse_bound_expr(text).eval(4) == value

    @pytest.mark.parametrize(
        "text,value",
        [("1e-3", 0.001), ("2^-(n)", 0.0625), ("n^(2)", 16.0), ("n^(-2)", 0.0625), ("2^2^n", 65536.0), ("n**2", 16.0)],
    )
    def test_python_arithmetic_is_accepted(self, text, value):
        assert parse_bound_expr(text).eval(4) == value

    @pytest.mark.parametrize(
        "text", ["n^2.5", "3^n", "n^n", "x", "+n", "n % 2", "n // 2", "log2(n, 2)", "log2()", "True", "1j", "(n, n)", "2n", ""]
    )
    def test_outside_the_grammar_is_rejected(self, text):
        with pytest.raises(UnrecognizedForm):
            parse_bound_expr(text)

    @pytest.mark.parametrize(
        "base,reports",
        [
            ("log2(n + 1)", (VIOLATED,) * 7 + ("NonEvaluable",)),
            ("n", (GROWS,) * 8),
            ("1/n", (
                ("yes", "eta * O(1) tends to zero (order gap (1099511627776.0, 0.0, 0.0))"),
                ("yes", "eta * log n tends to zero (order gap (1099511627776.0, -1.0, 0.0))"),
                ("yes", "eta * loglog n tends to zero (order gap (1099511627776.0, 0.0, -1.0))"),
                ("yes", "decay order strictly dominates every power of log n"),
                ("yes", "eta * n tends to zero (order gap (1099511627775.0, 0.0, 0.0))"),
                ("yes", "eta * n log n tends to zero (order gap (1099511627775.0, -1.0, 0.0))"),
                ("no", "a fixed power cannot beat all exponents of n"),
                "UnrecognizedForm",
            )),
        ],
    )
    def test_forty_nested_squarings_take_linear_work(self, base, reports):
        # a power is one node that reads its base once; expanded, the text has 2^40 leaves
        text = base
        for _ in range(40):
            text = f"({text})^2"
        t0 = time.perf_counter()
        eta = parse_bound_expr(text)
        got = tuple(_outcome(lambda: is_negligible(eta, GrowthClass.parse(c))) for c in CLASSES)
        assert time.perf_counter() - t0 < 1.0
        assert got == reports

    def test_first_power_is_its_base(self):
        # so the rule table still reads a sum raised to the power 1 term by term
        eta = parse_bound_expr("(1/n + 2^-n)^1")
        assert eta == parse_bound_expr("1/n + 2^-n")
        assert is_negligible(eta, LOG).rule.startswith("additivity: ")

    def test_depth_is_bounded(self):
        deepest = parse_bound_expr("*".join(["n"] * MAX_EXPR_DEPTH))
        assert deepest.eval(2) == 2.0**MAX_EXPR_DEPTH
        assert is_negligible(deepest, LINEAR).verdict == "no"
        assert parse_bound_expr(f"n^{MAX_EXPR_DEPTH}").eval(2) == 2.0**MAX_EXPR_DEPTH
        for text in ("*".join(["n"] * (MAX_EXPR_DEPTH + 1)), f"n^{MAX_EXPR_DEPTH + 1}", "n^-10000000000", "(" * 3000 + "n" + ")" * 3000):
            with pytest.raises(UnrecognizedForm):
                parse_bound_expr(text)


# constants that print exactly with Const's "%g"
_NUMBERS = st.one_of(st.integers(0, 20).map(float), st.sampled_from([0.5, 0.25, 1.5]))
_LEAVES = _NUMBERS.map(Const) | st.just(Growth(LINEAR))
_EXPRS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Add, sub, sub),
        st.builds(Mul, sub, sub),
        st.builds(Div, sub, sub),
        st.builds(Neg, sub),
        st.builds(Pow, sub, st.sampled_from([-3, -2, -1, 1, 2, 3])),
        st.builds(Pow2, sub),
        st.builds(Log2, sub),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_EXPRS)
def test_printed_expression_parses_back_to_the_same_values(expr):
    back = parse_bound_expr(str(expr))
    for n in (2, 3, 16, 1024):
        assert repr(_outcome(lambda: back.eval(n))) == repr(_outcome(lambda: expr.eval(n)))
