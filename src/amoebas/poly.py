"""Sparse Laurent polynomials over the Gaussian rationals.

A polynomial in n variables is a map from exponent vectors (tuples of n
signed integers, negative entries giving Laurent terms) to nonzero
:class:`~amoebas.gaussian.GaussianRational` coefficients, and
``LaurentPoly(n, terms)`` takes that map (int and Fraction coefficients are
coerced, zero ones dropped). The zero polynomial is the empty map. Every
operation prunes exact cancellations, so two polynomials are equal iff their
term maps are equal.

Text format, whitespace insignificant::

    expression := ['-'] term (('+'|'-') term)*
    term       := [coef '*'] monomial | coef
    coef       := rational | '(' rational ('+'|'-') rational 'i' ')'
    rational   := integer ['/' positive-integer]
    monomial   := var ['^' integer] ('*' var ['^' integer])*
    var        := 'z' index                                  (z1 ... zn)

Printing walks terms in graded lexicographic order, highest first. Real
coefficients print bare ("-4*z1^2", "3/2*z2"), complex ones parenthesized
("(5+1i)*z1^3"), unit coefficients drop to a sign.

Multiplication clears denominators first and convolves plain integers, so
the hot loop never touches Fraction normalization; coefficients are rebuilt
once per distinct output exponent, without a gcd when the denominator is 1.
The cyclic-resultant fold starts from the same integer form but squares with
its own kernel, on each step's dense slot box or on packed exponent keys
(``cycres``); ``mul`` stays the independent arithmetic the fold is checked
against.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from typing import Mapping

from .gaussian import GaussianRational

ExponentVector = tuple[int, ...]


class ParseError(ValueError):
    """Raised for malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _grade_key(exponent: ExponentVector) -> tuple:
    return (sum(exponent), exponent)


class LaurentPoly:
    """Immutable sparse Laurent polynomial.

    ``terms`` maps exponent vectors of length ``nvars`` to nonzero
    coefficients. Treat both as read-only; share instances freely.
    """

    __slots__ = ("nvars", "terms")

    nvars: int
    terms: dict[ExponentVector, GaussianRational]

    def __init__(
        self,
        nvars: int,
        terms: Mapping[ExponentVector, GaussianRational | int | Fraction] = {},
    ):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        self.nvars = nvars
        table: dict[ExponentVector, GaussianRational] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != nvars or not all(isinstance(e, int) for e in exponent):
                raise ValueError(f"exponent {exponent!r} is not a length-{nvars} integer vector")
            coeff = GaussianRational.coerce(coeff)
            if not coeff.is_zero:
                table[exponent] = coeff
        self.terms = table

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value: GaussianRational | int | Fraction) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: value})

    # -- inspection -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Largest exponent sum over the support (Laurent terms included)."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def exponent_range(self, var: int) -> tuple[int, int]:
        """(min, max) exponent of variable ``var`` (1-based) over the support."""
        if not 1 <= var <= self.nvars:
            raise ValueError(f"variable index {var} out of range 1..{self.nvars}")
        if not self.terms:
            raise ValueError("the zero polynomial has no exponent range")
        column = [e[var - 1] for e in self.terms]
        return min(column), max(column)

    def sorted_terms(self) -> list[tuple[ExponentVector, GaussianRational]]:
        """Terms in graded lexicographic order, highest first (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: _grade_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable dict inside

    def __repr__(self):
        text = format_poly(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"LaurentPoly({self.nvars}, {text!r})"

    # -- arithmetic ------------------------------------------------------

    def __sub__(self, other):
        if isinstance(other, LaurentPoly):
            return add(self, other.__neg__())
        return NotImplemented

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})


# -- addition ------------------------------------------------------------


def add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.nvars != q.nvars:
        raise ValueError("mismatched variable counts")
    out = dict(p.terms)
    for e, c in q.terms.items():
        prev = out.get(e)
        if prev is None:
            out[e] = c
        else:
            merged = prev + c
            if merged.is_zero:
                del out[e]
            else:
                out[e] = merged
    result = LaurentPoly(p.nvars)
    result.terms.update(out)
    return result


# -- integer multiplication kernel ----------------------------------------
#
# _int_form / _content_reduce / _from_int_form are shared with the
# cyclic-resultant module, which packs the integer form's exponents into
# keys, squares on them and only rebuilds Fractions at the very end.
# _mul_int is mul's alone: the fold never calls it, so the references the
# fold is checked against share none of its squaring.


def _int_form(p: LaurentPoly) -> tuple[int, dict[ExponentVector, tuple[int, int]]]:
    """(common denominator, {exponent: (re, im) integer numerators})."""
    den = 1
    for c in p.terms.values():
        den = math.lcm(den, c.re.denominator, c.im.denominator)
    table: dict[ExponentVector, tuple[int, int]] = {}
    for e, c in p.terms.items():
        a = c.re.numerator * (den // c.re.denominator)
        b = c.im.numerator * (den // c.im.denominator)
        table[e] = (a, b)
    return den, table


def _mul_int(
    t1: dict[ExponentVector, tuple[int, int]],
    t2: dict[ExponentVector, tuple[int, int]],
) -> dict[ExponentVector, tuple[int, int]]:
    """Convolve integer-pair term maps; zero pairs are pruned."""
    items2 = list(t2.items())
    if not any(b for table in (t1, t2) for _, b in table.values()):
        acc: dict[ExponentVector, int] = {}
        get = acc.get
        for e1, (a1, _) in t1.items():
            for e2, (a2, _) in items2:
                e = tuple(map(int.__add__, e1, e2))
                acc[e] = get(e, 0) + a1 * a2
        return {e: (a, 0) for e, a in acc.items() if a}
    accg: dict[ExponentVector, list[int]] = {}
    for e1, (a1, b1) in t1.items():
        for e2, (a2, b2) in items2:
            e = tuple(map(int.__add__, e1, e2))
            ar = a1 * a2 - b1 * b2
            ai = a1 * b2 + b1 * a2
            slot = accg.get(e)
            if slot is None:
                accg[e] = [ar, ai]
            else:
                slot[0] += ar
                slot[1] += ai
    return {e: (a, b) for e, (a, b) in accg.items() if a or b}


def _content_reduce(
    den: int, table: dict[ExponentVector, tuple[int, int]]
) -> tuple[int, dict[ExponentVector, tuple[int, int]]]:
    """Cancel the gcd shared by the denominator and every numerator."""
    if den == 1 or not table:
        return den, table
    g = den
    for a, b in table.values():
        g = math.gcd(g, a, b)
        if g == 1:
            return den, table
    return den // g, {e: (a // g, b // g) for e, (a, b) in table.items()}


def _from_int_form(
    nvars: int, den: int, table: dict[ExponentVector, tuple[int, int]]
) -> LaurentPoly:
    result = LaurentPoly(nvars)
    out = result.terms
    if den == 1:
        for e, (a, b) in table.items():
            out[e] = GaussianRational(a, b)
        return result
    for e, (a, b) in table.items():
        out[e] = GaussianRational(Fraction(a, den), Fraction(b, den))
    return result


def mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.nvars != q.nvars:
        raise ValueError("mismatched variable counts")
    if p.is_zero or q.is_zero:
        return LaurentPoly(p.nvars)
    d1, t1 = _int_form(p)
    d2, t2 = _int_form(q)
    if len(t2) > len(t1):
        t1, t2 = t2, t1
    acc = _mul_int(t1, t2)
    return _from_int_form(p.nvars, d1 * d2, acc)


# -- structural operations -------------------------------------------------


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Quotient p/q when the division is exact; raises ValueError otherwise.

    Graded-lex leading-term elimination. The order is multiplication
    invariant on Laurent monomials, so when q divides p the loop produces
    one quotient term per step; a lower bound from the trailing terms cuts
    off non-exact inputs, which would otherwise descend forever.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.nvars != q.nvars:
        raise ValueError("mismatched variable counts")
    if p.is_zero:
        return LaurentPoly(p.nvars)

    q_lead = max(q.terms, key=_grade_key)
    q_lead_coeff = q.terms[q_lead]
    q_items = list(q.terms.items())

    p_low = min(p.terms, key=_grade_key)
    q_low = min(q.terms, key=_grade_key)
    low_bound = _grade_key(tuple(a - b for a, b in zip(p_low, q_low)))

    rem = dict(p.terms)
    quo: dict[ExponentVector, GaussianRational] = {}
    while rem:
        e = max(rem, key=_grade_key)
        t_exp = tuple(a - b for a, b in zip(e, q_lead))
        if _grade_key(t_exp) < low_bound:
            raise ValueError("not an exact division")
        t_coeff = rem[e] / q_lead_coeff
        quo[t_exp] = t_coeff
        for e2, c2 in q_items:
            target = tuple(a + b for a, b in zip(t_exp, e2))
            prev = rem.get(target)
            delta = t_coeff * c2
            if prev is None:
                rem[target] = -delta
            else:
                merged = prev - delta
                if merged.is_zero:
                    del rem[target]
                else:
                    rem[target] = merged
    result = LaurentPoly(p.nvars)
    result.terms.update(quo)
    return result


# -- parsing ---------------------------------------------------------------

_TOKEN_RE = _re.compile(r"\s*(?:(\d+)|(z\d+)|([i*^()/+-])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # only trailing whitespace remains
            break
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nvars = nvars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_integer(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.expect("int")
        return sign * int(tok[1])

    def parse_rational(self) -> Fraction:
        num = self.parse_integer()
        if self.peek()[0] == "/":
            self.take()
            tok = self.expect("int")
            den = int(tok[1])
            if den == 0:
                raise ParseError("zero denominator", tok[2])
            return Fraction(num, den)
        return Fraction(num)

    def parse_coef(self) -> GaussianRational:
        if self.peek()[0] == "(":
            self.take()
            re_part = self.parse_rational()
            sign_tok = self.take()
            if sign_tok[0] not in "+-":
                raise ParseError("expected '+' or '-' in complex coefficient", sign_tok[2])
            im_part = self.parse_rational()
            if sign_tok[0] == "-":
                im_part = -im_part
            self.expect("i")
            self.expect(")")
            return GaussianRational(re_part, im_part)
        return GaussianRational(self.parse_rational())

    def parse_var_factor(self) -> tuple[int, int]:
        tok = self.expect("var")
        index = int(tok[1][1:])
        if not 1 <= index <= self.nvars:
            raise ParseError(f"variable index out of range: {tok[1]} with nvars={self.nvars}", tok[2])
        exponent = 1
        if self.peek()[0] == "^":
            self.take()
            exponent = self.parse_integer()
        return index - 1, exponent

    def parse_monomial(self) -> ExponentVector:
        exps = [0] * self.nvars
        index, exponent = self.parse_var_factor()
        exps[index] += exponent
        while self.peek()[0] == "*" and self.tokens[self.i + 1][0] == "var":
            self.take()
            index, exponent = self.parse_var_factor()
            exps[index] += exponent
        return tuple(exps)

    def parse_term(self) -> tuple[ExponentVector, GaussianRational]:
        kind = self.peek()[0]
        if kind == "var":
            return self.parse_monomial(), GaussianRational(1)
        if kind in ("int", "("):
            coeff = self.parse_coef()
            if self.peek()[0] == "*":
                self.take()
                return self.parse_monomial(), coeff
            return (0,) * self.nvars, coeff
        tok = self.peek()
        raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])

    def parse_expression(self) -> dict[ExponentVector, GaussianRational]:
        acc: dict[ExponentVector, GaussianRational] = {}
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        elif self.peek()[0] == "+":
            self.take()
        while True:
            exponent, coeff = self.parse_term()
            if sign < 0:
                coeff = -coeff
            prev = acc.get(exponent)
            merged = coeff if prev is None else prev + coeff
            if merged.is_zero:
                acc.pop(exponent, None)
            else:
                acc[exponent] = merged
            tok = self.take()
            if tok[0] == "end":
                return acc
            if tok[0] == "+":
                sign = 1
            elif tok[0] == "-":
                sign = -1
            else:
                raise ParseError(f"expected '+', '-' or end of input, found {tok[1]!r}", tok[2])


def parse(text: str, nvars: int) -> LaurentPoly:
    """Parse the textual format described in the module docstring."""
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    if not text.strip():
        raise ParseError("empty input", 0)
    terms = _Parser(text, nvars).parse_expression()
    result = LaurentPoly(nvars)
    result.terms.update(terms)
    return result


def max_variable_index(text: str) -> int:
    """Largest z-index mentioned; 1 if none. Used to infer nvars in the CLI."""
    indices = [int(m.group(1)) for m in _re.finditer(r"z(\d+)", text)]
    return max(indices, default=1)


# -- printing ----------------------------------------------------------------


def _format_monomial(exponent: ExponentVector, var: str = "z") -> str:
    """var1^e1*var2^e2*..., skipping zero exponents; "" for the constant."""
    factors = []
    for i, e in enumerate(exponent):
        if e == 0:
            continue
        factors.append(f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}")
    return "*".join(factors)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: graded-lex descending, parse round-trips exactly.

    Each coefficient part prints as ``Fraction`` prints it, "n" or
    "n/d", from its numerator and denominator.
    """
    pieces = []
    for exponent, coeff in p.sorted_terms():
        mono = _format_monomial(exponent)
        re, im = coeff.re, coeff.im
        if im:
            text = f"({re}{'+' if im > 0 else ''}{im}i)"
            pieces.append(f"+{text}*{mono}" if mono else "+" + text)
            continue
        num, den = re.numerator, re.denominator
        sign = "-" if num < 0 else "+"
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            pieces.append(sign + mag)
        elif mag == "1":
            pieces.append(sign + mono)
        else:
            pieces.append(f"{sign}{mag}*{mono}")
    return "".join(pieces).removeprefix("+") or "0"
