"""Sparse multivariate polynomials: evaluation, gradients, Hessians.

A polynomial is a finite sum of monomials ``coefficient * x1^e1 * ... * xn^en``
stored as an exponent-vector -> coefficient map.  Terms are kept in a fixed
graded-lexicographic order so that evaluation is a deterministic, bit
reproducible sum.

Evaluation runs compiled kernels: straight-line Python functions generated
from the ordered terms, one ``total += c * x0 ** e0 * ...`` statement per
term.  The value kernel is compiled on the first ``evaluate``; the gradient
and Hessian kernels together on the first ``gradient`` or ``hessian_rows``,
from the symbolic partial derivatives.  Each term multiplies its coefficient
by ``x_i ** e_i`` for the variables it uses, in index order, and the sum
starts from 0.0 in graded-lex order, so the arithmetic is that of a plain
loop over the terms.  Coefficients are bound as names in the kernel's
namespace, never written into its source, so they stay exact.

``kkt_kernels()`` compiles, on first use, the two kernels of the projection's
one-constraint KKT Newton solve, cached with the others.  ``kkt_state(point,
y, lam)`` returns the stationarity vector ``(y_i - point_i) + lam * g_i``,
g(y), grad g(y) and ``sqrt((0.0 + s_0 * s_0 + ...) + v * v)``;
``kkt_system(y, lam, stat, v, grad)`` returns the bordered KKT matrix, with
entries ``0.0 + lam * h_ij`` of the Hessian's upper triangle, mirrored, plus
1.0 on the diagonal, then the gradient column and row, and the right-hand
side ``[-stat_i..., -v]``.  Their value, gradient and Hessian sums are those
of the single kernels, so both agree bit for bit with composing
``evaluate``, ``gradient`` and ``hessian_rows``.

Instances are immutable after construction and safe to share across
threads.  The kernel cache is filled lazily; two threads may both compile a
kernel, and whichever store lands last is kept, which is benign because the
kernels are equal pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

Exponents = Tuple[int, ...]


@dataclass(frozen=True)
class Monomial:
    """One term of a sparse polynomial.

    ``exponents`` has one non-negative integer per variable; ``coefficient``
    must be finite.
    """

    exponents: Exponents
    coefficient: float

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)
        c = float(self.coefficient)
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r}")
        object.__setattr__(self, "coefficient", c)

    @property
    def degree(self) -> int:
        return sum(self.exponents)


def _grlex_key(exps: Exponents):
    return (sum(exps), exps)


def _names(prefix: str, n: int) -> str:
    """``"p0, p1, "`` for prefix p and n = 2: a tuple body that also unpacks."""
    return "".join(f"{prefix}{i}, " for i in range(n))


def _compile(dimension: int, sums, result: str, args: str = "x", body=()):
    """Compile ``kernel(args)``: unpack x into x0, x1, ..., accumulate each
    ``(name, ordered terms)`` of ``sums`` from 0.0, one statement per term,
    run the statements of ``body`` and return the expression ``result``."""
    namespace = {"__builtins__": {}, "sqrt": math.sqrt}
    lines = [f"def kernel({args}):", f"    {_names('x', dimension)}= x"]
    for name, terms in sums:
        lines.append(f"    {name} = 0.0")
        for exps, coeff in terms:
            c = f"c{len(namespace)}"
            namespace[c] = coeff
            # x ** 1 == x exactly, so the factor is the variable itself
            factors = "".join(
                f" * x{i}" if e == 1 else f" * x{i} ** {e}" for i, e in enumerate(exps) if e
            )
            lines.append(f"    {name} += {c}{factors}")
    lines += [f"    {statement}" for statement in body]
    lines.append(f"    return {result}")
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


class _Kernels:
    """The compiled kernels of one polynomial, each None until first use."""

    __slots__ = ("value", "gradient", "hessian_rows", "kkt_state", "kkt_system")

    def __init__(self):
        self.value = self.gradient = self.hessian_rows = None
        self.kkt_state = self.kkt_system = None


class Polynomial:
    """Immutable sparse polynomial in ``dimension`` real variables.

    Construct from a mapping of exponent tuples to coefficients, or from an
    iterable of :class:`Monomial`.  Duplicate exponent vectors are merged by
    summation; exact-zero coefficients are dropped, so the zero polynomial
    has no terms (and degree 0 by convention).
    """

    __slots__ = ("dimension", "_terms", "_ordered", "_kernels")

    def __init__(
        self,
        dimension: int,
        terms: Union[Mapping[Exponents, float], Iterable[Monomial], None] = None,
    ):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        merged: dict = {}
        if terms is not None:
            items: Iterable
            if isinstance(terms, Mapping):
                items = (Monomial(e, c) for e, c in terms.items())
            else:
                items = terms
            for mono in items:
                if not isinstance(mono, Monomial):
                    mono = Monomial(*mono)
                if len(mono.exponents) != dimension:
                    raise ValueError(
                        f"exponent vector {mono.exponents} has length "
                        f"{len(mono.exponents)}, expected {dimension}"
                    )
                merged[mono.exponents] = merged.get(mono.exponents, 0.0) + mono.coefficient
        object.__setattr__(self, "dimension", dimension)
        cleaned = {e: c for e, c in merged.items() if c != 0.0}
        object.__setattr__(self, "_terms", cleaned)
        ordered = tuple(sorted(cleaned.items(), key=lambda item: _grlex_key(item[0])))
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(self, "_kernels", _Kernels())

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # rebuilt from the terms; the compiled kernels are not copied but
        # recompiled on first use
        return (Polynomial, (self.dimension, dict(self._ordered)))

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Tuple[Monomial, ...]:
        return tuple(Monomial(e, c) for e, c in self._ordered)

    def degree(self) -> int:
        if not self._ordered:
            return 0
        return max(sum(e) for e, _ in self._ordered)

    def is_zero(self) -> bool:
        return not self._ordered

    def __repr__(self):
        if not self._ordered:
            return f"Polynomial({self.dimension}, 0)"
        parts = " + ".join(f"{c:g}*x^{list(e)}" for e, c in self._ordered)
        return f"Polynomial({self.dimension}, {parts})"

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dimension == other.dimension
            and self._ordered == other._ordered
        )

    def __hash__(self):
        return hash((self.dimension, self._ordered))

    # -- differentiation ---------------------------------------------------

    def partial(self, var: int) -> "Polynomial":
        """Partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.dimension:
            raise ValueError(f"variable index {var} out of range")
        out = {}
        for e, c in self._terms.items():
            k = e[var]
            if k == 0:
                continue
            de = e[:var] + (k - 1,) + e[var + 1 :]
            out[de] = out.get(de, 0.0) + c * k
        return Polynomial(self.dimension, out)

    # -- evaluation --------------------------------------------------------

    def _check_point(self, x: Sequence[float]):
        if len(x) != self.dimension:
            raise ValueError(
                f"point has length {len(x)}, polynomial dimension is {self.dimension}"
            )

    def evaluate(self, x: Sequence[float]) -> float:
        """Value at ``x``; terms are summed in canonical graded-lex order."""
        if len(x) != self.dimension:
            self._check_point(x)
        return (self._kernels.value or self._compile_value())(x)

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an ``(N, n)`` array of points."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(f"expected (N, {self.dimension}) array")
        kernel = self._kernels.value or self._compile_value()
        # the kernel sums columns; adding zeros broadcasts the zero polynomial's 0.0
        return np.zeros(points.shape[0]) + kernel(points.T)

    def gradient(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Gradient at ``x`` from symbolically differentiated terms."""
        self._check_point(x)
        return (self._kernels.gradient or self._compile_derivatives().gradient)(x)

    def hessian_rows(self, x: Sequence[float]) -> list:
        """Hessian at ``x`` as nested lists, exactly symmetric by mirroring."""
        self._check_point(x)
        return (self._kernels.hessian_rows or self._compile_derivatives().hessian_rows)(x)

    def _compile_value(self):
        self._kernels.value = _compile(self.dimension, [("v", self._ordered)], "v")
        return self._kernels.value

    def kkt_kernels(self) -> _Kernels:
        """The kernels with the one-constraint KKT Newton pair compiled:
        ``kkt_state(point, y, lam)`` and ``kkt_system(y, lam, stat, v, grad)``
        (see the module docstring)."""
        kernels = self._kernels
        return kernels if kernels.kkt_system is not None else self._compile_kkt()

    def _derivative_sums(self):
        """The gradient's sums g0, g1, ... and the Hessian's upper triangle
        h0_0, h0_1, ..., each as (name, ordered terms)."""
        n = self.dimension
        grads = [self.partial(i) for i in range(n)]
        gradient = [(f"g{i}", g._ordered) for i, g in enumerate(grads)]
        upper = [(f"h{i}_{j}", grads[i].partial(j)._ordered) for i in range(n) for j in range(i, n)]
        return gradient, upper

    def _compile_derivatives(self) -> _Kernels:
        n = self.dimension
        gradient, upper = self._derivative_sums()
        kernels = self._kernels
        kernels.gradient = _compile(n, gradient, f"({_names('g', n)})")
        # upper triangle only; the returned rows mirror it
        rows = ", ".join(
            "[" + ", ".join(f"h{min(i, j)}_{max(i, j)}" for j in range(n)) + "]" for i in range(n)
        )
        kernels.hessian_rows = _compile(n, upper, f"[{rows}]")
        return kernels

    def _compile_kkt(self) -> _Kernels:
        n = self.dimension
        gradient, upper = self._derivative_sums()
        stat = [f"s{i} = x{i} - p{i} + lam * g{i}" for i in range(n)]
        squares = "".join(f" + s{i} * s{i}" for i in range(n))
        kernels = self._kernels
        kernels.kkt_state = _compile(
            n,
            gradient + [("v", self._ordered)],
            f"({_names('s', n)}), v, ({_names('g', n)}), sqrt(0.0{squares} + v * v)",
            args="point, x, lam",
            body=[f"{_names('p', n)}= point"] + stat,
        )
        # entry (i, j) of I + lam H, shared by (j, i)
        entries = [
            f"a{i}_{j} = 0.0 + lam * h{i}_{j}" + (" + 1.0" if i == j else "")
            for i in range(n)
            for j in range(i, n)
        ]
        rows = "".join(
            "[" + "".join(f"a{min(i, j)}_{max(i, j)}, " for j in range(n)) + f"g{i}], "
            for i in range(n)
        )
        kernels.kkt_system = _compile(
            n,
            upper,
            f"[{rows}[{_names('g', n)}0.0]], [{_names('-s', n)}-v]",
            args="x, lam, stat, v, grad",
            body=[f"{_names('s', n)}= stat", f"{_names('g', n)}= grad"] + entries,
        )
        return kernels

    def hessian(self, x: Sequence[float]) -> np.ndarray:
        return np.array(self.hessian_rows(x), dtype=float)


@dataclass(frozen=True)
class ConvexityReport:
    """Result of sampled Hessian eigenvalue screening (heuristic, never a proof)."""

    min_eigenvalue_seen: float
    witness: Optional[Tuple[float, ...]]

    @property
    def suspect(self) -> bool:
        return self.witness is not None


_WITNESS_CUTOFF = -1e-8


def sample_convexity_check(
    p: Polynomial,
    box: Sequence[Tuple[float, float]],
    samples: int,
    seed: int,
) -> ConvexityReport:
    """Sample the box uniformly and record the smallest Hessian eigenvalue seen.

    Reports a witness point when an eigenvalue below -1e-8 is found.  This is
    an advisory screen: convexity of the input polynomials is otherwise
    trusted as declared.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(box) != p.dimension:
        raise ValueError("box length must equal polynomial dimension")
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    if np.any(lo > hi):
        raise ValueError("malformed box: lo > hi")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, p.dimension))
    min_seen = math.inf
    witness = None
    for row in pts:
        eigs = np.linalg.eigvalsh(p.hessian(row))
        m = float(eigs[0])
        if m < min_seen:
            min_seen = m
            if m < _WITNESS_CUTOFF:
                witness = tuple(float(v) for v in row)
    return ConvexityReport(min_eigenvalue_seen=min_seen, witness=witness)
