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
loop over the terms.  Coefficients are bound as closure cells c0, c1, ...,
never written into the source, so they stay exact, and the source depends
only on the dimension and the exponent structure: polynomials of one
structure share one compiled factory (``_factory``, cached by source text)
and differ only in their cells.

``kkt_kernels()`` compiles, on first use, the two kernels of the projection's
one-constraint KKT Newton solve from the templates ``_SEED_SOURCE`` and
``_NEWTON_SOURCE``, cached with the others.  A state at (y, lam) is the flat
tuple ``(y..., lam, s..., v, g..., ||F||)`` of the stationarity vector
``s_i = (y_i - point_i) + lam * g_i``, v = g(y), grad g(y) and
``||F|| = sqrt((0.0 + s_0 * s_0 + ...) + v * v)``.

- ``kkt_seed(point, gx, start)`` returns the states of the seeds: the
  first-order step ``point - lam * grad g(point)`` with ``lam = gx /
  |grad g(point)|^2``, preceded, when ``start`` is given and has the smaller
  ||F||, by ``start`` with the least-squares multiplier of ``point - start =
  lam * grad g(start)`` clipped at 0; None when ``grad g(point)`` is 0.
- ``kkt_newton(point, seed, solve, max_iter, feas_tol, opt_tol)`` runs at
  most ``max_iter`` Newton steps from a seed state until ``|v| <= feas_tol``
  and ``|s| <= opt_tol``, each solving the bordered KKT system
  ``[[I + lam H, grad], [grad^T, 0]]`` (entries ``0.0 + lam * h_ij``) with
  right-hand side ``-F`` by ``solve(A, b)`` and damped by Armijo halving
  down to t = 2^-40; then up to two full polish steps, each kept only while
  ||F|| strictly falls.  It returns ``(converged, y, lam, v, grad)``, or
  None when abandoned (non-finite ||F||, a singular system or the
  backtracking floor).

Their value, gradient and Hessian sums are those of the single kernels, so
they agree bit for bit with the same loops composed from ``evaluate``,
``gradient`` and ``hessian_rows``.

Instances are immutable after construction and safe to share across
threads.  The kernel cache is filled lazily; two threads may both compile a
kernel, and whichever store lands last is kept, which is benign because the
kernels are equal pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

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


@functools.lru_cache(maxsize=128)
def _factory(source: str):
    """``make(c0, c1, ...)``, which returns the kernel of ``source`` with its
    coefficients bound as closure cells.  One factory, its code and its
    globals serve every polynomial whose kernel has this text: a kernel's
    global lookups are cached per code object against one globals dict, so
    kernels sharing code must share their globals too."""
    namespace = {"__builtins__": {}, "abs": abs, "isfinite": math.isfinite, "range": range, "sqrt": math.sqrt}
    exec(source, namespace)
    return namespace["make"]


def _kernel(source: str, coeffs):
    """The function ``kernel`` defined by ``source``, with the names c0,
    c1, ... bound to ``coeffs``."""
    names = ", ".join(f"c{i}" for i in range(len(coeffs)))
    wrapped = f"def make({names}):\n{_block(source.splitlines(), 1)}\n    return kernel\n"
    return _factory(wrapped)(*coeffs)


def _sum(coeffs, name, terms, var: str = "x"):
    """Statements accumulating the ordered ``terms`` into ``name`` from 0.0,
    one per term, over the variables var0, var1, ...; each coefficient is
    appended to ``coeffs`` and named c0, c1, ... by its position there."""
    lines = [f"{name} = 0.0"]
    for exps, coeff in terms:
        c = f"c{len(coeffs)}"
        coeffs.append(coeff)
        # x ** 1 == x exactly, so the factor is the variable itself
        factors = "".join(
            f" * {var}{i}" if e == 1 else f" * {var}{i} ** {e}" for i, e in enumerate(exps) if e
        )
        lines.append(f"{name} += {c}{factors}")
    return lines


def _block(lines, depth: int) -> str:
    return "\n".join("    " * depth + line for line in lines)


def _compile(dimension: int, sums, result: str):
    """Compile ``kernel(x)``: unpack x into x0, x1, ..., accumulate each
    ``(name, ordered terms)`` of ``sums`` and return the expression
    ``result``."""
    coeffs = []
    body = [f"{_names('x', dimension)}= x"]
    for name, terms in sums:
        body += _sum(coeffs, name, terms)
    return _kernel("def kernel(x):\n" + _block(body + [f"return {result}"], 1), coeffs)


# The one-constraint KKT Newton kernels (see the module docstring), filled in
# per polynomial: {grad}, {value} and {stat} compute g..., v and s... at
# (x..., lam), and a state is the tuple {state}.
_SEED_SOURCE = """\
def kernel(point, gx, start):
    {p}= point
{grad_at_point}
    gn = {gn}
    if gn <= 0.0:
        return None
    lam = gx / gn
{first_order}
{grad}
{value}
{stat}
    cold = {state}
    if start is None:
        return (cold,)
    {x}= start
{grad}
    gn = {gn}
    if gn <= 0.0:
        return (cold,)
    lam = {least_squares} / gn
    if not lam > 0.0:  # max(0.0, lam)
        lam = 0.0
{value}
{stat}
    warm = {state}
    return (warm, cold) if warm[-1] < cold[-1] else (cold,)
"""

# The state is held in y..., lam, s..., v, g..., fn; {system} solves the
# bordered KKT system at it for the step d..., dl, and {trial} computes the
# trial state x..., lt, r..., w, u..., ft at (y..., lam) + t * step.
_NEWTON_SOURCE = """\
def kernel(point, seed, solve, max_iter, feas_tol, opt_tol):
    {p}= point
    {state} = seed
    for _ in range(max_iter):
        if not isfinite(fn):
            return None
        if abs(v) <= feas_tol and sqrt({stat_squares}) <= opt_tol:
            break
{system2}
        if d is None:
            return None
        {d}dl = d
        t = 1.0
        while True:
{trial3}
            if isfinite(ft) and ft <= (1.0 - 1e-4 * t) * fn:
                break
            t *= 0.5
            if t < 2.0 ** -40:
                return None
        {state} = {trial_state}
    else:
        return False, {result}
    for _ in range(2):
        if fn == 0.0:
            break
{system2}
        if d is None:
            break
        {d}dl = d
        t = 1.0
{trial2}
        if not isfinite(ft) or ft >= fn:
            break
        {state} = {trial_state}
    return True, {result}
"""


class _Kernels:
    """The compiled kernels of one polynomial, each None until first use."""

    __slots__ = ("value", "gradient", "hessian_rows", "kkt_seed", "kkt_newton")

    def __init__(self):
        self.value = self.gradient = self.hessian_rows = None
        self.kkt_seed = self.kkt_newton = None


class Polynomial:
    """Immutable sparse polynomial in ``dimension`` real variables.

    Construct from a mapping of exponent tuples to coefficients, or None for
    the zero polynomial.  Exact-zero coefficients are dropped, so the zero
    polynomial has no terms (and degree 0 by convention).
    """

    __slots__ = ("dimension", "_ordered", "_kernels")

    def __init__(self, dimension: int, terms: Optional[Mapping[Exponents, float]] = None):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping, not {type(terms).__name__}")
        cleaned = {}
        for mono in (Monomial(e, c) for e, c in terms.items()):
            if len(mono.exponents) != dimension:
                raise ValueError(
                    f"exponent vector {mono.exponents} has length "
                    f"{len(mono.exponents)}, expected {dimension}"
                )
            if mono.coefficient != 0.0:
                cleaned[mono.exponents] = mono.coefficient
        object.__setattr__(self, "dimension", dimension)
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
        for e, c in self._ordered:
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
        ``kkt_seed(point, gx, start)`` and ``kkt_newton(point, seed, solve,
        max_iter, feas_tol, opt_tol)`` (see the module docstring)."""
        kernels = self._kernels
        return kernels if kernels.kkt_newton is not None else self._compile_kkt()

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
        ordered = self._ordered

        def squares(v):
            return "0.0" + "".join(f" + {v}{i} * {v}{i}" for i in range(n))

        def grad(coeffs, var="x", prefix="g"):
            lines = []
            for i, (_, terms) in enumerate(gradient):
                lines += _sum(coeffs, f"{prefix}{i}", terms, var)
            return lines

        coeffs = []
        stat = [f"s{i} = x{i} - p{i} + lam * g{i}" for i in range(n)]
        kernels = self._kernels
        kernels.kkt_seed = _kernel(
            _SEED_SOURCE.format(
                p=_names("p", n),
                x=_names("x", n),
                grad_at_point=_block(grad(coeffs, "p"), 1),
                gn=squares("g"),
                first_order=_block([f"x{i} = p{i} - lam * g{i}" for i in range(n)], 1),
                grad=_block(grad(coeffs), 1),
                value=_block(_sum(coeffs, "v", ordered), 1),
                stat=_block(stat, 1),
                state=f"({_names('x', n)}lam, {_names('s', n)}v, {_names('g', n)}"
                f"sqrt({squares('s')} + v * v))",
                least_squares="(0.0" + "".join(f" + (p{i} - x{i}) * g{i}" for i in range(n)) + ")",
            ),
            coeffs,
        )
        coeffs = []
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
        system = [line for name, terms in upper for line in _sum(coeffs, name, terms, "y")] + entries
        system.append(f"d = solve([{rows}[{_names('g', n)}0.0]], [{_names('-s', n)}-v])")
        trial = [f"x{i} = y{i} + t * d{i}" for i in range(n)] + ["lt = lam + t * dl"]
        trial += grad(coeffs, prefix="u") + _sum(coeffs, "w", ordered)
        trial += [f"r{i} = x{i} - p{i} + lt * u{i}" for i in range(n)]
        trial.append(f"ft = sqrt({squares('r')} + w * w)")
        kernels.kkt_newton = _kernel(
            _NEWTON_SOURCE.format(
                p=_names("p", n),
                d=_names("d", n),
                state=f"{_names('y', n)}lam, {_names('s', n)}v, {_names('g', n)}fn",
                trial_state=f"{_names('x', n)}lt, {_names('r', n)}w, {_names('u', n)}ft",
                stat_squares=squares("s"),
                system2=_block(system, 2),
                trial2=_block(trial, 2),
                trial3=_block(trial, 3),
                result=f"({_names('y', n)}), lam, v, ({_names('g', n)})",
            ),
            coeffs,
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
