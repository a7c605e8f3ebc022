"""Sparse multivariate polynomials: evaluation, gradients, Hessians.

A polynomial is a finite sum of monomials ``coefficient * x1^e1 * ... * xn^en``
stored as an exponent-vector -> coefficient map.  Terms are kept in a fixed
graded-lexicographic order so that evaluation is a deterministic, bit
reproducible sum.

This module is the one compiler of the package: every kernel is
straight-line Python source generated here and made a function by
``_factory``, the only ``exec``.  A polynomial's own kernels live on it,
each compiled on first use: the value and term-size kernels by ``evaluate``
and ``term_size``; the gradient and Hessian kernels, together, by
``gradient`` or ``hessian_rows``, from the symbolic partial derivatives;
``kkt_seed`` by ``kkt_kernels()``.  Each term is one ``total += c * x0 ** e0
* ...`` statement, or one ``+ abs(c * x0 ** e0 * ...)`` of a term size, that
multiplies its coefficient by ``x_i ** e_i`` for the variables it uses, in
index order, and the sum starts from 0.0 in graded-lex order, so the
arithmetic is that of a plain loop over the terms.  Coefficients, the
derivatives' as ``partial`` computes them, are bound as closure cells c0,
c1, ..., never written into the source, so they stay exact, and the source
depends only on the kernel's kind, the dimension and the exponent structure:
``_generated`` writes it once per structure, so polynomials of one structure
share one compiled factory, and one pass over their coefficients fills their
cells.

The kernels of a set's projection are compiled here and kept by the set
(``sets.ConvexSetDescriptor``): ``newton_kernel(polys)``, for each subset of
active constraints, from the template ``_NEWTON_SOURCE``;
``residual_kernel``, ``halfspace_kernel`` and ``ball_kernel``.
``solve_kernel(n)`` compiles the dense solver of n x n systems, and
``distance_kernel(n)`` the Euclidean distance of n-vectors, each cached by
n.  A KKT state at (y, lam) is the flat tuple ``(y..., lam_1..lam_p, s...,
v_1..v_p, grad g_1(y)..., ..., grad g_p(y)..., ||F||)`` of the stationarity
vector ``s_i = (y_i - point_i) + lam_1 * g_1i + ... + lam_p * g_pi``, the
values v_j = g_j(y) and ``||F|| = sqrt((0.0 + s_0 * s_0 + ...) + (0.0 +
v_1 * v_1 + ...))``.

- ``kkt_seed(point, gx, start)``, from the template ``_SEED_SOURCE``,
  returns the one-constraint states of the seeds: the first-order step
  ``point - lam * grad g(point)`` with ``lam = gx / |grad g(point)|^2``,
  preceded, when ``start`` is given and has the smaller ||F||, by ``start``
  with the least-squares multiplier of ``point - start = lam * grad
  g(start)`` clipped at 0; None when ``grad g(point)`` is 0.
- A Newton kernel ``(point, seed, solve, max_iter, feas_tol, opt_tol)`` takes
  its seed in two forms: a KKT state, as ``kkt_seed`` returns it, or a point
  and its multipliers ``(y..., lam_1..lam_p)``, whose state it first computes
  with its trial step's arithmetic.  From that state it runs at most
  ``max_iter`` Newton steps until ``|s| <= opt_tol``
  or ``|s| <= 4 eps * (1 + sum |point_i| + sum |y_i|)``, and every ``|v_j| <=
  feas_tol * max(1, z_j)``, the package's one scale rule, z_j being g_j's
  ``term_size`` at y; each step solves the bordered KKT system
  ``[[I + sum_j lam_j H_j, G], [G^T, 0]]`` (entries ``0.0 + lam_1 * h_1 +
  ...``, the gradients as the columns of G) with right-hand side ``-F`` by
  ``solve(A, b)`` and damped by Armijo halving down to t = 2^-40; then one
  full polish step, and a second only while ||F|| is above the rounding
  floor ``4 eps * (1 + sum |point_i| + sum |y_i| + sum_j |lam_j| * sum_i
  |grad g_j(y)_i|)``, below which a step only shuffles rounding, each kept
  only while ||F|| strictly falls.  It returns ``(y, lams, vals, grads)``
  when it converged, or None when abandoned (non-finite ||F||, a singular
  system, the backtracking floor or ``max_iter`` steps without converging).

``residual_kernel(polys)`` computes a set's ``max_j [g_j(x)]_+`` from its
constraints' value sums, ``halfspace_kernel(a, b)`` and ``ball_kernel(c, r)``
the closed-form projections, each with the float operations of the plain loop
it replaces.

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
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

Exponents = Tuple[int, ...]


@dataclass(frozen=True)
class Monomial:
    """One term of a sparse polynomial.

    ``exponents`` has one non-negative integer per variable (an integral
    float such as 2.0 is taken as that integer); ``coefficient`` must be
    finite.
    """

    exponents: Exponents
    coefficient: float

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e != ie for e, ie in zip(self.exponents, exps)):
            raise ValueError(f"non-integral exponent in {tuple(self.exponents)}")
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
def _factory(source: str, count: int):
    """``make(c0, ..., c<count - 1>)``, which returns the ``kernel`` that
    ``source`` defines with those names bound as closure cells; the one
    ``exec`` of the package.  One factory, its code and its globals serve
    every kernel of this text: a kernel's global lookups are cached per code
    object against one globals dict, so kernels sharing code must share their
    globals too."""
    names = ", ".join(f"c{i}" for i in range(count))
    namespace = {"__builtins__": {}, "OverflowError": OverflowError, "abs": abs, "isfinite": math.isfinite,
                 "len": len, "range": range, "sqrt": math.sqrt}
    exec(f"def make({names}):\n{_block(source.splitlines(), 1)}\n    return kernel\n", namespace)
    return namespace["make"]


def _kernel(source: str, coeffs):
    """The function ``kernel`` defined by ``source``, with the names c0,
    c1, ... bound to ``coeffs``."""
    return _factory(source, len(coeffs))(*coeffs)


def _terms(terms, var: str):
    """``c<cell> * var0 ** e0 * ...`` for each of the ordered ``terms``, each
    (exponents, cell), over the variables it uses, in index order."""
    # x ** 1 == x exactly, so the factor is the variable itself
    return [f"c{cell}" + "".join(f" * {var}{i}" if e == 1 else f" * {var}{i} ** {e}" for i, e in enumerate(exps) if e)
            for exps, cell in terms]


def _sum(name, terms, var: str = "x"):
    """Statements accumulating the ordered ``terms`` into ``name`` from 0.0, one per term."""
    return [f"{name} = 0.0"] + [f"{name} += {term}" for term in _terms(terms, var)]


def _size(terms, var: str) -> str:
    """The term size sum_alpha |c_alpha| |x^alpha| of ``terms``: one expression, in ``_sum``'s order."""
    return "(0.0" + "".join(f" + abs({term})" for term in _terms(terms, var)) + ")"


def _block(lines, depth: int) -> str:
    return "\n".join("    " * depth + line for line in lines)


def _source(dimension: int, sums, result: str) -> str:
    """The source of ``kernel(x)``: unpack x into x0, x1, ..., accumulate each
    ``(name, ordered terms)`` of ``sums`` and return the expression
    ``result``."""
    body = [f"{_names('x', dimension)}= x"]
    for name, terms in sums:
        body += _sum(name, terms)
    return "def kernel(x):\n" + _block(body + [f"return {result}"], 1)


@functools.lru_cache(maxsize=128)
def _generated(build, dimension: int, shapes, derivatives: bool):
    """``(make, recipe)`` of the kernel ``build(dimension, layout)`` writes for
    polynomials whose terms have the exponents ``shapes[0]``, ...: per
    polynomial, its value terms and, with ``derivatives``, its gradient's
    sums g0, ... and Hessian's h0_0, h0_1, ..., each (name, terms), a term
    being (exponents, cell).  Cells number the coefficients, then the
    derivatives' in ``partial``'s order: cell ``total + r`` is cell
    ``recipe[r][0]`` times ``recipe[r][1]``, so ``(c * k1) * k2`` as
    ``partial`` twice rounds it."""
    total = sum(map(len, shapes))
    recipe, layout, cells = [], [], itertools.count()

    def partial(terms, var):
        # differentiation keeps the graded-lex order of the terms it keeps
        out = []
        for e, cell in terms:
            if e[var]:
                out.append((e[:var] + (e[var] - 1,) + e[var + 1 :], total + len(recipe)))
                recipe.append((cell, e[var]))
        return out

    for exps in shapes:
        value = [(e, next(cells)) for e in exps]
        gradient = upper = None
        if derivatives:
            grads = [partial(value, i) for i in range(dimension)]
            gradient = [(f"g{i}", g) for i, g in enumerate(grads)]
            upper = [(f"h{i}_{j}", partial(grads[i], j)) for i in range(dimension) for j in range(i, dimension)]
        layout.append((value, gradient, upper))
    return _factory(build(dimension, layout), total + len(recipe)), tuple(recipe)


def _compiled(build, polys, derivatives: bool = True):
    """The kernel ``build`` writes for ``polys`` (see ``_generated``) with
    their cells bound: one pass over their coefficients once their structure
    is known.  An overflowed derivative cell raises ``partial``'s ValueError."""
    shapes = tuple(tuple(e for e, _ in g._ordered) for g in polys)
    make, recipe = _generated(build, polys[0].dimension, shapes, derivatives)
    cells = [c for g in polys for _, c in g._ordered]
    for i, k in recipe:
        c = cells[i] * k
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r}")
        cells.append(c)
    return make(*cells)


def _value_source(n: int, layout) -> str:
    return _source(n, [("v", layout[0][0])], "v")


def _size_source(n: int, layout) -> str:
    return _source(n, [], _size(layout[0][0], "x"))


def _gradient_source(n: int, layout) -> str:
    return _source(n, layout[0][1], f"({_names('g', n)})")


def _hessian_source(n: int, layout) -> str:
    # upper triangle only; the returned rows mirror it
    rows = ", ".join("[" + ", ".join(f"h{min(i, j)}_{max(i, j)}" for j in range(n)) + "]" for i in range(n))
    return _source(n, layout[0][2], f"[{rows}]")


# The one-constraint KKT Newton seed kernel (see the module docstring),
# filled in per polynomial: {grad}, {value} and {stat} compute g..., v and
# s... at (x..., lam), and a state is the tuple {state}.
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

def _kkt_source(n: int, layout) -> str:
    [(value, gradient, _)] = layout

    def grad(var="x"):
        return [line for name, terms in gradient for line in _sum(name, terms, var)]

    stat = [f"s{i} = x{i} - p{i} + lam * g{i}" for i in range(n)]
    return _SEED_SOURCE.format(
        p=_names("p", n),
        x=_names("x", n),
        grad_at_point=_block(grad("p"), 1),
        gn=_squares("g", n),
        first_order=_block([f"x{i} = p{i} - lam * g{i}" for i in range(n)], 1),
        grad=_block(grad(), 1),
        value=_block(_sum("v", value), 1),
        stat=_block(stat, 1),
        state=f"({_names('x', n)}lam, {_names('s', n)}v, {_names('g', n)}"
        f"sqrt({_squares('s', n)} + v * v))",
        least_squares="(0.0" + "".join(f" + (p{i} - x{i}) * g{i}" for i in range(n)) + ")",
    )


# The KKT Newton kernel of p constraints (see newton_kernel).  The state is
# y..., l..., s..., v..., g..., fn, constraint k having multiplier l<k>, value
# v<k>, gradient g<i>_<k> and Hessian h<i>_<j>_<k>; {system} solves for the
# step d..., dl..., and {trial} computes the trial state x..., lt..., r...,
# w..., u..., ft at (y..., l...) + t * step.  A seed of {short} items is a point
# and its multipliers x..., lt..., whose state the trial lines after the x/lt
# updates compute; any other seed is a state.  2^-50 = 4 eps times {scale} or
# {floor} is the rounding floor of ||s|| or ||F||.  {feasible} tests each |v<k>|
# <= feas_tol * max(1, z<k>), summing the term size z<k> only if |v<k>| > feas_tol.
_NEWTON_SOURCE = """\
def kernel(point, seed, solve, max_iter, feas_tol, opt_tol):
    {p}= point
    if len(seed) == {short}:
        {x}= seed
{seed_state}
        seed = {trial_state}
    {state} = seed
    for _ in range(max_iter):
        if not isfinite(fn):
            return None
        sn = sqrt({stat_squares})
        if (sn <= opt_tol or sn <= 2.0 ** -50 * ({scale})) and {feasible}:
            break
{system2}
        if d is None:
            return None
        {d}= d
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
        return None
    for polish in range(2):
        if fn == 0.0 or polish and fn <= 2.0 ** -50 * ({floor}):
            break
{system2}
        if d is None:
            break
        {d}= d
        t = 1.0
{trial2}
        if not isfinite(ft) or ft >= fn:
            break
        {state} = {trial_state}
    return {result}
"""


def _squares(v: str, n: int) -> str:
    return "0.0" + "".join(f" + {v}{i} * {v}{i}" for i in range(n))


def newton_kernel(polys):
    """Compile the damped KKT Newton kernel of the constraints ``polys`` from
    ``_NEWTON_SOURCE`` (see the module docstring); a set keeps one per subset
    of active constraints."""
    return _compiled(_newton_source, polys)


def _newton_source(n: int, layout) -> str:
    p = len(layout)
    ks = range(p)
    system = [line for k, (_, _, upper) in enumerate(layout) for name, terms in upper
              for line in _sum(f"{name}_{k}", terms, "y")]
    # entry (i, j) of I + sum_k l_k H_k, shared by (j, i)
    system += [
        f"a{i}_{j} = 0.0" + "".join(f" + l{k} * h{i}_{j}_{k}" for k in ks) + (" + 1.0" if i == j else "")
        for i in range(n)
        for j in range(i, n)
    ]
    rows = [[f"a{min(i, j)}_{max(i, j)}" for j in range(n)] + [f"g{i}_{k}" for k in ks] for i in range(n)]
    rows += [[f"g{i}_{k}" for i in range(n)] + ["0.0"] * p for k in ks]
    matrix = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    system.append(f"d = solve([{matrix}], [{_names('-s', n)}{_names('-v', p)}])")
    trial = [f"x{i} = y{i} + t * d{i}" for i in range(n)] + [f"lt{k} = l{k} + t * dl{k}" for k in ks]
    for k, (value, gradient, _) in enumerate(layout):
        trial += [line for i, (_, terms) in enumerate(gradient) for line in _sum(f"u{i}_{k}", terms)]
        trial += _sum(f"w{k}", value)
    trial += [f"r{i} = x{i} - p{i}" + "".join(f" + lt{k} * u{i}_{k}" for k in ks) for i in range(n)]
    trial.append(f"ft = sqrt(({_squares('r', n)}) + ({_squares('w', p)}))")

    def grads(g):
        return "".join(f"{g}{i}_{k}, " for k in ks for i in range(n))

    scale = "1.0" + "".join(f" + abs({v}{i})" for v in "py" for i in range(n))
    return _NEWTON_SOURCE.format(
        p=_names("p", n),
        short=n + p,
        x=_names("x", n) + _names("lt", p),
        d=_names("d", n) + _names("dl", p),
        state=f"{_names('y', n)}{_names('l', p)}{_names('s', n)}{_names('v', p)}{grads('g')}fn",
        trial_state=f"{_names('x', n)}{_names('lt', p)}{_names('r', n)}{_names('w', p)}{grads('u')}ft",
        scale=scale,
        floor=scale + "".join(f" + abs(l{k}) * (0.0" + "".join(f" + abs(g{i}_{k})" for i in range(n)) + ")" for k in ks),
        feasible=" and ".join(f"(abs(v{k}) <= feas_tol or abs(v{k}) <= feas_tol * {_size(value, 'y')})"
                              for k, (value, _, _) in enumerate(layout)),
        stat_squares=_squares("s", n),
        system2=_block(system, 2),
        seed_state=_block(trial[n + p :], 2),
        trial2=_block(trial, 2),
        trial3=_block(trial, 3),
        result=f"({_names('y', n)}), ({_names('l', p)}), ({_names('v', p)}), ("
        + "".join("(" + "".join(f"g{i}_{k}, " for i in range(n)) + "), " for k in ks) + ")",
    )


def residual_kernel(polys):
    """Compile ``max_j [g_j(x)]_+`` of the constraints ``polys``: each g_j(x),
    summed as by ``evaluate``, in turn raises the maximum from 0.0, or is
    returned at once when NaN."""
    return _compiled(_residual_source, polys, derivatives=False)


def _residual_source(n: int, layout) -> str:
    body = [f"{_names('x', n)}= x", "worst = 0.0"]
    for value, _, _ in layout:
        body += _sum("v", value) + ["if v > worst:", "    worst = v", "elif v != v:", "    return v"]
    return "def kernel(x):\n" + _block(body + ["return worst"], 1)


def halfspace_kernel(a, b):
    """Compile the projection onto {x : <a, x> <= b}: x when ``v = (0.0 + a_0 *
    x_0 + ...) - b <= 0``, else ``x_i - v * a_i / (0.0 + a_0 * a_0 + ...)``."""
    n = len(a)
    body = [f"{_names('x', n)}= x", "v = (0.0" + "".join(f" + c{i} * x{i}" for i in range(n)) + f") - c{n}",
            "if v <= 0.0:", "    return x", f"nn = {_squares('c', n)}",
            "return (" + "".join(f"x{i} - v * c{i} / nn, " for i in range(n)) + ")"]
    return _kernel("def kernel(x):\n" + _block(body, 1), [*a, b])


def ball_kernel(c, r):
    """Compile the projection onto {x : ||x - c|| <= r}: with ``d_i = x_i - c_i``
    and ``nrm = sqrt(0.0 + d_0 * d_0 + ...)``, ``OverflowError`` when nrm is
    not finite, x when ``nrm <= r``, else ``c_i + (r / nrm) * d_i``."""
    n = len(c)
    body = [f"{_names('x', n)}= x"] + [f"d{i} = x{i} - c{i}" for i in range(n)]
    body += [f"nrm = sqrt({_squares('d', n)})", "if not isfinite(nrm):", "    raise OverflowError('|x - c| is not finite')",
             f"if nrm <= c{n}:", "    return x", f"f = c{n} / nrm",
             "return (" + "".join(f"c{i} + f * d{i}, " for i in range(n)) + ")"]
    return _kernel("def kernel(x):\n" + _block(body, 1), [*c, r])


@functools.lru_cache(maxsize=None)
def distance_kernel(n: int):
    """Compile ``dist(a, b)`` for n-vectors: with ``d_i = a_i - b_i``, it
    returns ``sqrt(0.0 + d_0 * d_0 + ...)``, the float operations of
    ``sets.vdist``; cached by n."""
    body = [f"{_names('a', n)}= a", f"{_names('b', n)}= b"] + [f"d{i} = a{i} - b{i}" for i in range(n)]
    body.append(f"return sqrt({_squares('d', n)})")
    return _kernel("def kernel(a, b):\n" + _block(body, 1), [])


@functools.lru_cache(maxsize=None)
def solve_kernel(n: int):
    """Compile ``solve(A, b)`` for n x n systems: Gaussian elimination with
    partial pivoting, unrolled into straight-line code over one local name
    per entry.  Column by column it searches the pivot (first largest
    ``abs``), returns None on a zero or non-finite pivot, swaps the pivot row
    up, and subtracts ``f * pivot row`` from each row below whose factor
    ``f`` is nonzero; then it back-substitutes from the last row.  Entries
    left of the diagonal are never read again once their column is done, so
    they are neither swapped nor updated."""
    a = [[f"a{r}_{c}" for c in range(n)] for r in range(n)]
    b = [f"b{r}" for r in range(n)]
    lines = [
        "".join("(" + "".join(f"{v}, " for v in row) + "), " for row in a) + "= A",
        "".join(f"{v}, " for v in b) + "= b",
    ]
    for col in range(n):
        below = range(col + 1, n)
        lines += [f"piv = {col}", f"best = abs({a[col][col]})"]
        for r in below:
            lines += [f"v = abs({a[r][col]})", "if v > best:", "    best = v", f"    piv = {r}"]
        lines += ["if best == 0.0 or not isfinite(best):", "    return None"]
        for r in below:
            top = a[col][col:] + [b[col]]
            low = a[r][col:] + [b[r]]
            lines.append(f"{'if' if r == col + 1 else 'elif'} piv == {r}:")
            lines.append(f"    {', '.join(top + low)} = {', '.join(low + top)}")
        if below:
            lines.append(f"inv = 1.0 / {a[col][col]}")
        for r in below:
            lines += [f"f = {a[r][col]} * inv", "if f != 0.0:"]
            lines += [f"    {a[r][c]} -= f * {a[col][c]}" for c in range(col + 1, n)]
            lines.append(f"    {b[r]} -= f * {b[col]}")
    for r in range(n - 1, -1, -1):
        acc = b[r] + "".join(f" - {a[r][c]} * x{c}" for c in range(r + 1, n))
        lines.append(f"x{r} = ({acc}) / {a[r][r]}")
    lines.append("return [" + ", ".join(f"x{r}" for r in range(n)) + "]")
    return _kernel("def kernel(A, b):\n" + _block(lines, 1), [])


class _Kernels:
    """The compiled kernels of one polynomial, each None until first use."""

    __slots__ = ("value", "gradient", "hessian_rows", "kkt_seed", "term_size")

    def __init__(self):
        self.value = self.gradient = self.hessian_rows = self.kkt_seed = self.term_size = None


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
        # rebuilt from the terms; its own kernels are not copied but
        # recompiled on first use, and a set's are compiled by the set
        return (Polynomial, (self.dimension, dict(self._ordered)))

    # -- basic structure ---------------------------------------------------

    @property
    def terms(self) -> Tuple[Monomial, ...]:
        return tuple(Monomial(e, c) for e, c in self._ordered)

    def degree(self) -> int:
        if not self._ordered:
            return 0
        return max(sum(e) for e, _ in self._ordered)

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

    def gradient(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Gradient at ``x`` from symbolically differentiated terms."""
        self._check_point(x)
        return (self._kernels.gradient or self._compile_derivatives().gradient)(x)

    def hessian_rows(self, x: Sequence[float]) -> list:
        """Hessian at ``x`` as nested lists, exactly symmetric by mirroring."""
        self._check_point(x)
        return (self._kernels.hessian_rows or self._compile_derivatives().hessian_rows)(x)

    def term_size(self, x: Sequence[float]) -> float:
        """sum_alpha |c_alpha| |x^alpha| in ``evaluate``'s order; the value at ``x`` carries about eps times it."""
        self._check_point(x)
        kernels = self._kernels
        kernels.term_size = kernels.term_size or _compiled(_size_source, [self], derivatives=False)
        return kernels.term_size(x)

    def _compile_value(self):
        self._kernels.value = _compiled(_value_source, [self], derivatives=False)
        return self._kernels.value

    def kkt_kernels(self) -> _Kernels:
        """The kernels with the one-constraint KKT Newton seed kernel
        ``kkt_seed(point, gx, start)`` compiled (see the module docstring)."""
        kernels = self._kernels
        return kernels if kernels.kkt_seed is not None else self._compile_kkt()

    def _compile_derivatives(self) -> _Kernels:
        kernels = self._kernels
        kernels.gradient = _compiled(_gradient_source, [self])
        kernels.hessian_rows = _compiled(_hessian_source, [self])
        return kernels

    def _compile_kkt(self) -> _Kernels:
        self._kernels.kkt_seed = _compiled(_kkt_source, [self])
        return self._kernels

