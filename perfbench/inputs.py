"""Seeded input generator for the perfbench workloads.

Every input is a pure function of (workload, seed, op index): the same seed
gives byte-identical start points and problem files.  The module uses only the
standard library, and its validity checks evaluate the constraints with their
own arithmetic, independent of cycproj.
"""

from __future__ import annotations

import json
import math
import random

START_MARGIN = 0.1  # minimum constraint value of a start outside its set
CENTER_MARGIN = 1e-3  # every constraint is <= -CENTER_MARGIN near the center
CENTER_RING = 0.1  # radius of the ring around the center that must be feasible


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so the stream is the same on every
    # platform and Python build
    return random.Random(f"perfbench/{workload}/{seed}/{index}")


def fmt_point(point) -> str:
    return ",".join(repr(float(v)) for v in point)


# -- disks_trace: ex5.5 tangent unit disks centred at (-1, 0) and (1, 0) -----

DISK_CENTERS = ((-1.0, 0.0), (1.0, 0.0))


def disk_value(point, center) -> float:
    return (point[0] - center[0]) ** 2 + (point[1] - center[1]) ** 2 - 1.0


def disks_start(seed: int, index: int):
    """A point on the radius-2 circle outside both disks by START_MARGIN."""
    rng = rng_for("disks_trace", seed, index)
    while True:
        t = rng.uniform(0.0, 2.0 * math.pi)
        p = (2.0 * math.cos(t), 2.0 * math.sin(t))
        if all(disk_value(p, c) >= START_MARGIN for c in DISK_CENTERS):
            return p


# -- quartic_newton: ex5.8:n=3 quartic balls and ex5.7:d=4 power region -----

QUARTIC_CENTERS = (-1.0, 2.0)  # first coordinate of the two l4 unit balls


def quartic_ball_value(point, c1: float) -> float:
    return (point[0] - c1) ** 4 + sum(v**4 for v in point[1:]) - 1.0


def power_region_values(point, degree: int = 4):
    """Constraint values of ex5.7: halfplane x <= 0 and power region y^d <= x."""
    x, y = point
    return x, y**degree - x


def quartic_starts(seed: int, index: int):
    """(ex5.8:n=3 start, ex5.7:d=4 start), each outside both of its sets."""
    rng = rng_for("quartic_newton", seed, index)
    while True:
        p = (rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if all(quartic_ball_value(p, c) >= START_MARGIN for c in QUARTIC_CENTERS):
            break
    while True:
        y = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 1.4)
        q = (rng.uniform(0.1, 0.9) * y**4, y)
        if min(power_region_values(q)) >= 1e-3:
            return p, q


# -- probe_scatter: two lenses and an l4 ball, all containing the center -----
#
# The probe's cost is dominated by a few heavy-tailed penalty-ladder solves,
# whose number depends on where the samples fall relative to the lens tips.
# To keep the load of a run the same for every seed, the relative geometry of
# an op (template angle and errorbound sample seed) comes from a fixed pool of
# PROBE_SHAPES shapes, which every run cycles through from a seeded start.
# The seed moves each op's problem and center by a seeded translation, which
# keeps the samples' positions relative to the sets (the probe samples
# center + radius * u) while changing every coordinate of the inputs.

PROBE_SHAPES = 16
LENS_RADIUS = 0.5
LENS_OFFSET = 0.3  # lens = two disks of LENS_RADIUS centred at +-offset * u
QUARTIC_RADIUS = 0.35
QUARTIC_SHIFT = 0.05
TRANSLATION = 1.0  # each center coordinate is drawn from [-TRANSLATION, TRANSLATION]


def _padd(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0}


def _pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _ppow(p, k):
    out = {(0, 0): 1.0}
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _affine(a, b, c):
    return {e: v for e, v in (((1, 0), a), ((0, 1), b), ((0, 0), c)) if v != 0.0}


def _disk_poly(cx, cy, r):
    return _padd(_padd(_ppow(_affine(1.0, 0.0, -cx), 2), _ppow(_affine(0.0, 1.0, -cy), 2)), {(0, 0): -r * r})


def _rotated_quartic_poly(cx, cy, r, phi):
    c, s = math.cos(phi), math.sin(phi)
    u = _affine(c, s, -(c * cx + s * cy))
    v = _affine(-s, c, -(-s * cx + c * cy))
    return _padd(_padd(_ppow(u, 4), _ppow(v, 4)), {(0, 0): -(r**4)})


def poly_value(terms, point) -> float:
    return sum(c * point[0] ** e[0] * point[1] ** e[1] for e, c in terms.items())


def _set_doc(name, polys):
    return {
        "name": name,
        "constraints": [
            {"terms": [{"exponents": list(e), "coefficient": c} for e, c in sorted(p.items())]}
            for p in polys
        ],
    }


def probe_shape(j: int):
    """(template angle, errorbound sample seed) of pool shape ``j``."""
    rng = random.Random(f"perfbench/probe_scatter/shape/{j}")
    return rng.uniform(0.0, 2.0 * math.pi), rng.randrange(2**31)


def probe_problem(seed: int, index: int):
    """(problem document, center, errorbound sample seed) for one probe op."""
    first = rng_for("probe_scatter", seed, -1).randrange(PROBE_SHAPES)
    phi, sample_seed = probe_shape((first + index) % PROBE_SHAPES)
    rng = rng_for("probe_scatter", seed, index)
    cx, cy = rng.uniform(-TRANSLATION, TRANSLATION), rng.uniform(-TRANSLATION, TRANSLATION)
    sets = []
    for k, ang in enumerate((phi, phi + math.pi / 3.0)):
        ux, uy = LENS_OFFSET * math.cos(ang), LENS_OFFSET * math.sin(ang)
        sets.append(_set_doc(f"lens-{k}", [_disk_poly(cx + ux, cy + uy, LENS_RADIUS),
                                           _disk_poly(cx - ux, cy - uy, LENS_RADIUS)]))
    qx = cx + QUARTIC_SHIFT * math.cos(phi + 1.0)
    qy = cy + QUARTIC_SHIFT * math.sin(phi + 1.0)
    sets.append(_set_doc("quartic-ball", [_rotated_quartic_poly(qx, qy, QUARTIC_RADIUS, phi + math.pi / 4.0)]))
    return {"dimension": 2, "sets": sets}, (cx, cy), sample_seed


def problem_constraints(doc):
    """Constraint polynomials of a problem document as exponent -> coefficient maps."""
    return [
        {tuple(t["exponents"]): t["coefficient"] for t in c["terms"]}
        for s in doc["sets"]
        for c in s["constraints"]
    ]


def center_margin(doc, center) -> float:
    """Largest constraint value over the center and a ring of CENTER_RING around it."""
    pts = [center] + [
        (center[0] + CENTER_RING * math.cos(t), center[1] + CENTER_RING * math.sin(t))
        for t in (2.0 * math.pi * k / 32 for k in range(32))
    ]
    return max(poly_value(g, p) for g in problem_constraints(doc) for p in pts)


def problem_json(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"
