"""Three-beam magic-angle lattice geometry and its validity checks.

Each retroreflected beam carries linear polarization tilted so that
|eps_hat . z_hat| = cos(theta0) = 1/sqrt(3) with the DC field along z; the
rank-2 light shift of M = 0 states then cancels beam by beam. Beams at
mutually offset frequencies make cross-interference terms oscillate far
above the trap's motional frequency, so the time-averaged potential is the
sum of the three single-beam potentials. "Far above" is enforced by
configurable ratio thresholds (the physics only demands "much greater").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BeamConfig",
    "LatticePlan",
    "SeparationOfScalesError",
    "plan_paper_lattice",
    "validate_plan",
    "plan_to_json",
    "COS_THETA0",
]

COS_THETA0 = 1.0 / math.sqrt(3.0)

_UNIT_TOL = 1e-12
_PROJECTION_TOL = 1e-15


class SeparationOfScalesError(ValueError):
    """A required frequency hierarchy (nu >> delta >> f_mot) is violated."""


@dataclass(frozen=True)
class BeamConfig:
    """One retroreflected standing-wave beam."""

    name: str
    k_hat: tuple
    eps_hat: tuple
    nu_hz: float
    delta_hz: float   # offset from the reference beam

    def __post_init__(self):
        k = np.asarray(self.k_hat, dtype=float)
        e = np.asarray(self.eps_hat, dtype=float)
        if k.shape != (3,) or e.shape != (3,):
            raise ValueError("k_hat and eps_hat must be 3-vectors")

    @property
    def k(self) -> np.ndarray:
        return np.asarray(self.k_hat, dtype=float)

    @property
    def eps(self) -> np.ndarray:
        return np.asarray(self.eps_hat, dtype=float)


@dataclass(frozen=True)
class LatticePlan:
    beams: tuple              # three BeamConfig entries; beams[0] is the reference
    f_mot_hz: float
    ratio_threshold: float = 100.0


_SQ23 = math.sqrt(2.0 / 3.0)
_SQ13 = math.sqrt(1.0 / 3.0)
_SQ12 = math.sqrt(0.5)


def plan_paper_lattice(
    nu_a_hz: float,
    delta_b_hz: float,
    delta_c_hz: float,
    f_mot_hz: float,
    ratio_threshold: float = 100.0,
) -> LatticePlan:
    """The canonical three-beam plan: k along y and the two x+-z diagonals.

    Polarizations are fixed by transversality plus the magic-angle tilt
    |eps . z| = 1/sqrt(3). Frequencies are nu_a, nu_a + delta_b,
    nu_a + delta_c. Raises SeparationOfScalesError naming the failing
    inequality if the hierarchy nu >> delta >> f_mot (by the given ratio)
    does not hold, including the pairwise beat |delta_b - delta_c|.
    """
    k_a = (0.0, 1.0, 0.0)
    k_b = (_SQ12, 0.0, _SQ12)
    k_c = (_SQ12, 0.0, -_SQ12)
    eps_a = (_SQ23, 0.0, _SQ13)
    eps_b = (_SQ23 * k_c[0], _SQ13, _SQ23 * k_c[2])
    eps_c = (_SQ23 * k_b[0], _SQ13, _SQ23 * k_b[2])
    beams = (
        BeamConfig("a", k_a, eps_a, nu_a_hz, 0.0),
        BeamConfig("b", k_b, eps_b, nu_a_hz + delta_b_hz, delta_b_hz),
        BeamConfig("c", k_c, eps_c, nu_a_hz + delta_c_hz, delta_c_hz),
    )
    plan = LatticePlan(beams=beams, f_mot_hz=f_mot_hz, ratio_threshold=ratio_threshold)
    _check_scales(plan)
    return plan


def _beat_floor(plan: LatticePlan) -> float:
    deltas = [abs(b.delta_hz) for b in plan.beams[1:]]
    deltas.append(abs(plan.beams[1].delta_hz - plan.beams[2].delta_hz))
    return min(deltas)


def _check_scales(plan: LatticePlan):
    r = plan.ratio_threshold
    nu_min = min(b.nu_hz for b in plan.beams)
    delta_max = max(abs(b.delta_hz) for b in plan.beams[1:])
    if not nu_min > r * delta_max:
        raise SeparationOfScalesError(
            f"need nu >> delta: min nu = {nu_min:.6g} Hz is not > "
            f"{r:g} x max |delta| = {r * delta_max:.6g} Hz"
        )
    beat = _beat_floor(plan)
    if not beat > r * plan.f_mot_hz:
        raise SeparationOfScalesError(
            "need delta >> f_mot for every pairwise beat: min beat = "
            f"{beat:.6g} Hz (including |delta_b - delta_c|) is not > "
            f"{r:g} x f_mot = {r * plan.f_mot_hz:.6g} Hz"
        )


def validate_plan(plan: LatticePlan) -> list:
    """All violated invariants, as human-readable strings; empty if valid."""
    problems = []
    beams = plan.beams
    if len(beams) != 3:
        return [f"plan must contain exactly 3 beams, got {len(beams)}"]
    z = np.array([0.0, 0.0, 1.0])
    for b in beams:
        if abs(np.dot(b.k, b.k) - 1.0) > _UNIT_TOL:
            problems.append(f"beam {b.name}: k_hat is not unit length")
        if abs(np.dot(b.eps, b.eps) - 1.0) > _UNIT_TOL:
            problems.append(f"beam {b.name}: eps_hat is not unit length")
        if abs(np.dot(b.k, b.eps)) > _UNIT_TOL:
            problems.append(f"beam {b.name}: polarization not transverse (eps.k = {np.dot(b.k, b.eps):.3e})")
        proj = abs(float(np.dot(b.eps, z)))
        if abs(proj - COS_THETA0) > _PROJECTION_TOL:
            problems.append(
                f"beam {b.name}: |eps.z| = {proj:.17g} != cos(theta0) = {COS_THETA0:.17g} "
                "(magic-angle tilt violated)"
            )
    for i in range(3):
        for j in range(i + 1, 3):
            dot = float(np.dot(beams[i].k, beams[j].k))
            if abs(dot) > _UNIT_TOL:
                problems.append(
                    f"beams {beams[i].name},{beams[j].name}: k_hats not orthogonal (k.k = {dot:.3e})"
                )
    ref = beams[0]
    if ref.delta_hz != 0.0:
        problems.append(f"reference beam {ref.name} must have delta = 0")
    for b in beams[1:]:
        if abs((b.nu_hz - ref.nu_hz) - b.delta_hz) > 1e-9 * max(abs(b.nu_hz), 1.0):
            problems.append(f"beam {b.name}: nu - nu_ref != delta")
    if beams[1].delta_hz == beams[2].delta_hz:
        problems.append("offsets delta_b and delta_c must differ (DC interference between b and c)")
    try:
        _check_scales(plan)
    except SeparationOfScalesError as exc:
        problems.append(str(exc))
    return problems


def plan_to_json(plan: LatticePlan) -> str:
    doc = {
        "cos_theta0": COS_THETA0,
        "f_mot_hz": plan.f_mot_hz,
        "ratio_threshold": plan.ratio_threshold,
        "min_beat_hz": _beat_floor(plan),
        "beams": [
            {
                "name": b.name,
                "k_hat": list(b.k),
                "eps_hat": list(b.eps),
                "nu_hz": b.nu_hz,
                "delta_hz": b.delta_hz,
                "eps_dot_z": abs(float(b.eps[2])),
            }
            for b in plan.beams
        ],
        "violations": validate_plan(plan),
    }
    # allow_nan=False: a frequency that overflowed to inf is an error, not "Infinity"
    return json.dumps(doc, indent=1, allow_nan=False)
