"""Fixture ideals for the tests: the projective-plane triangulation."""

from __future__ import annotations

import json
from pathlib import Path

from cmreg.fields import GF, DEFAULT_PRIME
from cmreg.groebner import Ideal
from cmreg.orders import GREVLEX, MonomialOrder
from cmreg.polynomials import PolyRing

DATA = Path(__file__).resolve().parent / "data"


def projective_plane_complex() -> dict:
    """The 6-vertex triangulation of the real projective plane."""
    path = DATA / "rp2_triangulation.json"
    return json.loads(path.read_text(encoding="utf-8"))


def projective_plane_ideal(p: int = DEFAULT_PRIME) -> Ideal:
    """Stanley-Reisner ideal of the 6-vertex projective-plane triangulation.

    Ten squarefree cubic monomial generators (the minimal non-faces, which
    are the complements of the ten faces) in GF(p)[x1..x6] under grevlex.
    """
    data = projective_plane_complex()
    vertices = data["vertices"]
    faces = [frozenset(f) for f in data["faces"]]
    field = GF(p)
    names = tuple(f"x{v}" for v in vertices)
    ring = PolyRing(names, field, MonomialOrder(GREVLEX, len(names)))
    index = {v: i for i, v in enumerate(vertices)}
    gens = []
    for face in sorted(sorted(f) for f in faces):
        complement = [v for v in vertices if v not in face]
        exps = [0] * len(vertices)
        for v in complement:
            exps[index[v]] = 1
        gens.append(ring.poly({tuple(exps): 1}))
    return Ideal(ring, gens)
