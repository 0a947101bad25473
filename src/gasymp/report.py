"""Analysis pipeline and deterministic report documents.

A report is a plain nested dict rendered either as canonical JSON (stable
key order, no wall-clock content, so identical configurations give
byte-identical output) or as human-readable text (which may carry timings).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .comparison import (build_embedding, embedding_checks, naive_embedding,
                         verify_boundary_unit, verify_embedding_into_zero_level,
                         verify_family_scaling)
from .groebner import GroebnerCaps
from .invariants import QuotientRing, essen_derksen, section_sigma
from .levelsets import (GENERIC, Hypersurface, check_moment_vanishes_on_unstable,
                        classify, components, stable_complement_codim,
                        unstable_locus)
from .moments import moment_triple, sl2_moment_w
from .poly import format_poly
from .reps import GaRep, parse_rep

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    rep_spec: str
    level: object = Fraction(0)  # Fraction or "generic"
    degree_bound: int = 6
    caps: GroebnerCaps = GroebnerCaps()
    naming: str = "std"  # std | cox

    def level_str(self) -> str:
        return "generic" if self.level == GENERIC else str(self.level)


def parse_rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_level(text: str):
    if text.strip() == GENERIC:
        return GENERIC
    return parse_rational(text)


def analyze(config: RunConfig) -> dict:
    """Full pipeline: moments -> level-set geometry -> stability ->
    invariants -> comparison.  Timings are reported separately (text only)."""
    timings: dict = {}
    t_start = time.perf_counter()
    rep = GaRep(parse_rep(config.rep_spec).summands, config.naming)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "rep": config.rep_spec,
            "normalized_rep": rep.spec(),
            "level": config.level_str(),
            "degree_bound": config.degree_bound,
            "caps": [config.caps.max_degree, config.caps.max_pairs, config.caps.max_basis],
            "naming": config.naming,
        },
        "timings": None,
    }

    if rep.is_trivial:
        doc["degenerate"] = {
            "trivial_action": True,
            "note": "trivial action: the moment map vanishes; level sets are "
                    "empty for nonzero levels and all of the cotangent space at zero",
        }
        return doc

    t0 = time.perf_counter()
    triple = moment_triple(rep)
    doc["moments"] = {
        "phi_h": format_poly(triple.phi_h),
        "phi_e": format_poly(triple.phi_e),
        "phi_f": format_poly(triple.phi_f),
        "ga_moment": format_poly(triple.phi_e),
        "enveloping_zero_level": [format_poly(c) for c in sl2_moment_w(rep)],
    }
    timings["moments"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    surface = Hypersurface.at(rep, config.level)
    geometry = classify(surface, config.caps)
    doc["geometry"] = {
        "irreducible": geometry.irreducible,
        "smooth": geometry.smooth,
        "normal": geometry.normal,
        "dim_hypersurface": geometry.dim_hypersurface,
        "dim_singular_locus": geometry.dim_singular,
        # the zero-level comparison is part of the certification; elsewhere
        # the singular locus is empty and the comparison is vacuous
        "singular_equals_fixed": geometry.certified if surface.is_zero_level() else None,
        "certified": geometry.certified,
        "notes": list(geometry.notes),
        "components": ([[format_poly(g) for g in ideal.gens] for ideal in geometry.components]
                       if geometry.components else None),
    }
    timings["geometry"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    unstable, weights = unstable_locus(rep)
    stability = {
        "unstable_ideal": [format_poly(g) for g in unstable.gens],
        "torus_weights": {name: weights[name] for name in rep.table_tv().names},
        "moment_vanishes_on_unstable": bool(check_moment_vanishes_on_unstable(rep, config.caps)),
    }
    stability["stable_complement_codim"] = stable_complement_codim(rep, config.caps)
    doc["stability"] = stability
    timings["stability"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    doc["invariants"] = _invariants_section(rep, config, surface, geometry)
    timings["invariants"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    doc["comparison"] = _comparison_section(rep, config, surface)
    timings["comparison"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start
    doc["_timings_seconds"] = {k: round(v, 3) for k, v in timings.items()}
    return doc


def _invariants_section(rep, config, surface, geometry) -> dict:
    level = surface.level
    if level == GENERIC:
        return {"note": "invariant computation runs at explicit levels; "
                        "use --level 0 or a rational value"}
    out = {}
    ring = QuotientRing.level_set(rep, level, config.caps)
    report = essen_derksen(ring, config.degree_bound)
    out["level_set"] = {
        "generators": [format_poly(g) for g in report.generators],
        "certified_degree": report.certified_degree,
        "termination": report.termination,
        "notes": list(report.notes),
    }
    if geometry.components:
        comps = []
        for ideal, deriv in components(surface, config.caps):
            sub = QuotientRing(ideal.table, ideal, deriv, config.caps)
            crep = essen_derksen(sub, config.degree_bound)
            comps.append({
                "component": [format_poly(g) for g in ideal.gens],
                "generators": [format_poly(g) for g in crep.generators],
                "certified_degree": crep.certified_degree,
                "termination": crep.termination,
                "notes": list(crep.notes),
            })
        out["normalization_components"] = comps
    return out


def _comparison_section(rep, config, surface) -> dict:
    out = {}
    sigma = section_sigma(rep)
    out["section"] = {
        "coefficients": [str(c) for c in sigma.coefficients],
        "solution_space_dim": sigma.solution_dim,
        "sigma": format_poly(sigma.sigma),
    }
    out["boundary_unit_check"] = bool(verify_boundary_unit(rep))
    out["scaling_family"] = bool(verify_family_scaling(rep))
    if surface.is_zero_level():
        emb = {}
        for kind in ("i", "j"):
            emb[kind] = embedding_checks(rep, build_embedding(rep, kind, Fraction(1)),
                                         config.caps)
        emb["naive_inclusion_fails"] = not verify_embedding_into_zero_level(
            rep, naive_embedding(rep), config.caps)
        out["embeddings"] = emb
    else:
        out["embeddings"] = {
            "note": "embeddings into the enveloping zero level exist only over "
                    "the zero level; nonzero levels are compared through the "
                    "scaling family",
        }
    return out


def render_structured(doc: dict) -> str:
    """Canonical JSON: deterministic for a fixed configuration."""
    clean = {k: v for k, v in doc.items() if k != "_timings_seconds"}
    clean["timings"] = None
    return json.dumps(clean, sort_keys=True, indent=2) + "\n"


def render_invariants(inv: dict) -> list:
    """The text lines of an invariants section, shared by the analyze and
    invariants commands: the level set, then each normalization component,
    each with its termination, certified degree, generators and notes."""
    if "note" in inv:
        return ["invariants:", "  " + inv["note"]]
    lines = ["invariants:"]
    parts = [("level set", inv["level_set"])] + [
        (f"component ({', '.join(c['component'])})", c)
        for c in inv.get("normalization_components", [])]
    for head, part in parts:
        lines.append(f"  {head} [{part['termination']}, "
                     f"certified to degree {part['certified_degree']}]:")
        lines += [f"    {gen}" for gen in part["generators"]]
        lines += [f"    note: {note}" for note in part["notes"]]
    return lines


def render_text(doc: dict) -> str:
    lines = []
    cfg = doc["config"]
    lines.append(f"representation {cfg['normalized_rep']} at level {cfg['level']}")
    if "degenerate" in doc:
        lines.append("  " + doc["degenerate"]["note"])
        return "\n".join(lines) + "\n"
    m = doc["moments"]
    lines.append("moment maps:")
    lines.append(f"  Phi_H = {m['phi_h']}")
    lines.append(f"  Phi_E = {m['phi_e']}  (additive moment map)")
    lines.append(f"  Phi_F = {m['phi_f']}")
    lines.append("enveloping zero-level equations:")
    for eq in m["enveloping_zero_level"]:
        lines.append(f"  {eq} = 0")
    g = doc["geometry"]
    lines.append("level-set geometry:")
    lines.append(f"  irreducible={g['irreducible']} smooth={g['smooth']} normal={g['normal']}"
                 f" dim={g['dim_hypersurface']} dim(sing)={g['dim_singular_locus']}"
                 f" certified={g['certified']}")
    if g["components"]:
        lines.append("  components: " + "; ".join("(" + ", ".join(c) + ")" for c in g["components"]))
    s = doc["stability"]
    lines.append("stability:")
    lines.append("  unstable ideal: (" + ", ".join(s["unstable_ideal"]) + ")")
    lines.append(f"  moment map vanishes on unstable locus: {s['moment_vanishes_on_unstable']}")
    lines.append(f"  stable-complement codimension: {s['stable_complement_codim']}")
    lines += render_invariants(doc["invariants"])
    c = doc["comparison"]
    lines.append("comparison:")
    lines.append(f"  section coefficients: ({', '.join(c['section']['coefficients'])})"
                 f" [solution space dim {c['section']['solution_space_dim']}]")
    lines.append(f"  boundary unit check: {c['boundary_unit_check']}")
    lines.append(f"  scaling family identities: {c['scaling_family']}")
    emb = c["embeddings"]
    if "note" in emb:
        lines.append("  " + emb["note"])
    else:
        for kind in ("i", "j"):
            e = emb[kind]
            lines.append(f"  embedding {kind}_1: zero-level={e['lands_in_zero_level']}"
                         f" equivariant={e['equivariant']} form-pullback={e['liouville_pullback']}")
        lines.append(f"  naive constant-fiber inclusion fails: {emb['naive_inclusion_fails']}")
    if "_timings_seconds" in doc:
        t = doc["_timings_seconds"]
        lines.append("timings (s): " + ", ".join(f"{k}={v}" for k, v in t.items()))
    return "\n".join(lines) + "\n"
