#!/usr/bin/env python3
"""Building certified extremal trees for a degree sequence.

build_min returns a tree whose matching number is as large as possible
(hence nullity as small as possible) together with an explicit maximum
matching.  build_max goes the other way and additionally reports its
connector structure: the vertices V_K spaced two apart along a path P_K,
the last connector v_mk, how many leaves touch it (l_mk), and the matchings
M_K, M_J, M_s that witness minimality.

verify_certificate re-derives every claim with independent machinery
(greedy leaf-to-parent matching, exact integer rank, breadth-first
distances), so a certificate is never taken on faith.
"""

from treenullity import (
    build_max,
    build_min,
    parse_sequence,
    verify_certificate,
)

print(__doc__)

s = parse_sequence("4,3,3,2,2,1,1,1,1,1,1")
print(f"=== minimum nullity for {s} ===")
cert = build_min(s)
print(cert.tree.to_dot())
print(f"branch: {cert.branch}")
print(f"witness matching ({cert.matching.size} edges): {list(cert.matching.edges)}")
print(f"nullity: {cert.tree.nullity()}")
print()

print(f"=== maximum nullity for {s} ===")
cmax = build_max(s)
print(cmax.tree.to_dot())
print(f"connectors V_K = {list(cmax.v_k)} (omega = {cmax.omega})")
print(f"v_mk = {cmax.v_mk} with {cmax.l_mk} leaf neighbors; P_K = {list(cmax.p_k)}")
print(f"M_K = {list(cmax.m_k.edges)}")
print(f"M_J = {list(cmax.m_j.edges)}")
print(f"M_s = {list(cmax.m_s.edges)}  ->  nu = {cmax.m_s.size}, nullity = {cmax.tree.nullity()}")
print()

print("=== verification reports ===")
for label, cert_ in (("min", cert), ("max", cmax)):
    report = verify_certificate(cert_, s)
    print(f"{label}: ok = {report.ok}")
    for c in report.checks:
        mark = "ok" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"  [{mark}] {c.name}{detail}")
    print()

print("Both trees realize the same degree multiset with different spectra:")
print(f"  min-nullity tree: nullity {cert.tree.nullity()}")
print(f"  max-nullity tree: nullity {cmax.tree.nullity()}")
