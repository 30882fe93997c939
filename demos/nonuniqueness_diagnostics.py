"""When point-source recovery provably fails, and how to detect it.

Three families of obstructions:
  * on the line, sensors must interleave with the sources;
  * in the plane/space, sensors must be in general position, and a
    +q/-q mirror pair is invisible on its bisector no matter how many
    sensors sit there;
  * with several constant sources, too few sensors admit distinct
    configurations with identical data (six axis sensors cannot tell
    two diagonal pairs apart; a seventh sensor can).
"""

import numpy as np

from pointsource import identify1d, identifynd

# ---- 1D interleaving ----------------------------------------------------------
print("1D interleaving checks")
layouts = [
    ("all sensors right of the two leftmost sources",
     [0.2, 0.4], [0.5, 0.7, 0.9]),
    ("all sensors left of the two rightmost sources",
     [0.5, 0.7, 0.9], [0.1, 0.2]),
    ("three consecutive sources with no sensor in their span",
     [0.2, 0.4, 0.6], [0.1, 0.7]),
    ("alternating layout (no obstruction)",
     [0.2, 0.5, 0.8], [0.1, 0.35, 0.65, 0.9]),
]
for desc, xs, bs in layouts:
    findings = identify1d.alternation_findings(xs, bs)
    codes = [f["code"] for f in findings] or ["clean"]
    print(f"  {desc}: {codes}")

# ---- mirror pair on the bisector ----------------------------------------------
print("\nopposite-sign pair, probes on the bisecting plane")
rep = identifynd.nonuniqueness_discrepancy(1, a=1.0, m_dist=3.0)
print(f"  max |transform| over {rep.probes.shape[0]} bisector probes: "
      f"{rep.max_discrepancy:.2e}")
print(f"  matched-distance probe off the plane:      {rep.reference:.2e}")

# ---- two source pairs, six axis sensors ----------------------------------------
print("\ntwo diagonal source pairs against the six axis sensors")
rep2 = identifynd.nonuniqueness_discrepancy(2, a=1.0, m_dist=3.0)
print(f"  six-point discrepancy:   {rep2.max_discrepancy:.2e} "
      f"(rounding level)")
extra = identifynd.nonuniqueness_discrepancy(
    2, a=1.0, m_dist=3.0, probes=np.array([[1.0, 2.0, 0.0]]))
print(f"  generic seventh probe:   {extra.max_discrepancy:.2e}")
print(f"  separation factor:       "
      f"{extra.max_discrepancy / max(rep2.max_discrepancy, 1e-300):.1e}")

# ---- sensor-count sufficiency ---------------------------------------------------
print("\nsensor counts for r constant sources")
for r, s, n in ((2, 6, 3), (2, 7, 3), (1, 3, 2), (1, 2, 2)):
    ok = identifynd.sensor_count_sufficient(r, s, n)
    print(f"  n={n}, r={r}, s={s}: {'sufficient' if ok else 'insufficient'}")

# ---- general position -----------------------------------------------------------
print("\ngeneral-position check with a planted collinear triple")
pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]
ok, witness = identifynd.in_general_position(pts)
print(f"  ok={ok}, witness indices: {witness}")
