"""Map the offer beliefs that put the alpha = 3 switch in its reference window.

The high-spite switch kappa-tilde(3) is a known divergence (README, Known
divergences): the default configuration gives about 0.0172, the reference
window is 0.03 +/- 0.01. The alpha = 0.5 anchor pins the curve, the
threshold belief and the kappa weighting, but not the offer belief. This
script varies the offer belief alone over scaled Beta(a, b) shapes on
[0, w/2], keeping CRRA(0.05), Beta(2, 4) thresholds and w = 10:

    python3 scripts/offer_belief_scan.py

It prints a Markdown table of kappa-tilde(3), in bold where it lies inside
0.03 +/- 0.01, then the alpha = 0.5 switch (comparative_statics on
kappa 0.40..0.52) over the same grid, which does not move: the constrained
offer reads only the threshold belief. Shapes below 1 are left out; their
density is infinite at an end of the support. No default changes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from moralbargain import (  # noqa: E402
    BeliefDistribution,
    PayoffCurve,
    comparative_statics,
    kappa_tilde,
)

W = 10.0
SHAPES = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT = (2.0, 4.0)
WINDOW = (0.02, 0.04)


def switch_at_half(curve, thresholds, offers) -> float:
    """The alpha = 0.5 region switch in kappa."""
    res = comparative_statics(0.5, np.linspace(0.40, 0.52, 4), curve, thresholds, offers, W)
    (switch,) = res.switches
    return switch.kappa


def main() -> None:
    curve = PayoffCurve.crra(0.05)
    thresholds = BeliefDistribution.scaled_beta(*DEFAULT, W)
    print("kappa-tilde(3) under Beta(a, b) offer beliefs; bold: inside 0.03 +/- 0.01\n")
    print("| a \\ b | " + " | ".join(f"{b:g}" for b in SHAPES) + " |")
    print("| --- |" + " --- |" * len(SHAPES))
    switches = set()
    for a in SHAPES:
        cells = []
        for b in SHAPES:
            offers = BeliefDistribution.scaled_beta(a, b, W)
            k = kappa_tilde(3.0, curve, thresholds, offers, W)
            cell = f"{k:.4f}"
            if WINDOW[0] <= k <= WINDOW[1]:
                cell = f"**{cell}**"
            if (a, b) == DEFAULT:
                cell += " (default)"
            cells.append(cell)
            switches.add(switch_at_half(curve, thresholds, offers))
        print(f"| {a:g} | " + " | ".join(cells) + " |")
    print(f"\nalpha = 0.5 switch over the {len(SHAPES) ** 2} offer beliefs: "
          + ", ".join(repr(s) for s in sorted(switches)))


if __name__ == "__main__":
    main()
