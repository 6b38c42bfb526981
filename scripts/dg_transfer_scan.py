"""Map the one-type dictator transfer around its reference value.

The one-type DG transfer is a known divergence (README, Known divergences):
at the printed estimates (alpha, beta, kappa) = (0.14, -0.01, 0.22), with
the shifted-log curve and w = 58.8, the model gives about 9.47 where the
reference reads 7.80. This script maps where 7.80 lies:

    python3 scripts/dg_transfer_scan.py

It prints, as Markdown:

- the transfer over the +/-0.005 rounding box of the printed estimates
  (27 points), as a kappa-by-beta table, after checking that the three
  alpha values of the box give the same transfer at every (beta, kappa);
- the transfer for alpha from -0.5 to 1 at the printed beta and kappa;
- the kappa (at the printed beta) and the beta (at the printed kappa) at
  which the transfer reaches 7.80, each by bisection on dg_transfer;
- the transfer at the printed estimates under the other curves, and
  under the shifted log at w = 50.

It runs in about a second. No default changes.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from moralbargain import PayoffCurve, PreferenceParams, dg_transfer  # noqa: E402

W = 58.8
PRINTED = (0.14, -0.01, 0.22)  # (alpha, beta, kappa)
REFERENCE = 7.80
HALF_BOX = 0.005
ALPHAS = (-0.5, -0.25, 0.0, 0.14, 0.5, 1.0)


def transfer(alpha, beta, kappa, curve=None, w=W) -> float:
    p = PreferenceParams(alpha=alpha, beta=beta, kappa=kappa)
    return dg_transfer(p, curve or PayoffCurve.shifted_log(), w)


def rounding_box() -> dict:
    """{(alpha, beta, kappa): transfer} over the 27 points of the box."""
    offsets = (-HALF_BOX, 0.0, HALF_BOX)
    return {
        point: transfer(*point)
        for point in (
            tuple(c + d for c, d in zip(PRINTED, delta))
            for delta in itertools.product(offsets, repeat=3)
        )
    }


def reaching(f, lo: float, hi: float, target: float = REFERENCE, tol: float = 1e-10) -> float:
    """The x in [lo, hi] where the increasing f(x) reaches target, by bisection."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def main() -> None:
    alpha0, beta0, kappa0 = PRINTED
    box = rounding_box()
    by_beta_kappa = {}
    for (_, b, k), t in box.items():
        by_beta_kappa.setdefault((b, k), set()).add(t)
    if any(len(ts) != 1 for ts in by_beta_kappa.values()):
        raise SystemExit("the transfer moved with alpha inside the rounding box")
    betas = sorted({b for b, _ in by_beta_kappa})
    kappas = sorted({k for _, k in by_beta_kappa})
    print(f"Transfer over the rounding box of {PRINTED} (w = {W}, shifted log); "
          "every alpha of the box gives the same value\n")
    print("| kappa \\ beta | " + " | ".join(f"{b:.3f}" for b in betas) + " |")
    print("| --- |" + " --- |" * len(betas))
    for k in kappas:
        print(f"| {k:.3f} | " + " | ".join(f"{min(by_beta_kappa[b, k]):.4f}" for b in betas) + " |")
    print(f"\nrange over the {len(box)} points: {min(box.values()):.4f} to "
          f"{max(box.values()):.4f}; reference {REFERENCE:.2f}")

    at_alpha = {a: transfer(a, beta0, kappa0) for a in ALPHAS}
    print("\ntransfer by alpha at the printed beta and kappa: "
          + ", ".join(f"{a:g}: {t!r}" for a, t in at_alpha.items()))

    k_star = reaching(lambda k: transfer(alpha0, beta0, k), 0.0, kappa0)
    b_star = reaching(lambda b: transfer(alpha0, b, kappa0), -0.2, beta0)
    print(f"\n{REFERENCE:.2f} is reached at kappa = {k_star:.4f} (beta = {beta0}) "
          f"or at beta = {b_star:.4f} (kappa = {kappa0})")

    print("\n| curve | w | transfer |")
    print("| --- | --- | --- |")
    for curve, w in (
        (PayoffCurve.shifted_log(), W),
        (PayoffCurve.shifted_log(), 50.0),
        (PayoffCurve.linear(), W),
        (PayoffCurve.crra(0.05), W),
    ):
        print(f"| {curve.kind}{'' if curve.crra_rho is None else f'({curve.crra_rho:g})'} "
              f"| {w:g} | {transfer(*PRINTED, curve, w):.4f} |")


if __name__ == "__main__":
    main()
