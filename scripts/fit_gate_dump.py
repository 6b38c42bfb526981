"""Print the estimation bit-identity set: every fit in full precision.

An M-step change that claims to keep the fits must leave this output
byte-identical. Run it on both commits and diff:

    python3 scripts/fit_gate_dump.py > after.txt

Each fit prints as the `repr` of its MixtureFit with the posterior
replaced by the sha256 of its bytes. The set:

- constant-model em_fit at k=1, 2 and 3 on the criterion-8 samples
  (simulation seed 400 with fit seed 2, and 777 with fit seed 3);
- the TestEmFit fits in tests/test_mixture.py (simulation seeds 101, 402,
  9 with fit seeds 0-2, and 17);
- bootstrap_se(b=3, seed=2) on the seed-400 k=2 fit, as raw bytes;
- the logit k=1 fit of the benchmark (seed-400 sample, fit seed 2);
- a logit k=2 fit on that sample (fit seed 2, max_iter=3, restarts=2), so
  the multi-type logit E-step is in the set.

Output depends on numpy's SIMD dispatch: transcendental ufuncs may round
differently under another target, so compare runs on one machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from moralbargain import (  # noqa: E402
    PayoffCurve,
    PreferenceParams,
    bootstrap_se,
    default_games,
    em_fit,
    simulate_choices,
)
from moralbargain.io import load_games_config  # noqa: E402


def fit_line(name: str, fit) -> str:
    digest = hashlib.sha256(fit.posterior.tobytes()).hexdigest()
    return f"{name}: {dataclasses.replace(fit, posterior=None)!r} posterior_sha256={digest}"


def main() -> None:
    curve = PayoffCurve.shifted_log()
    games = tuple(default_games()) + load_games_config(ROOT / "data" / "games_config.json")

    def sample(types, shares, n, seed):
        types = [PreferenceParams(*t) for t in types]
        return simulate_choices(types, shares, games, curve, n, seed=seed)[0]

    # criterion 8 (tests/test_acceptance.py) and the estimation benchmark
    recs400 = sample([(0.05, 0.08, 0.25, 0.28), (0.28, -0.30, 0.19, 0.16)], [0.61, 0.39], 100, 400)
    recs777 = sample([(0.05, 0.08, 0.25, 0.02), (0.28, -0.30, 0.19, 0.02)], [0.6, 0.4], 100, 777)
    fits400 = {k: em_fit(recs400, games, curve, k=k, seed=2) for k in (1, 2, 3)}
    for k, fit in fits400.items():
        print(fit_line(f"sim400 k={k} seed=2", fit))
    for k in (1, 2, 3):
        print(fit_line(f"sim777 k={k} seed=3", em_fit(recs777, games, curve, k=k, seed=3)))

    # TestEmFit
    one = (0.33, 0.09, 0.26, 0.02)
    print(fit_line("sim101 k=1 seed=0", em_fit(sample([one], [1.0], 100, 101), games, curve, k=1)))
    recs402 = sample([(0.05, 0.08, 0.25, 0.02), (0.28, -0.30, 0.19, 0.02)], [0.6, 0.4], 40, 402)
    print(fit_line("sim402 k=2 seed=2", em_fit(recs402, games, curve, k=2, seed=2)))
    recs9 = sample([(0.14, -0.01, 0.22, 0.25)], [1.0], 30, 9)
    for seed in (0, 1, 2):
        fit = em_fit(recs9, games, curve, k=2, seed=seed, restarts=2)
        print(fit_line(f"sim9 k=2 seed={seed} restarts=2", fit))
    recs17 = sample([(0.33, 0.09, 0.26, 0.0)], [1.0], 20, 17)
    print(fit_line("sim17 k=2 seed=0", em_fit(recs17, games, curve, k=2, seed=0)))

    se = bootstrap_se(recs400, games, curve, k=2, b=3, seed=2, base=fits400[2])
    print(f"bootstrap sim400 k=2 b=3 seed=2: b={se.b} unresolved={se.unresolved} "
          f"param_se={se.param_se.tobytes().hex()} share_se={se.share_se.tobytes().hex()}")

    logit = em_fit(recs400, games, curve, k=1, seed=2, choice_model="logit")
    print(fit_line("sim400 logit k=1 seed=2", logit))
    logit2 = em_fit(
        recs400, games, curve, k=2, seed=2, choice_model="logit", max_iter=3, restarts=2
    )
    print(fit_line("sim400 logit k=2 seed=2 max_iter=3 restarts=2", logit2))


if __name__ == "__main__":
    main()
