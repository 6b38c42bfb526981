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
  the multi-type logit E-step is in the set;
- a constant k=2 and a logit k=1 fit on that sample at lattice_step=0.1,
  whose refinement boxes reach twice as far.

Seed boxes clipped by a bound are in the set: every box of the sim9 fits
is cut at kappa = 0, and the sim400 fits cut boxes at alpha = -2.

Output depends on numpy's SIMD dispatch: transcendental ufuncs may round
differently under another target. Byte identity on one machine is the
gate. To check a dump saved on another machine:

    python3 scripts/fit_gate_dump.py --compare saved.txt

Names, integers, flags, every (alpha, beta, kappa) and n_iter must match
exactly; every other float (lambda, shares, loglik, EN, ICL and the
bootstrap SEs) within a relative REL_BOUND, NEC within NEC_REL_BOUND. The
posterior hashes are skipped: EN and the shares are computed from the
posterior. Exit status 1 on any difference.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import re
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

# Cross-machine rule. Measured on one x86_64 host between numpy's default
# (AVX-512) dispatch and NPY_DISABLE_CPU_FEATURES="X86_V4": every exact field
# matched, the floats moved by at most 8.8e-13 relative (a lambda of the
# logit k=2 fit) and NEC by at most 1.2e-8 (sim9 seed=1, where lnL_K - lnL_1,
# NEC's denominator, cancels to about 1e-7 of lnL). Each bound is about ten
# times its measurement.
REL_BOUND = 1e-11
NEC_REL_BOUND = 1e-7

_FLOAT = re.compile(
    r"(?<![\w.])(\w+=)?(-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|nan|-?inf)\b"
)
_EXACT = ("alpha=", "beta=", "kappa=")
_SE_HEX = re.compile(r"\b(param_se|share_se)=([0-9a-f]*)")
_HASH = re.compile(r" posterior_sha256=[0-9a-f]+")


def fit_line(name: str, fit) -> str:
    digest = hashlib.sha256(fit.posterior.tobytes()).hexdigest()
    return f"{name}: {dataclasses.replace(fit, posterior=None)!r} posterior_sha256={digest}"


def dump_lines() -> list[str]:
    lines = []
    out = lines.append
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
        out(fit_line(f"sim400 k={k} seed=2", fit))
    for k in (1, 2, 3):
        out(fit_line(f"sim777 k={k} seed=3", em_fit(recs777, games, curve, k=k, seed=3)))

    # TestEmFit
    one = (0.33, 0.09, 0.26, 0.02)
    out(fit_line("sim101 k=1 seed=0", em_fit(sample([one], [1.0], 100, 101), games, curve, k=1)))
    recs402 = sample([(0.05, 0.08, 0.25, 0.02), (0.28, -0.30, 0.19, 0.02)], [0.6, 0.4], 40, 402)
    out(fit_line("sim402 k=2 seed=2", em_fit(recs402, games, curve, k=2, seed=2)))
    recs9 = sample([(0.14, -0.01, 0.22, 0.25)], [1.0], 30, 9)
    for seed in (0, 1, 2):
        fit = em_fit(recs9, games, curve, k=2, seed=seed, restarts=2)
        out(fit_line(f"sim9 k=2 seed={seed} restarts=2", fit))
    recs17 = sample([(0.33, 0.09, 0.26, 0.0)], [1.0], 20, 17)
    out(fit_line("sim17 k=2 seed=0", em_fit(recs17, games, curve, k=2, seed=0)))

    se = bootstrap_se(recs400, games, curve, k=2, b=3, seed=2, base=fits400[2])
    out(f"bootstrap sim400 k=2 b=3 seed=2: b={se.b} unresolved={se.unresolved} "
        f"param_se={se.param_se.tobytes().hex()} share_se={se.share_se.tobytes().hex()}")

    logit = em_fit(recs400, games, curve, k=1, seed=2, choice_model="logit")
    out(fit_line("sim400 logit k=1 seed=2", logit))
    logit2 = em_fit(
        recs400, games, curve, k=2, seed=2, choice_model="logit", max_iter=3, restarts=2
    )
    out(fit_line("sim400 logit k=2 seed=2 max_iter=3 restarts=2", logit2))

    coarse = em_fit(recs400, games, curve, k=2, seed=2, lattice_step=0.1)
    out(fit_line("sim400 k=2 seed=2 lattice_step=0.1", coarse))
    coarse_logit = em_fit(
        recs400, games, curve, k=1, seed=2, choice_model="logit", lattice_step=0.1
    )
    out(fit_line("sim400 logit k=1 seed=2 lattice_step=0.1", coarse_logit))
    return lines


def _split(line: str):
    """(skeleton, [(key, float)]): the line with its toleranced floats cut out.

    The skeleton keeps the name, integers, flags and every alpha=, beta=
    and kappa= value; the posterior hash is dropped. key is the "name="
    just before a float, or None inside a tuple.
    """
    name, sep, body = line.partition(": ")
    body = _HASH.sub("", body)
    floats = []

    def hex_floats(m):
        values = memoryview(bytes.fromhex(m.group(2))).cast("d")
        floats.extend((m.group(1) + "=", float(x)) for x in values)
        return f"{m.group(1)}=<{len(values)}>"

    def cut(m):
        if m.group(1) in _EXACT:
            return m.group(0)
        floats.append((m.group(1), float(m.group(2))))
        return f"{m.group(1) or ''}<f>"

    body = _FLOAT.sub(cut, _SE_HEX.sub(hex_floats, body))
    return name + sep + body, floats


def _bound(key) -> float:
    return NEC_REL_BOUND if key == "nec=" else REL_BOUND


def _relative(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(saved: list[str], current: list[str]) -> list[str]:
    """Differences between two dumps under the cross-machine rule; [] if none."""
    if len(saved) != len(current):
        return [f"{len(saved)} lines saved, {len(current)} now"]
    bad = []
    for old, new in zip(saved, current):
        (old_skel, old_f), (new_skel, new_f) = _split(old), _split(new)
        if old_skel != new_skel:
            bad.append(f"exact fields differ:\n  saved {old_skel}\n  now   {new_skel}")
            continue
        for (key, a), (_, b) in zip(old_f, new_f):
            if _relative(a, b) > _bound(key):
                bad.append(f"{old.partition(': ')[0]}: {key or ''}{a!r} vs {b!r} "
                           f"beyond rel {_bound(key):g}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--compare", metavar="SAVED",
                        help="check against a saved dump under the cross-machine rule")
    args = parser.parse_args()
    lines = dump_lines()
    if args.compare is None:
        print("\n".join(lines))
        return 0
    saved = Path(args.compare).read_text().splitlines()
    bad = compare(saved, lines)
    for msg in bad:
        print(msg)
    print(f"{len(lines)} lines, {len(bad)} differences (exact: names, integers, flags, "
          f"alpha, beta, kappa; floats within rel {REL_BOUND:g}, NEC {NEC_REL_BOUND:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
