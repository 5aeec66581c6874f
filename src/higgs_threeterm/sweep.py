"""Exhaustive sweep harness over bounded chain families.

Theorem mode walks every tail-stable admissible chain in the bounds and
asserts, per chain: the three-term inequality at every height, the tail
order r_n < r_1, and that a matching certificate builds, verifies, and has
exactly m_r pairs at every realized height.  The counting route and the
certificate route are also required to agree.  Any failure is recorded as
a violation carrying the full chain; nothing is ever dropped.

Necessity mode walks the admissible chains that are *not* tail-stable and
records every three-term violation found.  Here a nonempty list is the
point: it witnesses that the stability hypothesis cannot be removed.  The
report's pass flag is true when at least one witness exists.

The search space is partitioned by (length, first step), walking each
partition from the prefix (0, first step); partitions share nothing and
are merged in canonical order, so the report is independent of the worker
count (the timing field aside).  Every walked chain is admissible by its
step set (so `admissible` equals `generated`) and its stability is tested
once, so certificates are built without re-checking either hypothesis.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .chain import (
    RootSequence,
    enumeration_steps,
    extend_chain,
    multiplicities,
    tail_slopes,
    three_term_holds,
)
from .pairing import PairingFailure, _match_height, verify_certificate

WORKERS_ENV_VAR = "HIGGS_THREETERM_WORKERS"

MODE_THEOREM = "theorem"
MODE_NECESSITY = "necessity"


@dataclass(frozen=True)
class SweepParams:
    n_min: int
    n_max: int
    max_rise: int
    root_bound: int
    mode: str = MODE_THEOREM

    def __post_init__(self) -> None:
        if self.mode not in (MODE_THEOREM, MODE_NECESSITY):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if not 2 <= self.n_min <= self.n_max:
            raise ValueError(f"need 2 <= n_min <= n_max, got [{self.n_min}, {self.n_max}]")
        if self.max_rise < 2 or self.max_rise % 2 != 0:
            raise ValueError(f"max_rise must be even and >= 2, got {self.max_rise}")
        if self.root_bound < 0:
            raise ValueError(f"root_bound must be >= 0, got {self.root_bound}")


def default_workers() -> int:
    """Worker count from $HIGGS_THREETERM_WORKERS, or 1 when it is unset.

    A set value that is not an integer >= 1 raises ValueError.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    invalid = f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(invalid) from None
    if workers < 1:
        raise ValueError(invalid)
    return workers


def _check_stable_chain(seq: RootSequence) -> tuple[list[dict], int]:
    """All theorem-mode assertions for one tail-stable chain.

    Returns (violations, number of heights certified).
    """
    roots = list(seq.roots)
    violations: list[dict] = []

    profile = multiplicities(seq)
    counting_ok, tt_violations = three_term_holds(profile)
    for v in tt_violations:
        violations.append(
            {
                "roots": roots,
                "kind": "three-term",
                "detail": {"height": v.height, "count": v.count, "below": v.below, "above": v.above},
            }
        )

    if seq.roots[-1] >= seq.roots[0]:
        violations.append(
            {
                "roots": roots,
                "kind": "tail-order",
                "detail": {"first": seq.roots[0], "last": seq.roots[-1]},
            }
        )

    certificates_ok = True
    for r in sorted(profile.counts):
        try:
            cert = _match_height(seq, r)
        except PairingFailure as failure:
            certificates_ok = False
            violations.append(
                {"roots": roots, "kind": "certificate-build", "detail": failure.report()}
            )
            continue
        ok, reasons = verify_certificate(seq, cert)
        if not ok:
            certificates_ok = False
            violations.append(
                {
                    "roots": roots,
                    "kind": "certificate-verify",
                    "detail": {"height": r, "reasons": reasons},
                }
            )
        if len(cert.pairs) != profile[r]:
            certificates_ok = False
            violations.append(
                {
                    "roots": roots,
                    "kind": "certificate-count",
                    "detail": {"height": r, "pairs": len(cert.pairs), "multiplicity": profile[r]},
                }
            )

    if certificates_ok != counting_ok:
        violations.append(
            {
                "roots": roots,
                "kind": "route-disagreement",
                "detail": {"counting": counting_ok, "certificates": certificates_ok},
            }
        )
    return violations, len(profile.counts)


def _run_partition(args: tuple[int, int, int, int, str]) -> dict:
    n, first_step, max_rise, bound, mode = args
    steps = enumeration_steps(max_rise)
    generated = stable = certificates = 0
    violations: list[dict] = []
    for roots in extend_chain((0, first_step), n, steps, bound):
        seq = RootSequence(roots)
        generated += 1
        if tail_slopes(seq).is_stable:
            stable += 1
            if mode == MODE_THEOREM:
                found, n_heights = _check_stable_chain(seq)
                violations.extend(found)
                certificates += n_heights
        elif mode == MODE_NECESSITY:
            holds, tt_violations = three_term_holds(multiplicities(seq))
            if not holds:
                for v in tt_violations:
                    violations.append(
                        {
                            "roots": list(roots),
                            "kind": "three-term",
                            "detail": {
                                "height": v.height,
                                "count": v.count,
                                "below": v.below,
                                "above": v.above,
                            },
                        }
                    )
    return {
        "n": n,
        "generated": generated,
        "admissible": generated,
        "stable": stable,
        "certificates": certificates,
        "violations": violations,
    }


def run_sweep(params: SweepParams, workers: int = 1) -> dict:
    """Run the sweep and aggregate a deterministic report.

    Partitions are merged in (n, first step) order whatever the worker
    count, so reports differ only in the timing field.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    steps = enumeration_steps(params.max_rise)
    tasks = [
        (n, first_step, params.max_rise, params.root_bound, params.mode)
        for n in range(params.n_min, params.n_max + 1)
        for first_step in steps
    ]

    if workers == 1:
        results = [_run_partition(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_partition, tasks))

    per_n: dict[str, dict] = {}
    totals = {"generated": 0, "admissible": 0, "stable": 0, "certificates": 0}
    violations: list[dict] = []
    for res in results:
        bucket = per_n.setdefault(
            str(res["n"]), {"generated": 0, "admissible": 0, "stable": 0}
        )
        for key in ("generated", "admissible", "stable"):
            bucket[key] += res[key]
            totals[key] += res[key]
        totals["certificates"] += res["certificates"]
        violations.extend(res["violations"])

    violations.sort(
        key=lambda v: (len(v["roots"]), v["roots"], v["kind"], json.dumps(v["detail"], sort_keys=True))
    )
    elapsed = time.perf_counter() - started

    if params.mode == MODE_THEOREM:
        passed = not violations
    else:
        passed = bool(violations)

    return {
        "parameters": {
            "n_min": params.n_min,
            "n_max": params.n_max,
            "max_rise": params.max_rise,
            "root_bound": params.root_bound,
            "mode": params.mode,
        },
        "totals": totals,
        "per_n": {k: per_n[k] for k in sorted(per_n, key=int)},
        "violations": violations,
        "pass": passed,
        "timing_seconds": elapsed,
    }
