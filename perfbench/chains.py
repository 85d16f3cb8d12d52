"""The benchmark's workloads: chains of ratassoc CLI commands, and the
checks that every command's output meets the paper's closed forms.

A workload's plan is a list of units, drawn once per run from the seed;
each unit runs one or more CLI commands through a ``Chain``, which times
and checks them.  Every chain of a run repeats the same plan.

The checks recompute Kirkman, Narayana and C(b,a)/b with ``math.comb`` and
share no code with ratassoc, its certificate verifier included.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from math import comb, gcd
from pathlib import Path
from time import perf_counter
from typing import Callable

# -- closed forms ---------------------------------------------------------


def kirkman(a: int, b: int, i: int) -> int:
    """Faces of the lattice-path model with i-1 diagonals."""
    return comb(a, i) * comb(b + i - 1, i - 1) // a


def narayana(a: int, b: int, i: int) -> int:
    return comb(a, i) * comb(b - 1, i - 1) // a


def spheres(a: int, b: int) -> int:
    """Number of (a-2)-spheres in the wedge the lattice-path model is."""
    return comb(b, a) // b


def is_fuss(a: int, b: int) -> bool:
    """b = 1 mod a: the two models coincide and the collapse is empty."""
    return b % a == 1


def coprime_pairs(max_b: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(3, max_b + 1) for a in range(2, b) if gcd(a, b) == 1]


# -- output checks --------------------------------------------------------
# Each returns the list of ways the parsed stdout misses its closed form.


def _mismatches(doc: dict, want: dict) -> list[str]:
    return [f"{k} = {doc.get(k)!r}, expected {v!r}" for k, v in want.items() if doc.get(k) != v]


def check_collapse(doc: dict, a: int, b: int, cert: Path) -> list[str]:
    problems = _mismatches(doc, {"a": a, "b": b, "written": str(cert)})
    steps = doc.get("steps")
    if not isinstance(steps, int) or (steps == 0) != is_fuss(a, b):
        problems.append(f"steps = {steps!r}; expected 0 exactly for Fuss pairs")
    return problems


def check_verify(doc: dict, a: int, b: int, steps: int | None) -> list[str]:
    want = {
        "a": a,
        "b": b,
        "ok": True,
        "target_matched": True,
        "failure_index": None,
        "terminal_face_count": sum(kirkman(a, b, i) for i in range(1, a + 1)),
        "steps_applied": steps,
    }
    return _mismatches(doc, want)


def check_rejected(doc: dict) -> list[str]:
    return _mismatches(doc, {"ok": False})


def check_homology(doc: dict, a: int, b: int, model: str) -> list[str]:
    wedge = {str(a - 2): spheres(a, b)}
    return _mismatches(doc, {"a": a, "b": b, "model": model, "reduced_betti_nonzero": {"gf2": wedge, "q": wedge}})


def check_fvector(doc: dict, a: int, b: int) -> list[str]:
    f = [kirkman(a, b, i) for i in range(1, a + 1)]
    h = [narayana(a, b, i) for i in range(1, a + 1)]
    return _mismatches(doc, {"a": a, "b": b, "f": f, "kirkman": f, "h": h, "narayana": h})


def check_duality(doc: dict, b: int) -> list[str]:
    rows = [
        {"a": a, "dual_a": b - a, "expected_rank": spheres(a, b), "rank_left": spheres(a, b),
         "rank_right": spheres(a, b), "ok": True}
        for a in range(1, b)
        if gcd(a, b) == 1
    ]
    want = {"b": b, "ok": True, "partition_ok": True, "total_diagonals": (b + 1) * (b - 2) // 2, "duality": rows}
    return _mismatches(doc, want)


# -- running commands -----------------------------------------------------


def call_main(main: Callable[[list[str]], int], argv: list[str]) -> int:
    """``main(argv)``, with an argparse exit turned into its exit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


# Host speed drifts by tens of percent over tens of seconds when other
# tenants load the machine.  A fixed kernel, timed between commands,
# measures that drift; each command's time is scaled by it.
CAL_EVERY = 0.3  # seconds between calibrations
CAL_REF_S = 0.0125  # the kernel's time on a quiet 2-vCPU VM, Python 3.11.7


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes: set and dict work on
    20,000 64-bit ints, the kind of work ratassoc does on face masks."""
    start = perf_counter()
    x = 0x9E3779B97F4A7C15
    masks: set[int] = set()
    low: dict[int, int] = {}
    for i in range(20000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        masks.add(x)
        low[x & 0xFFFF] = i
    sum(1 for m in masks if m >> 7 in masks)
    return perf_counter() - start


class Chain:
    """One chain: runs CLI commands in order, timing and checking each.

    ``commands`` holds ``(kind, command line, seconds, calibration index)``
    per command; ``cals`` the calibration times, one at the start, one
    before any command that begins ``CAL_EVERY`` after the last, and one
    from ``close``.  A tampered-certificate verification has its own kind,
    ``tamper``, so ``verify`` covers genuine certificates only.  With a
    tracer each command is a ``cli.<command>`` span, and its time is that
    span's.
    """

    def __init__(self, main: Callable[[list[str]], int], work: Path, tracer=None):
        self.main = main
        self.work = work
        self.tracer = tracer
        self.commands: list[tuple[str, str, float, int]] = []
        self.cals = [calibrate()]
        self.last_cal = perf_counter()
        self.cert_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(seconds for _, _, seconds, _ in self.commands)

    def close(self) -> None:
        self.cals.append(calibrate())

    def scaled(self) -> list[tuple[str, str, float]]:
        """``(kind, command line, seconds at the reference host speed)``:
        each time by CAL_REF_S over the mean calibration either side of it."""
        return [(kind, line, seconds * 2 * CAL_REF_S / (self.cals[i] + self.cals[i + 1]))
                for kind, line, seconds, i in self.commands]

    def run(self, kind: str, argv: list[str], check: Callable[[dict], list[str]], expect_rc: int = 0) -> dict | None:
        """Run one command; return its parsed stdout, or None."""
        if perf_counter() - self.last_cal >= CAL_EVERY:
            self.cals.append(calibrate())
            self.last_cal = perf_counter()
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.begin("cli." + argv[0]) if self.tracer else None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = call_main(self.main, argv)
        except Exception as exc:  # a crash fails this command, not the run
            rc, crash = None, exc
        else:
            crash = None
        if span is None:
            seconds = perf_counter() - start
        else:
            self.tracer.end(span)
            seconds = span[3] - span[2]
        line = " ".join(argv)
        self.commands.append((kind, line, seconds, len(self.cals) - 1))
        doc = None
        if crash is not None:
            problems = [f"raised {crash!r}"]
        else:
            problems = [] if rc == expect_rc else [f"exit code {rc}, expected {expect_rc}"]
            try:
                doc = json.loads(out.getvalue())
            except ValueError:
                problems.append("stdout is not JSON")
            else:
                problems += check(doc)
        if problems:
            self.failures.append(f"{line}: {'; '.join(problems)}")
        return doc


# -- units ------------------------------------------------------------------


def collapse_and_verify(a: int, b: int, chain: Chain, tamper: bool = False) -> None:
    """``collapse --emit`` then ``verify``: one unit, as verify reads the file.

    With ``tamper``, a copy of a non-empty certificate with its first step
    dropped must be rejected with exit code 1: a verifier that checks less
    shows here as a failed command.
    """
    cert = chain.work / f"cert-{a}-{b}.json"
    col = chain.run("collapse", ["collapse", "--a", str(a), "--b", str(b), "--emit", str(cert)],
                lambda d: check_collapse(d, a, b, cert))
    if cert.exists():
        chain.cert_bytes += cert.stat().st_size
    steps = col.get("steps") if col else None
    chain.run("verify", ["verify", "--cert", str(cert)], lambda d: check_verify(d, a, b, steps))
    if tamper and steps:
        doc = json.loads(cert.read_text(encoding="utf-8"))
        doc["steps"] = doc["steps"][1:]
        bad = chain.work / f"tampered-{a}-{b}.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        chain.run("tamper", ["verify", "--cert", str(bad)], check_rejected, expect_rc=1)


def homology(a: int, b: int, model: str, chain: Chain) -> None:
    chain.run("homology", ["homology", "--a", str(a), "--b", str(b), "--model", model, "--field", "both"],
          lambda d: check_homology(d, a, b, model))


def fvector(a: int, b: int, chain: Chain) -> None:
    chain.run("fvector", ["fvector", "--a", str(a), "--b", str(b)], lambda d: check_fvector(d, a, b))


def duality(b: int, chain: Chain) -> None:
    chain.run("duality", ["duality", "--b", str(b)], lambda d: check_duality(d, b))


def pair_units(a: int, b: int) -> list[Callable[[Chain], None]]:
    """Every command kind that takes a pair, for the pair (a, b)."""
    return [
        partial(collapse_and_verify, a, b, tamper=True),
        partial(homology, a, b, "ass"),
        partial(homology, a, b, "hat"),
        partial(fvector, a, b),
    ]


# -- workloads ----------------------------------------------------------------
# Every workload runs every command kind, so every end-to-end metric is
# measured on each; the sizes decide which layer a workload stresses.


def certify(rng: random.Random) -> list[Callable[[Chain], None]]:
    """The reference pair (7,12): certificate I/O and the collapse engine."""
    units = [
        partial(collapse_and_verify, 7, 12),
        partial(homology, 7, 12, "ass"),
        partial(fvector, 7, 12),
        partial(duality, 8),
    ]
    rng.shuffle(units)
    return units


def invariants(rng: random.Random) -> list[Callable[[Chain], None]]:
    """Closed forms on large complexes; the collapse is the empty one of a
    Fuss pair, so the engine and certificate I/O do no work."""
    units = [
        partial(homology, 7, 12, "ass"),
        partial(homology, 7, 12, "hat"),
        partial(fvector, 8, 13),
        partial(duality, 9),
        partial(collapse_and_verify, 8, 9),
    ]
    rng.shuffle(units)
    return units


SWEEP_MAX_B = 8


def sweep(rng: random.Random) -> list[Callable[[Chain], None]]:
    """Every coprime pair 2 <= a < b <= SWEEP_MAX_B and every duality b,
    in seeded order: many small inputs, so per-call costs show."""
    units = [u for a, b in coprime_pairs(SWEEP_MAX_B) for u in pair_units(a, b)]
    units += [partial(duality, b) for b in range(3, SWEEP_MAX_B + 1)]
    rng.shuffle(units)
    return units


WORKLOADS = {"certify": certify, "invariants": invariants, "sweep": sweep}
