"""The four workloads: input files and the job list of one pass.

Each workload is drawn from a seed.  The seed picks a random relabelling of
every group's elements (three-digit labels, so the sorted point order, the LP
row order and the Bland path all change) and the parameters of the 3-point
structures.  It never changes a size.  `tiny` shrinks every size for the
smoke test.  Every job is one `semihyp` command line, run from the directory
the input files are written to; each carries the expected structure and
action the benchmark checks its output against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import reference as ref


@dataclass(frozen=True)
class Job:
    command: str
    argv: tuple[str, ...]
    structure: ref.Structure
    out: Optional[str] = None  # construct: the file the job writes
    action: Optional[ref.Action] = None  # fixpoint: the action file's content

    @property
    def rejected(self) -> bool:
        """A construct job whose result fails associativity is rejected."""
        return self.command == "construct" and not self.structure.associative


@dataclass(frozen=True)
class Workload:
    files: dict[str, str]  # relative path -> text, written during set-up
    jobs: tuple[Job, ...]

    def job_id(self, k: int) -> str:
        job = self.jobs[k]
        return f"{k:03d}-{job.command}-{job.structure.name}"


def _relabel(rng: random.Random, g: ref.Group) -> ref.Group:
    return g.relabel([str(c) for c in rng.sample(range(100, 1000), g.n)])


def _members(g: ref.Group, idx: Sequence[int]) -> str:
    return ",".join(g.labels[i] for i in idx)


def _construct(kind: str, s: ref.Structure, *args: str) -> Job:
    out = f"{s.name}.json"
    argv = ("construct", kind, *args, "--name", s.name, "--out", out, "--json")
    return Job("construct", argv, s, out=out)


def _check(s: ref.Structure) -> Job:
    return Job("check", ("check", f"{s.name}.json", "--json"), s)


def _lim(s: ref.Structure, *method: str) -> Job:
    return Job("lim", ("lim", f"{s.name}.json", *method, "--json"), s)


def _fixpoint(s: ref.Structure, path: str, action: ref.Action, *mode: str) -> Job:
    return Job("fixpoint", ("fixpoint", f"{s.name}.json", path, *mode, "--json"), s,
               action=action)


def order24(rng: random.Random, tiny: bool) -> Workload:
    """S4 as a point-mass semigroup: construct, check and lim."""
    group, _ = ref.symmetric(3 if tiny else 4)
    group = _relabel(rng, group)
    s = ref.semigroup(group, "s3" if tiny else "s4")
    jobs = (
        _construct("semigroup", s, "--group", f"{s.name}-group.json"),
        _check(s),
        _lim(s),
    )
    return Workload({f"{s.name}-group.json": group.to_json()}, jobs)


def no_mean(rng: random.Random, tiny: bool) -> Workload:
    """Left-zero semigroups: no invariant mean, no common fixed point."""
    big, small, steps = (4, 3, "50") if tiny else (24, 8, "5000")
    group = _relabel(rng, ref.left_zero(big))
    lz = ref.semigroup(group, f"lz{big}")
    lzs = ref.semigroup(_relabel(rng, ref.left_zero(small)), f"lz{small}")
    action = lzs.canonical_action()
    files = {
        f"lz{big}-group.json": group.to_json(),
        f"lz{small}.json": lzs.render(),
        f"lz{small}-action.json": action.to_json(),
    }
    jobs = (
        _construct("semigroup", lz, "--group", f"lz{big}-group.json"),
        _check(lz),
        _lim(lz),
        _fixpoint(lzs, f"lz{small}-action.json", action, "--iterate", "1e-12", steps),
        _fixpoint(lzs, f"lz{small}-action.json", action, "--exact"),
    )
    return Workload(files, jobs)


def quotients(rng: random.Random, tiny: bool) -> Workload:
    """Coset, double-coset and orbit spaces: dense fractional tables."""
    small_n, big_n, cyc_n = (3, 4, 6) if tiny else (4, 5, 24)
    small, small_perms = ref.symmetric(small_n)
    big, big_perms = ref.symmetric(big_n)
    small, big = _relabel(rng, small), _relabel(rng, big)
    cyc = _relabel(rng, ref.cyclic(cyc_n))

    def fixing(perms, points) -> list[int]:
        return [i for i, p in enumerate(perms) if all(p[k] == k for k in points)]

    swap12 = fixing(small_perms, range(2, small_n))  # <(12)>
    stab = fixing(big_perms, [big_n - 1])  # S_{n-1} inside S_n
    stab2 = fixing(big_perms, [big_n - 2, big_n - 1])  # S_{n-2} inside S_n
    cyc_inv = ref.inversion(cyc, ("0", "1"))
    small_inv = ref.inversion(small, ("0", "1"))

    cosets = ref.coset(small, swap12, f"s{small_n}-cosets")
    big_cosets = ref.coset(big, stab, f"s{big_n}-cosets")
    double = ref.double_coset(big, stab2, f"s{big_n}-double-cosets")
    orbits = ref.orbit(cyc_inv, f"z{cyc_n}-orbits")
    rejected = ref.orbit(small_inv, f"s{small_n}-orbits")
    action = cosets.canonical_action()
    sg, bg = f"s{small_n}-group.json", f"s{big_n}-group.json"
    files = {
        sg: small.to_json(),
        bg: big.to_json(),
        f"z{cyc_n}-inversion.json": cyc_inv.to_json(),
        f"s{small_n}-inversion.json": small_inv.to_json(),
        f"{cosets.name}-action.json": action.to_json(),
    }
    jobs = (
        _construct("coset", cosets, "--group", sg, "--subgroup", _members(small, swap12)),
        _construct("coset", big_cosets, "--group", bg, "--subgroup", _members(big, stab)),
        _construct("doublecoset", double, "--group", bg, "--subgroup", _members(big, stab2)),
        _construct("orbit", orbits, "--action", f"z{cyc_n}-inversion.json"),
        _construct("orbit", rejected, "--action", f"s{small_n}-inversion.json"),
        _lim(cosets, "--method", "both"),
        _lim(orbits, "--method", "both"),
        _fixpoint(cosets, f"{cosets.name}-action.json", action, "--exact"),
    )
    return Workload(files, jobs)


def triple_params(rng: random.Random) -> tuple[Fraction, ...]:
    """Parameters on the solvable branch of the 3-point family.

    Given x and z, the first two y weights are forced (y1 = z1 x1 / x3,
    y2 = z1 z2 / x3); draws whose leftover y3 is negative, or whose table is
    not associative, are skipped.
    """
    while True:
        den = rng.choice([2, 3, 4, 5, 6, 8, 12])
        x1 = Fraction(rng.randrange(0, den), den)
        x2 = Fraction(rng.randrange(0, den), den)
        if x1 + x2 >= 1:
            continue
        x3 = 1 - x1 - x2
        zden = rng.choice([2, 3, 4, 5, 6])
        z1 = Fraction(rng.randrange(0, zden + 1), zden)
        z2 = 1 - z1
        y1, y2 = z1 * x1 / x3, z1 * z2 / x3
        y3 = 1 - y1 - y2
        params = (x1, x2, x3, y1, y2, y3, z1, z2)
        if y3 >= 0 and ref.triple(params, "t").associative:
            return params


def triple_batch(rng: random.Random, tiny: bool) -> Workload:
    """Many tiny 3-point structures: per-call overhead dominates."""
    files, jobs = {}, []
    for k in range(4 if tiny else 200):
        params = triple_params(rng)
        s = ref.triple(params, f"t{k:03d}")
        action = s.canonical_action()
        files[f"{s.name}-action.json"] = action.to_json()
        jobs += [
            _construct("triple", s, *(str(p) for p in params)),
            _check(s),
            _lim(s, "--method", "both"),
            _fixpoint(s, f"{s.name}-action.json", action, "--exact"),
        ]
    return Workload(files, tuple(jobs))


WORKLOADS = {
    "order24": order24,
    "no-mean": no_mean,
    "quotients": quotients,
    "triple-batch": triple_batch,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](random.Random(seed), tiny)
