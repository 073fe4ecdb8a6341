"""One workload in one process: set-up, timed passes, output checks, metrics.

Started by `run.py` with `src/` on PYTHONPATH.  It drives
`semihyp.cli.main` in process as a closed loop: each job starts when the
previous one returns.  Passes over the job list repeat, at least twice,
until the next pass would end after `--seconds`, with `gc.collect()` between
passes.  Set-up and passes are timed by `speed.Meter`, at a fixed reference
speed, because this VM's own speed drifts by far more than the bounds;
`wall_s` is the median pass.  With `--trace 1`, untraced and traced passes alternate; the
traced ones give the per-layer metrics and the untraced ones the tracing
overhead and the raw, unscaled pass time.

Every job's exit code and report (with `elapsed_ms` masked) and every
written structure file are checked: against the benchmark's own exact
arithmetic on any seed, against recorded digests on the default seed, and
against the first pass on later passes.  The last line of stdout is one JSON
object with the raw metrics and the run's labels.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import reference as ref
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_ROUNDS = 11
COMMANDS = ("construct", "check", "lim", "fixpoint")
END_TO_END_COMMANDS = ("construct", "lim")  # every workload runs both
_TIMING = re.compile(r'("elapsed_ms": )[-0-9.eE+]+')


def mask(report: str) -> str:
    return _TIMING.sub(r"\g<1>0", report)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def set_up(name: str, seed: int, tiny: bool, work: Path):
    """Import `semihyp` afresh and write the workload's input files.

    Returns the module, the workload and the set-up time at reference speed.
    """
    for module in [m for m in sys.modules if m == "semihyp" or m.startswith("semihyp.")]:
        del sys.modules[module]
    with speed.Meter() as meter:
        cli = importlib.import_module("semihyp.cli")
        workload = workloads.build(name, seed, tiny)
        for path, text in workload.files.items():
            (work / path).write_text(text, encoding="utf-8")
    return cli, workload, meter.scaled


class Pass:
    """Outcome of one pass: per-job time, exit code, report, written file.

    Only the first pass keeps the reports and files themselves; every pass
    keeps a fingerprint of each job's output, so memory does not grow with
    the pass count.
    """

    def __init__(self) -> None:
        self.times: list[float] = []  # per job, at the reference speed
        self.outputs: list[tuple[Optional[int], str, str]] = []
        self.files: dict[str, Optional[bytes]] = {}
        self.fingerprints: list[tuple] = []
        self.meter = speed.Meter()

    @property
    def wall(self) -> float:
        """Job time at the reference speed."""
        return self.meter.scaled

    def data(self, job: workloads.Job) -> Optional[bytes]:
        return self.files.get(job.out) if job.out else None


def run_pass(cli, workload: workloads.Workload, tracer: Optional[tracing.Tracer],
             keep: bool) -> Pass:
    result = Pass()
    outs = [job.out for job in workload.jobs if job.out]
    for out in outs:
        # Emptied, not removed, so no stale output survives: on the ext4 disk
        # (online discard) this was built on, creating 200 small files took
        # 30 to 130 ms, refilling 200 emptied ones a steady 7 ms.
        with contextlib.suppress(FileNotFoundError):
            os.truncate(out, 0)
    meter = result.meter
    with meter:
        for k, job in enumerate(workload.jobs):
            if tracer is not None:
                tracer.job = workload.job_id(k)
            stdout, stderr = io.StringIO(), io.StringIO()
            _, started = meter.read()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code: Optional[int] = cli.main(list(job.argv))
            except Exception as exc:  # a traceback is a failed job, not a failed run
                code = None
                stderr.write(f"{type(exc).__name__}: {exc}")
            result.times.append(meter.read()[1] - started)
            result.outputs.append((code, stdout.getvalue(), stderr.getvalue()))
    for out in outs:
        result.files[out] = Path(out).read_bytes() if Path(out).exists() else None
    result.fingerprints = [
        fingerprint(output, result.data(job))
        for output, job in zip(result.outputs, workload.jobs)
    ]
    if not keep:
        result.outputs, result.files = [], {}
    return result


def fingerprint(output, data: Optional[bytes]) -> tuple:
    """Exit code, masked-report digest, stderr and written-file digest."""
    code, text, err = output
    return code, digest(mask(text).encode()), err, None if data is None else digest(data)


# ---------------------------------------------------------------------------
# output checks


def _structure_fields(doc: dict, s: ref.Structure) -> Optional[str]:
    checks = doc.get("checks", {})
    if doc.get("structure") != s.name or doc.get("points") != list(s.labels):
        return "structure name or points differ"
    if not (checks.get("probability", {}).get("passed")
            and checks.get("associativity", {}).get("passed")):
        return "axioms reported failing"
    if doc.get("identity") != s.identity or doc.get("commutative") != s.commutative:
        return "identity or commutativity differ"
    if doc.get("verdict") != "pass":
        return f"verdict {doc.get('verdict')!r}"
    return None


def _check_construct(job, code, doc, data) -> Optional[str]:
    s = job.structure
    if job.rejected:
        witness = doc["associativity"]["witness"]["triple"].split(", ")
        if code != 1 or doc.get("verdict") != "rejected (not associative)":
            return "non-associative result not rejected"
        if len(witness) != 3 or not set(witness) <= set(s.labels) or \
                not s.fails_associativity(*(s.index(p) for p in witness)):
            return f"witness triple {witness} does not fail associativity"
        return None
    if code != 0:
        return f"exit {code}"
    if data != s.render().encode():
        return "written structure file differs from the expected table"
    return _structure_fields(doc, s)


def _check_lim(job, code, doc) -> Optional[str]:
    s = job.structure
    exists = doc.get("exists")
    for route in ("direct", "dual"):
        if route not in doc:
            continue
        part = doc[route]
        if part.get("exists") != exists:
            return f"{route} route disagrees"
        if exists and not (part.get("verified")
                           and ref.is_invariant_mean(s, ref.parse_vector(part["mean"]))):
            return f"{route} mean is not invariant"
    if not exists:
        certificate = doc.get("direct", {}).get("certificate")
        rows, rhs = ref.invariance_rows(s)
        if not certificate or not ref.is_farkas_certificate(
                rows, rhs, ref.parse_vector(certificate)):
            return "no-mean verdict without a valid Farkas certificate"
    if "dual" in doc and "direct" in doc and doc.get("oracles_agree") is not True:
        return "oracles disagree"
    verdict = "mean found" if exists else "no mean exists"
    if code != (0 if exists else 1) or doc.get("verdict") != verdict:
        return f"exit {code} with verdict {doc.get('verdict')!r}"
    return None


def _check_fixpoint(job, code, doc) -> Optional[str]:
    action = job.action
    checks = doc.get("checks", {})
    if not (checks.get("action_axiom", {}).get("passed")
            and checks.get("invariance", {}).get("passed")):
        return "valid action reported failing"
    if "--iterate" in job.argv:
        at = job.argv.index("--iterate")
        tol, steps = float(job.argv[at + 1]), int(job.argv[at + 2])
        point = [float(v) for v in doc["point"].split(", ")]
        residual = float(doc["residual"])
        converged = residual <= tol
        if abs(residual - ref.float_residual(action, point)) > 1e-9:
            return "iterate residual does not match its point"
        if any(v < -1e-9 for v in point) or abs(sum(point) - 1) > 1e-9:
            return "iterate left the simplex"
        if doc.get("converged") is not converged or (
                not converged and doc.get("iterations") != steps):
            return "iterate convergence or step count wrong"
        return None if code == (0 if converged else 1) else f"exit {code}"
    if "fixed_point" in doc:
        if not ref.is_fixed_point(action, ref.parse_vector(doc["fixed_point"])):
            return "reported point is not a common fixed point"
        return None if code == 0 else f"exit {code}"
    rows, rhs = action.fixed_point_rows()
    certificate = doc.get("certificate")
    if not certificate or not ref.is_farkas_certificate(
            rows, rhs, ref.parse_vector(certificate)):
        return "no-fixed-point verdict without a valid Farkas certificate"
    return None if code == 1 else f"exit {code}"


def check_job(job: workloads.Job, output, data: Optional[bytes]) -> Optional[str]:
    """Reason the job's output is wrong, or None when it is right."""
    code, text, err = output
    if err:
        return f"stderr: {err.strip()[:200]}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if doc.get("command") != job.command:
        return "report names another command"
    try:
        if job.command == "construct":
            return _check_construct(job, code, doc, data)
        if job.command == "check":
            return f"exit {code}" if code != 0 else _structure_fields(doc, job.structure)
        if job.command == "lim":
            return _check_lim(job, code, doc)
        return _check_fixpoint(job, code, doc)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"


def job_digests(job: workloads.Job, fingerprint: tuple) -> dict:
    """The recorded form of a job's output fingerprint."""
    code, report, _, data = fingerprint
    return {"exit": code, "report": report, **({"file": data} if job.out else {})}


def check_passes(workload, passes: list[Pass], expected: Optional[dict]) -> list[str]:
    """One failure line per wrong job output, over every pass."""
    failures = []
    first = passes[0]
    for k, job in enumerate(workload.jobs):
        job_id = workload.job_id(k)
        reason = check_job(job, first.outputs[k], first.data(job))
        if reason is None and expected is not None and \
                expected.get(job_id) != job_digests(job, first.fingerprints[k]):
            reason = "output differs from the recorded default-seed output"
        if reason:
            failures.append(f"pass 1 {job_id}: {reason}")
        for p, later in enumerate(passes[1:], start=2):
            if reason or later.fingerprints[k] != first.fingerprints[k]:
                failures.append(f"pass {p} {job_id}: {reason or 'output differs from pass 1'}")
    return failures


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record and (args.tiny or args.seed != DEFAULT_SEED):
        parser.error("--record needs the default seed at full size")

    out_dir = HERE / "_work"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        os.chdir(work)
        return measure(args, out_dir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, out_dir: Path) -> int:
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        cli, workload, seconds = set_up(args.workload, args.seed, args.tiny, Path.cwd())
        setup_times.append(seconds)
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: semihyp was imported from {source}, not from src/", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    passes: list[Pass] = []
    traced: list[bool] = []
    layer: list[dict] = []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if trace_this:
            first = len(tracer.spans)
            tracer.install()
            try:
                passes.append(run_pass(cli, workload, tracer, keep=not passes))
            finally:
                tracer.uninstall()
            layer.append(tracer.metrics(first, len(tracer.spans)))
        else:
            passes.append(run_pass(cli, workload, None, keep=not passes))
        traced.append(trace_this)
        elapsed = time.perf_counter() - started
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > args.seconds:
            break

    expected = None
    if args.seed == DEFAULT_SEED and not args.tiny and not args.record:
        expected = json.loads(EXPECTED.read_text())[args.workload]
    failures = check_passes(workload, passes, expected)
    for line in sorted(failures, key=lambda f: int(f.split()[1]))[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.record:
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        recorded[args.workload] = {
            workload.job_id(k): job_digests(job, passes[0].fingerprints[k])
            for k, job in enumerate(workload.jobs)
        }
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    def command_s(p: Pass, command: str) -> float:
        return sum(t for t, job in zip(p.times, workload.jobs) if job.command == command)

    plain = [p for p, t in zip(passes, traced) if not t]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in plain),
            **{f"{c}_s": statistics.median(command_s(p, c) for p in plain)
               for c in END_TO_END_COMMANDS},
        }
    else:
        for m, p in zip(layer, (p for p, t in zip(passes, traced) if t)):
            # span times at the reference speed: the pass's mean speed factor
            factor = p.meter.scaled / p.meter.raw
            for name in m:
                if name.endswith("_per_s"):
                    m[name] /= factor
                elif name.endswith("_s"):
                    m[name] *= factor
            m.update({f"cli.{c}_s": command_s(p, c) for c in COMMANDS})
        metrics = {
            name: statistics.median(m[name] for m in layer)
            for name in layer[0]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.wall for p, t in zip(passes, traced) if t)
            / statistics.median(p.wall for p in plain) - 1
        )
        metrics["bench.raw_wall_s"] = statistics.median(p.meter.raw for p in plain)
        metrics["bench.probe_s"] = statistics.median(
            x for p in passes for x in p.meter.probes
        )
        spans_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()) + "\n")

    attempted = len(passes) * len(workload.jobs)
    failed = len(failures)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "labels": {
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "passes": len(passes),
            "traced_passes": sum(traced),
            "jobs_per_pass": len(workload.jobs),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
