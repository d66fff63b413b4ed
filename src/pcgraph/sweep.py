"""Deterministic instance sweeps with optional oracle cross-checking.

A sweep streams a generator family, classifies every mono-triangle-free
instance, validates certificates, evaluates the degree-threshold side
conditions, and (at oracle level "full") cross-checks the classification
against brute-force search plus the Hamilton-path guarantee.  Reports are
pure functions of the configuration: no timestamps or timings are embedded,
so a fixed seed reproduces a report byte for byte.  Wall-clock timing goes
to stderr in the CLI instead.

Any exception raised during classification is a potential counterexample
(an InternalError is the classifier's own alarm; anything else is a defect
on valid input); the offending instance is dumped as JSON named by the
sha256 of its instance JSON when a dump directory is configured.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from .core import ColoredCompleteGraph, _check_int, dumps_instance
from .cycles import is_pc_path, pc_hamilton_path
from .detect import find_monochromatic_triangle
from .errors import InternalError, PreconditionViolated
from .families import GenSpec, generate
from .oracles import is_pancyclic_from, proper_degenerate_sets
from .trichotomy import (
    TrichotomyTag,
    classify,
    is_double_pentagon_k5,
    side_conditions,
    validate_result,
)

ORACLE_LEVELS = ("off", "partial", "full")
# the most worker processes a sweep starts; a fixed cap, not the core count,
# so --workers 2 stays valid on a one-core host
MAX_WORKERS = 64


@dataclass(frozen=True)
class SweepConfig:
    family: str
    n: int = 0
    k: int = 0
    count: int = 1
    seed: int = 0
    oracle: str = "off"
    workers: int = 1
    dump_dir: Optional[str] = None

    def gen_spec(self) -> GenSpec:
        return GenSpec(self.family, self.n, self.k, self.seed, self.count)


@dataclass
class SweepReport:
    config: dict
    processed: int = 0
    mono_triangle_free: int = 0
    skipped_small: int = 0
    tags: Dict[str, int] = field(default_factory=lambda: {"a": 0, "b": 0, "c": 0})
    internal_errors: int = 0
    certificate_failures: int = 0
    side_condition_failures: int = 0
    corollary_violations: int = 0
    oracle_mismatches: int = 0
    exclusivity_violations: int = 0
    exception_agreement_failures: int = 0
    hamilton_path_failures: int = 0
    growth_oracle_uses: int = 0
    flagged: List[dict] = field(default_factory=list)
    dumps: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.internal_errors
            == self.certificate_failures
            == self.side_condition_failures
            == self.corollary_violations
            == self.oracle_mismatches
            == self.exclusivity_violations
            == self.exception_agreement_failures
            == self.hamilton_path_failures
            == 0
        )

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def examine_instance(g: ColoredCompleteGraph, oracle: str) -> dict:
    """Classify one instance and report every check outcome as plain data."""
    rec: dict = {"n": g.n}
    if g.n >= 3 and find_monochromatic_triangle(g) is not None:
        rec["mono_triangle"] = True
        return rec
    rec["mono_triangle"] = False
    if g.n < 4:
        rec["too_small"] = True
        return rec
    counters: dict = {}
    try:
        result = classify(g, counters)
    except Exception as exc:
        # besides the classifier's own alarm, any exception on valid input is
        # a defect, so it is counted, flagged and dumped instead of ending
        # the sweep
        if isinstance(exc, InternalError):
            rec["internal_error"] = str(exc)
        else:
            rec["internal_error"] = f"{type(exc).__name__}: {exc}"
        rec["instance"] = dumps_instance(g)
        return rec
    rec["growth_oracle_uses"] = counters.get("growth_oracle_uses", 0)
    rec["tag"] = result.tag.value
    side = side_conditions(g, result)
    rec["side_ok"] = side.exception_bounds_hold
    rec["corollary_ok"] = side.pancyclic_when_mono_low is not False
    if oracle in ("partial", "full"):
        rec["cert_ok"] = validate_result(g, result)
    if oracle == "full":
        pancyclic = is_pancyclic_from(g)
        proper = next(iter(proper_degenerate_sets(g)), None) is not None
        double_pentagon = is_double_pentagon_k5(g) is not None
        rec["oracle_ok"] = pancyclic == (result.tag is TrichotomyTag.PANCYCLIC)
        rec["exclusive_ok"] = int(pancyclic) + int(proper) + int(double_pentagon) == 1
        rec["exception_ok"] = double_pentagon == (
            result.tag is TrichotomyTag.EXCEPTIONAL_K5
        )
        try:
            path = pc_hamilton_path(g)
            rec["hamilton_path_ok"] = len(path) == g.n and is_pc_path(g, path)
        except InternalError as exc:
            rec["hamilton_path_ok"] = False
            rec["hamilton_path_error"] = str(exc)
    return rec


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run a sweep; flagged indices and dump paths land in the report.

    An oracle level outside ORACLE_LEVELS, and workers that are no int (a
    bool is none), below 1 or above MAX_WORKERS, raise PreconditionViolated
    naming the field, before any worker starts.  An error while the records
    are read (an unwritable dump directory, Ctrl-C) terminates the workers
    at once, rather than after they have examined every instance left.
    """
    if config.oracle not in ORACLE_LEVELS:
        raise PreconditionViolated(
            "oracle", f"must be one of {ORACLE_LEVELS}, got {config.oracle!r}"
        )
    _check_int(config.workers, "workers", 1)
    if config.workers > MAX_WORKERS:
        raise PreconditionViolated(
            "workers", f"must be <= {MAX_WORKERS}, got {config.workers}"
        )
    report = SweepReport(config=asdict(config))
    instances = generate(config.gen_spec())
    if config.workers > 1:
        pool = multiprocessing.Pool(config.workers)
        examine = functools.partial(examine_instance, oracle=config.oracle)
        records = pool.imap(examine, instances, 64)
    else:
        pool = None
        records = (examine_instance(g, config.oracle) for g in instances)
    try:
        for index, rec in enumerate(records):
            report.processed += 1
            if rec.get("mono_triangle"):
                continue
            report.mono_triangle_free += 1
            if rec.get("too_small"):
                report.skipped_small += 1
                continue
            if "internal_error" in rec:
                report.internal_errors += 1
                report.flagged.append({"index": index, "reason": rec["internal_error"]})
                if config.dump_dir:
                    # hashlib loads OpenSSL (about 4 MB resident), so only
                    # a sweep that writes a dump pays for it
                    import hashlib

                    os.makedirs(config.dump_dir, exist_ok=True)
                    name = hashlib.sha256(rec["instance"].encode()).hexdigest()
                    path = os.path.join(config.dump_dir, f"{name}.json")
                    with open(path, "w") as fh:
                        fh.write(
                            json.dumps(
                                {"error": rec["internal_error"], "instance": json.loads(rec["instance"])},
                                sort_keys=True,
                            )
                        )
                    report.dumps.append(path)
                continue
            report.tags[rec["tag"]] += 1
            report.growth_oracle_uses += rec.get("growth_oracle_uses", 0)
            for key, counter in (
                ("side_ok", "side_condition_failures"),
                ("corollary_ok", "corollary_violations"),
                ("cert_ok", "certificate_failures"),
                ("oracle_ok", "oracle_mismatches"),
                ("exclusive_ok", "exclusivity_violations"),
                ("exception_ok", "exception_agreement_failures"),
                ("hamilton_path_ok", "hamilton_path_failures"),
            ):
                if key in rec and not rec[key]:
                    setattr(report, counter, getattr(report, counter) + 1)
                    report.flagged.append({"index": index, "reason": counter})
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    if pool is not None:
        pool.close()
        pool.join()
    return report
