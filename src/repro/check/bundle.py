"""Replayable repro bundles for failing fuzz cases.

A bundle is a single JSON file that pins everything needed to reproduce
one failure on another machine: the spec of the original case, the spec
of its shrunk witness, the failing oracle results, and the CLI
invocation that produced it.  Because every generated case is a pure
function of its spec (see :mod:`repro.check.spec`), replaying a bundle
is just rebuilding the case and re-running the oracles — no RNG state
needs to be captured.

Replay::

    python -m repro.check --replay path/to/bundle.json

or, from code, :func:`replay_bundle`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .generator import GeneratedCase, case_from_spec
from .oracles import ALL_ORACLES, Oracle, OracleResult, oracle_by_name
from .spec import CaseSpec

__all__ = [
    "BUNDLE_FORMAT",
    "BundleFormatError",
    "ReproBundle",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
]

BUNDLE_FORMAT = "repro.check/bundle/1"


class BundleFormatError(ValueError):
    """A bundle file that is not a valid repro bundle: unreadable bytes,
    invalid JSON, the wrong format tag, or a malformed spec or failure
    record.  The only error :func:`load_bundle` raises for bad content."""


@dataclass(frozen=True)
class ReproBundle:
    """One serialized failure: specs, failing results, provenance."""

    master_seed: Optional[int]
    case_index: int
    spec: CaseSpec
    shrunk_spec: CaseSpec
    failures: Tuple[OracleResult, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": BUNDLE_FORMAT,
            "master_seed": self.master_seed,
            "case_index": self.case_index,
            "spec": self.spec.to_dict(),
            "shrunk_spec": self.shrunk_spec.to_dict(),
            "failures": [result.to_dict() for result in self.failures],
            "replay": "python -m repro.check --replay <this file>",
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ReproBundle":
        """Rebuild a bundle from its JSON value; raises
        :class:`BundleFormatError` on anything else."""
        if not isinstance(payload, dict):
            raise BundleFormatError(
                f"a bundle is a JSON object, got {type(payload).__name__}"
            )
        if payload.get("format") != BUNDLE_FORMAT:
            raise BundleFormatError(
                f"unsupported bundle format {payload.get('format')!r}"
            )
        master_seed = payload.get("master_seed")
        if master_seed is not None and type(master_seed) is not int:
            raise BundleFormatError(f"master_seed {master_seed!r} is not int")
        case_index = payload.get("case_index", -1)
        if type(case_index) is not int:
            raise BundleFormatError(f"case_index {case_index!r} is not int")
        failures = payload.get("failures", [])
        if not isinstance(failures, list) or not all(
            isinstance(f, dict)
            and isinstance(f.get("oracle"), str)
            and isinstance(f.get("ok"), bool)
            and isinstance(f.get("details"), str)
            for f in failures
        ):
            raise BundleFormatError(
                "failures must be a list of {oracle, ok, details} records"
            )
        return cls(
            master_seed=master_seed,
            case_index=case_index,
            spec=_spec_from(payload, "spec"),
            shrunk_spec=_spec_from(payload, "shrunk_spec"),
            failures=tuple(
                OracleResult(
                    oracle=f["oracle"], ok=f["ok"], details=f["details"]
                )
                for f in failures
            ),
        )

    @property
    def failing_oracles(self) -> List[str]:
        return [result.oracle for result in self.failures if not result.ok]


def _spec_from(payload: Dict[str, Any], key: str) -> CaseSpec:
    spec = payload.get(key)
    if not isinstance(spec, dict):
        raise BundleFormatError(f"{key} must be a JSON object, got {spec!r}")
    try:
        return CaseSpec.from_dict(spec)
    except (
        # Everything a JSON object of the wrong shape makes the field
        # conversions and CaseSpec validation raise (OverflowError:
        # ``int(float("inf"))``).
        KeyError, TypeError, ValueError, AttributeError, OverflowError,
    ) as error:
        raise BundleFormatError(f"malformed {key}: {error!r}") from None


def write_bundle(
    directory: str,
    bundle: ReproBundle,
) -> str:
    """Serialize ``bundle`` under ``directory`` and return its path."""
    os.makedirs(directory, exist_ok=True)
    name = f"case-{bundle.case_index}-seed-{bundle.spec.seed}.json"
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bundle(path: str) -> ReproBundle:
    """Read the bundle at ``path``.

    Raises :class:`BundleFormatError` when the file's content is not a
    valid bundle, and ``OSError`` when it cannot be read at all.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors;
        # pathologically nested arrays exhaust the parser's stack.
        raise BundleFormatError(
            f"not a JSON bundle: {type(error).__name__}: {error}"
        ) from None
    return ReproBundle.from_dict(payload)


def replay_bundle(
    path: str,
    *,
    oracles: Optional[Sequence[Oracle]] = None,
    shrunk: bool = True,
) -> List[OracleResult]:
    """Rebuild a bundle's case and re-run its failing oracles.

    ``shrunk`` selects the minimized witness (default) or the original
    case.  If ``oracles`` is not given, the bundle's own failing-oracle
    names are used (falling back to the full inventory when the bundle
    lists none).
    """
    bundle = load_bundle(path)
    spec = bundle.shrunk_spec if shrunk else bundle.spec
    case = case_from_spec(spec, index=bundle.case_index)
    if oracles is None:
        names = bundle.failing_oracles
        try:
            oracles = (
                [oracle_by_name(name) for name in names]
                if names
                else ALL_ORACLES
            )
        except KeyError as error:
            raise BundleFormatError(error.args[0]) from None
    return [oracle.check(case) for oracle in oracles]
