"""Output checks for one CLI invocation.

Each command's output is reduced to a summary of values (manifest facts,
per-column CSV sums, verify statuses, the tstar report) plus a list of
invariant violations. The summary is compared with reference.json, which
was recorded from the seed commit: floats within a relative tolerance, so a
last-ulp change passes, and everything else exactly.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from pathlib import Path

# Copied rather than imported: the checks must not take their expectations
# from the program they check.
CSV_HEADER = "t,log10_avg_distance,ratio,rho_upper,rho_lower"
BOUND_SLACK = 1e-8
RTOL = 1e-8
ATOL = 1e-12
CSV_SUMS = ("avg_distance", "ratio", "rho_upper", "rho_lower")


def _float(text: str) -> float | None:
    return float(text) if text else None


def check_csv(path: Path, horizon: int) -> tuple[dict, list[str]]:
    """Column sums of one schedule CSV, and its violated invariants: the
    exact header, horizon+1 rows, ratio <= rho_upper and rho_lower <= rho_upper
    wherever those columns are filled."""
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"{path.name}: header {lines[0] if lines else ''!r} != {CSV_HEADER!r}")
        return {}, problems
    rows = lines[1:]
    if len(rows) != horizon + 1:
        problems.append(f"{path.name}: {len(rows)} rows, expected {horizon + 1}")
    sums = dict.fromkeys(CSV_SUMS, 0.0)
    for t, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != 5 or fields[0] != str(t):
            problems.append(f"{path.name}: malformed row {t}: {line!r}")
            break
        log_avg, ratio, upper, lower = (_float(f) for f in fields[1:])
        sums["avg_distance"] += 10.0 ** log_avg
        for key, value in (("ratio", ratio), ("rho_upper", upper), ("rho_lower", lower)):
            if value is not None:
                sums[key] += value
        if upper is not None:
            if ratio is not None and ratio > upper + BOUND_SLACK:
                problems.append(f"{path.name}: t={t} ratio {ratio!r} above rho_upper {upper!r}")
            if lower is not None and lower > upper:
                problems.append(f"{path.name}: t={t} rho_lower {lower!r} above rho_upper {upper!r}")
    return sums, problems


def check_run(out_dir: Path, horizon: int, labels: list[str]) -> tuple[dict, list[str]]:
    """Summary and problems of a `fjfade run` output directory."""
    try:
        manifest = configparser.ConfigParser(interpolation=None)
        with open(out_dir / "manifest.ini", encoding="utf-8") as fh:
            manifest.read_file(fh)
        summary = {
            "sigma_max": manifest.getfloat("weights", "sigma_max"),
            "x_ss": manifest.getfloat("x0", "x_ss"),
            "runs": {},
            "csv": {},
        }
        problems = []
        for label in labels:
            sec = manifest[f"run.{label}"]
            run = {"terminal_avg_distance": float(sec["terminal_avg_distance"])}
            if "tstar" in sec:
                run.update(tstar=int(sec["tstar"]), target=int(sec["target"]),
                           deviation=float(sec["deviation"]))
            summary["runs"][label] = run
            sums, csv_problems = check_csv(out_dir / f"{label}.csv", horizon)
            summary["csv"][label] = sums
            problems += csv_problems
    except (OSError, KeyError, ValueError, configparser.Error) as exc:
        return {}, [f"unreadable run output: {exc!r}"]
    return summary, problems


def _key_values(stdout: str) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _verify_check(status: str, fields: str) -> dict:
    """One check line after its label, e.g. `steps=2000 witness_upper_excess=-0.1
    witness_lower_deficit=n/a random_upper_excess=-0.2 (trials=50)`."""
    kv = dict(f.strip("()").split("=", 1) for f in fields.split())
    deficit = kv["witness_lower_deficit"]
    return {
        "status": status,
        "steps": int(kv["steps"]),
        "witness_upper_excess": float(kv["witness_upper_excess"]),
        "witness_lower_deficit": None if deficit == "n/a" else float(deficit),
        "random_upper_excess": float(kv["random_upper_excess"]),
        "trials": int(kv["trials"]),
    }


def check_verify(stdout: str) -> tuple[dict, list[str]]:
    """Every check line of `fjfade verify`, with its step count, trial count
    and excesses, so that skipped or shortened simulations differ from the
    reference; every check must PASS."""
    found = {}
    for line in stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            label, _, fields = rest.partition(":")
            try:
                found[label] = _verify_check(status, fields)
            except (KeyError, ValueError) as exc:
                return {}, [f"verify output unreadable: {line!r} ({exc!r})"]
    problems = [f"verify {label}: {c['status']}" for label, c in found.items() if c["status"] != "PASS"]
    if not found:
        problems.append("verify reported no checks")
    return {"checks": found}, problems


def check_tstar(stdout: str) -> tuple[dict, list[str]]:
    """The report printed by `fjfade tstar`; the drop must be certified."""
    kv = _key_values(stdout)
    try:
        summary = {
            "tstar": int(kv["tstar"]),
            "target": int(kv["target"]),
            "deviation": float(kv["deviation"]),
            "strict_drop_certified": kv["strict_drop_certified"] == "true",
        }
    except (KeyError, ValueError) as exc:
        return {}, [f"tstar output unreadable: {exc!r}"]
    problems = [] if summary["strict_drop_certified"] else ["tstar: strict drop not certified"]
    return summary, problems


def compare(actual, expected, where: str = "") -> list[str]:
    """Differences between a summary and its reference: floats within
    RTOL/ATOL, dict keys and every other value exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = [f"{where}{k}: missing" for k in expected if k not in actual]
        problems += [f"{where}{k}: unexpected" for k in actual if k not in expected]
        for k in expected.keys() & actual.keys():
            problems += compare(actual[k], expected[k], f"{where}{k}.")
        return problems
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif type(actual) is type(expected) and actual == expected:
        return []
    return [f"{where.rstrip('.')}: {actual!r} != reference {expected!r}"]


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, for the byte-identity check."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}
