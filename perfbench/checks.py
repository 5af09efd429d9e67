"""Correctness checks on the CSV one op writes."""

from __future__ import annotations

import hashlib
import math

# |z| of the Monte Carlo mean against the closed-form m_exact column
MARGINAL_Z_LIMIT = 4.0


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None  # a label such as row_type or "1 0 0 0"


def check_csv(path: str, command: str) -> tuple:
    """(sha256 of the file, list of problems found)."""
    with open(path, "rb") as fp:
        data = fp.read()
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        return digest, [f"{path}: missing comment or header line"]
    header = lines[1].split(",")
    problems = []
    for lineno, line in enumerate(lines[2:], 3):
        fields = line.split(",")
        if len(fields) != len(header):
            problems.append(f"{path}:{lineno}: {len(fields)} fields, "
                            f"header has {len(header)}")
            continue
        row = dict(zip(header, fields))
        for key, text in row.items():
            value = _number(text)
            if value is not None and not math.isfinite(value):
                problems.append(f"{path}:{lineno}: {key}={text} is not finite")
        if command == "marginal":
            z = _number(row.get("z", ""))
            if z is None or not abs(z) <= MARGINAL_Z_LIMIT:
                problems.append(f"{path}:{lineno}: |z| = {row.get('z')} "
                                f"exceeds {MARGINAL_Z_LIMIT}")
    if len(lines) == 2:
        problems.append(f"{path}: no data rows")
    return digest, problems
