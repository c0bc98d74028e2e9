"""Instance file format and seeded random instance generation.

Text format, whitespace separated:

    line 1:  N m annihilator        (or: N m spanning), with N and m
             written in ASCII digits only
    then N lines of rational tokens, m per line for annihilator kind
    and N - m per line for spanning kind.

Tokens may be integers, ratios like -3/4, or decimals like 0.25
(decimals parse exactly).  Serialization emits canonical lowest-terms
tokens, so parse(format(x)) == x."""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

from .canonical import (
    SubspaceSpec,
    subspace_from_annihilator,
    subspace_from_spanning_set,
)
from .errors import InstanceFormatError
from .linalg import Matrix, as_rational, format_rational, rank, token_excerpt

KIND_ANNIHILATOR = "annihilator"
KIND_SPANNING = "spanning"
_KINDS = (KIND_ANNIHILATOR, KIND_SPANNING)


@dataclass(frozen=True)
class Instance:
    """One parsed or generated instance: the matrix plus how to read it."""

    ambient: int
    codim: int
    kind: str
    matrix: Matrix

    def to_spec(self) -> SubspaceSpec:
        if self.kind == KIND_ANNIHILATOR:
            return subspace_from_annihilator(self.matrix)
        return subspace_from_spanning_set(self.matrix)


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    header_idx = None
    for idx, line in enumerate(lines):
        if line.strip():
            header_idx = idx
            break
    if header_idx is None:
        raise InstanceFormatError("empty input")
    header = lines[header_idx].split()
    if len(header) != 3:
        raise InstanceFormatError(
            "header must be: N m annihilator|spanning", header_idx + 1
        )
    for token in header[:2]:
        # int() would also take "0_3", "+1" and non-ASCII digits
        if not (token.isascii() and token.isdigit()):
            raise InstanceFormatError(
                "N and m must be integers of ASCII digits, got "
                f"{token_excerpt(token)}",
                header_idx + 1,
            )
    try:
        ambient, codim = (int(as_rational(token)) for token in header[:2])
    except ValueError as exc:
        # only the str-to-int limit is left, and as_rational names it
        raise InstanceFormatError(f"N and m: {exc}", header_idx + 1) from None
    kind = header[2]
    if kind not in _KINDS:
        raise InstanceFormatError(
            f"kind must be one of {_KINDS}, got {token_excerpt(kind)}",
            header_idx + 1,
        )
    if not 1 <= codim < ambient:
        raise InstanceFormatError(
            f"need 1 <= m < N, got N={ambient} m={codim}", header_idx + 1
        )
    width = codim if kind == KIND_ANNIHILATOR else ambient - codim
    rows = []
    row_lines = [
        (i, line) for i, line in enumerate(lines[header_idx + 1 :], header_idx + 2)
        if line.strip()
    ]
    if len(row_lines) != ambient:
        raise InstanceFormatError(
            f"expected {ambient} data lines, found {len(row_lines)}",
            header_idx + 1,
        )
    for lineno, line in row_lines:
        tokens = line.split()
        if len(tokens) != width:
            raise InstanceFormatError(
                f"expected {width} tokens, found {len(tokens)}", lineno
            )
        row = []
        for pos, token in enumerate(tokens, 1):
            try:
                row.append(as_rational(token))
            except ValueError as exc:
                raise InstanceFormatError(f"token {pos}: {exc}", lineno) from None
        rows.append(row)
    return Instance(ambient, codim, kind, Matrix(rows))


def format_instance(instance: Instance) -> str:
    out = io.StringIO()
    out.write(f"{instance.ambient} {instance.codim} {instance.kind}\n")
    for i in range(instance.matrix.rows):
        out.write(
            " ".join(format_rational(x) for x in instance.matrix.row(i))
        )
        out.write("\n")
    return out.getvalue()


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def random_instance(
    rng: random.Random,
    ambient: int,
    codim: int,
    entry_bound: int = 5,
    kind: str = KIND_ANNIHILATOR,
    rational: bool = False,
) -> Instance:
    """Full-rank random instance with entries uniform in [-R, R].

    rational=True divides each entry by a uniform denominator in [1, R].
    Rank-deficient draws are rejected and redrawn."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if not 1 <= codim < ambient:
        raise ValueError(f"need 1 <= m < N, got N={ambient} m={codim}")
    if entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    width = codim if kind == KIND_ANNIHILATOR else ambient - codim
    while True:
        rows = []
        for _ in range(ambient):
            row = []
            for _ in range(width):
                num = rng.randint(-entry_bound, entry_bound)
                if rational:
                    den = rng.randint(1, entry_bound)
                    row.append(as_rational(f"{num}/{den}"))
                else:
                    row.append(as_rational(num))
            rows.append(row)
        matrix = Matrix(rows)
        if rank(matrix) == width:
            return Instance(ambient, codim, kind, matrix)
