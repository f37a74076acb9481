"""Regenerate bench/reference.json, the reference data the benchmark checks against.

    python3 bench/reference.py            # from the repository root

It writes

* ``delta_ref``: delta(b) = c0(1/b) - main_terms(b) at 113 bits for the 15
  rows of the ``scan_deep`` ladder b = 2^8 .. 2^22;
* ``C0_closed_form``: (gamma - log(2*pi))/2 to 30 digits.

c0(1/b) is summed as a stream over the antisymmetric half of the row,

    c0(1/b) = sum_{1 <= m < b/2} ((b - 2m)/b) * cot(pi*m/b),

so no row is ever held in memory (the package's 113-bit path keeps two lists
of b mpf values, over a gigabyte at b = 2^22).  Before anything is written
the stream is cross-checked against the package's own ``--precision 113``
path (``cotsum.exact.c0`` at 113 bits) for every b <= 2^14, and against the
same stream at 160 bits at two values of b.  A run takes a few minutes on the
pure-Python mpmath backend; no timed benchmark run computes a reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cotsum import PrecisionConfig, ReducedFraction, c0  # noqa: E402

LADDER = [2**j for j in range(8, 23)]
PACKAGE_CHECK_MAX_B = 2**14
HIGH_PRECISION_CHECK_BS = (2**8, 2**16)
PRECISION = 113
HIGH_PRECISION = 160
DIGITS = 30


def c0_stream(b: int) -> mpmath.mpf:
    """c0(1/b) at the ambient mpmath precision, one half-row term at a time."""
    total = mpmath.mpf(0)
    pi = +mpmath.pi
    for m in range(1, (b + 1) // 2):
        total += (b - 2 * m) * mpmath.cot(pi * m / b)
    return total / b


def main_terms(b: int) -> mpmath.mpf:
    return (mpmath.mpf(b) / mpmath.pi) * (
        mpmath.log(b) - mpmath.log(2 * mpmath.pi) + mpmath.euler
    )


def delta_at(b: int, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    with mpmath.workprec(bits):
        exact = c0_stream(b)
        return exact, exact - main_terms(b)


def main() -> int:
    cfg = PrecisionConfig(working_precision=PRECISION)
    rows = []
    for b in LADDER:
        exact, delta = delta_at(b, PRECISION)
        if b <= PACKAGE_CHECK_MAX_B:
            with mpmath.workprec(PRECISION):
                gap = abs(exact - c0(ReducedFraction(1, b), cfg))
            if gap > mpmath.mpf(10) ** -24:
                raise SystemExit(f"b={b}: stream and package differ by {gap}")
        if b in HIGH_PRECISION_CHECK_BS:
            _, delta_high = delta_at(b, HIGH_PRECISION)
            with mpmath.workprec(HIGH_PRECISION):
                gap = abs(delta - delta_high)
            if gap > mpmath.mpf(10) ** -25:
                raise SystemExit(f"b={b}: 113 and 160 bits differ by {gap}")
        rows.append({"b": b, "delta": mpmath.nstr(delta, DIGITS)})
        print(f"b={b} delta={rows[-1]['delta']}", file=sys.stderr)
    with mpmath.workprec(HIGH_PRECISION):
        closed = (mpmath.euler - mpmath.log(2 * mpmath.pi)) / 2
    data = {
        "precision_bits": PRECISION,
        "delta_ref": rows,
        "C0_closed_form": mpmath.nstr(closed, DIGITS),
    }
    out = HERE / "reference.json"
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
