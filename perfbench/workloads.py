"""Workload operations, the paper's dimension table and the output checks.

The operations are lkwb CLI calls.  The checks compare every report with
values computed apart from the program: the dimension table of the paper,
written out below, and the naive Fraction oracles in tests/oracles.py
applied to M(n) at concrete points.  lkwb and the oracles are imported
lazily, so the worker process that times the calls never loads them
through this module.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("certify-q", "det-subst", "kernel-cyclo")

_LOCI = ("l=r", "l=-r3", "l=r3-2n", "l=+r3-n", "l=-r3-n")

# Points where r^(2n) = -1 for the built-in cyclotomic moduli: a root of
# phi_m has r^(m/2) = -1, so n = m/4.
_CYCLOTOMIC_POINTS = ((3, "phi12"), (5, "phi20"), (6, "phi24"))


def loci(n):
    """The catalog of reducibility loci; l=r is one only for n >= 4."""
    return _LOCI if n >= 4 else _LOCI[1:]


def locus_l(name, n, r):
    """l = eps * r^k on the named locus, for a rational r."""
    eps, k = {
        "l=r": (1, 1),
        "l=-r3": (-1, 3),
        "l=r3-2n": (1, 3 - 2 * n),
        "l=+r3-n": (1, 3 - n),
        "l=-r3-n": (-1, 3 - n),
    }[name]
    return eps * r ** k


@dataclass(frozen=True)
class Op:
    """One CLI call: `lkwb <command> --n N [--locus L] [--r R] --seed S`."""

    command: str
    n: int
    locus: str = None
    r: str = None
    # r^(2n) = -1 at this point, where l=r^(3-2n) coincides with l=-r^3
    exceptional: bool = False

    @property
    def label(self):
        parts = [self.command, f"n={self.n}"]
        if self.locus:
            parts.append(self.locus)
        if self.r:
            parts.append(f"r={self.r}")
        return " ".join(parts)

    def argv(self, seed):
        args = [self.command, "--n", str(self.n)]
        if self.locus:
            args += ["--locus", self.locus]
        if self.command == "det":
            args += ["--mode", "substituted"]
        if self.r:
            args += ["--r", self.r]
        return args + ["--seed", str(seed)]


def operations(workload):
    """The operations of one pass over a workload, in a fixed order."""
    if workload == "certify-q":
        return [Op("certify", n, r="2/1") for n in (5, 7)]
    if workload == "det-subst":
        return [Op("det", n, locus) for n in (6, 7) for locus in loci(n)]
    if workload == "kernel-cyclo":
        return [Op("kernel", n, locus, f"cyclotomic:{phi}", exceptional=True)
                for n, phi in _CYCLOTOMIC_POINTS for locus in loci(n)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# The paper's table
# ---------------------------------------------------------------------------


def paper_k(n, locus, exceptional):
    """dim K(n) on a locus; at r^(2n) = -1, l=r^(3-2n) is the locus l=-r^3."""
    if locus == "l=r":
        return n * (n - 3) // 2
    if locus == "l=-r3" or (locus == "l=r3-2n" and exceptional):
        return (n - 1) * (n - 2) // 2 + (1 if exceptional else 0)
    if locus == "l=r3-2n":
        return 1
    return 3 if n == 4 else n - 1


def paper_min_dims_ok(n, locus, exceptional, dims):
    """Closure dimensions of the kernel vectors against the table.

    Off the exceptional points every closure is the unique minimal
    invariant subspace.  At r^(2n) = -1 the kernel on l=-r^3 is the sum of
    a line and the (n-1)(n-2)/2-dimensional subspace, so a closure of a
    kernel vector has one of those dimensions or their sum.
    """
    k = paper_k(n, locus, exceptional)
    if exceptional and locus in ("l=-r3", "l=r3-2n"):
        d = (n - 1) * (n - 2) // 2
        return bool(dims) and set(dims) <= {1, d, k}
    return list(dims) == [k]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks reports; builds M(n) at concrete points for the oracles.

    Needs src/ and tests/ of the checkout on sys.path.
    """

    def __init__(self):
        import oracles
        from lkwb.lkrep import rational_rep
        from lkwb.reducibility import build_m_matrix
        from lkwb.scalars import parse_rat

        self._oracles = oracles
        self._rational_rep = rational_rep
        self._build_m = build_m_matrix
        self._parse_rat = parse_rat
        self._rows = {}

    def m_rows(self, n, l, r):
        """Fraction rows of M(n) at rational (l, r), built by lkwb."""
        key = (n, l, r)
        if key not in self._rows:
            rep = self._rational_rep(n, self._parse_rat(str(l)), self._parse_rat(str(r)))
            self._rows[key] = self._oracles.to_fraction_rows(self._build_m(rep).matrix)
        return self._rows[key]

    def check(self, op, report, seed):
        """Problems found in the report of an operation that exited 0."""
        return getattr(self, "_check_" + op.command)(op, report, seed)

    def _check_certify(self, op, report, seed):
        n, r = op.n, Fraction(op.r)
        problems = []
        records = {rec["locus"]: rec for rec in report["loci"]}
        if set(records) != set(loci(n)) | {"generic"}:
            return [f"loci {sorted(records)}"]
        for locus in loci(n):
            rec = records[locus]
            l = locus_l(locus, n, r)
            k = paper_k(n, locus, False)
            if Fraction(rec["l"]) != l:
                problems.append(f"{locus}: l={rec['l']}, expected {l}")
            if rec["k"] != k:
                problems.append(f"{locus}: k={rec['k']}, paper {k}")
            if not paper_min_dims_ok(n, locus, False, rec["minimal_dims"]):
                problems.append(f"{locus}: minimal dims {rec['minimal_dims']}")
            if rec["det_verdict"] != "zero" or not rec["invariant"]:
                problems.append(f"{locus}: det {rec['det_verdict']}, invariant {rec['invariant']}")
            naive_k = self._oracles.naive_kernel_dim(self.m_rows(n, l, r))
            if naive_k != rec["k"]:
                problems.append(f"{locus}: naive kernel dim {naive_k}, reported {rec['k']}")
        gen = records["generic"]
        # Schur: an irreducible representation has only scalar endomorphisms.
        # The commutant is computed for n <= 5 only; -1 marks it skipped.
        cdim_ok = gen["commutant_dim"] == 1 or (n > 5 and gen["commutant_dim"] == -1)
        if gen["k"] != 0 or gen["det_verdict"] != "nonzero" or not cdim_ok:
            problems.append(f"generic: k={gen['k']}, det {gen['det_verdict']}, "
                            f"commutant_dim {gen['commutant_dim']}")
        naive_k = self._oracles.naive_kernel_dim(self.m_rows(n, Fraction(gen["l"]), r))
        if naive_k != 0:
            problems.append(f"generic: naive kernel dim {naive_k}")
        return problems

    def _check_det(self, op, report, seed):
        problems = []
        proof = report.get("proof", {})
        if report["verdict"] != "identically_zero" or report["probabilistic"]:
            problems.append(f"verdict {report['verdict']}, probabilistic {report['probabilistic']}")
        if proof.get("points_checked") != proof.get("degree_bound", -2) + 1:
            problems.append(f"points_checked {proof.get('points_checked')}, "
                            f"degree_bound {proof.get('degree_bound')}")
        # det M(n) is identically zero on the locus, so it vanishes at any r
        r = seeded_r(seed, op.label)
        d = self._oracles.naive_det(self.m_rows(op.n, locus_l(op.locus, op.n, r), r))
        if d != 0:
            problems.append(f"naive det at r={r} is {d}")
        return problems

    def _check_kernel(self, op, report, seed):
        problems = []
        k = paper_k(op.n, op.locus, op.exceptional)
        if report["k"] != k:
            problems.append(f"k={report['k']}, paper {k}")
        if not paper_min_dims_ok(op.n, op.locus, op.exceptional, report["minimal_dims"]):
            problems.append(f"minimal dims {report['minimal_dims']}")
        if not report["invariant"]:
            problems.append("kernel not invariant")
        return problems


def seeded_r(seed, label):
    """A rational r with |r| != 1, drawn from the workload seed."""
    rng = random.Random(f"{seed}|{label}")
    while True:
        r = Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(1, 40))
        if abs(r) != 1:
            return r
