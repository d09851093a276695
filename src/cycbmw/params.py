"""Parameter tuples (q, rho, u_1..u_r) and the admissibility scalar formulas.

An admissible parameter set satisfies

    rho^{-1} = alpha * u_1 ... u_r,    alpha in {1,-1} (r odd) or {q^{-1},-q} (r even)

and carries the weight vector

    gamma_i = (gamma_r(u_i) + delta^{-1} rho (u_i^2 - 1) prod_{j!=i} u_j)
              * prod_{j!=i} (u_i u_j - 1) / (u_i - u_j)

with gamma_r(z) = 1 for r odd and -z for r even, from which the whole
two-sided sequence omega_a = sum_j u_j^a gamma_j is evaluated exactly.

Non-admissible sets are allowed too (they drive the semi-admissible and
degenerate regimes): for those the values omega_1..omega_{r-1} must be
supplied explicitly, and higher/lower indices follow the linear recurrence
induced by the vanishing of prod (x - u_j).

Always, independent of admissibility:

    delta = q - q^{-1} != 0,          omega_0 = 1 - delta^{-1}(rho - rho^{-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .fields import Field, FieldElement, multiplicative_order


class ParameterError(ValueError):
    """Invalid parameter data."""


class AdmissibilityError(ParameterError):
    """The admissible flag was requested but no witness alpha exists."""


class DistinctParameterError(ParameterError):
    """Repeated u-values: the gamma formula divides by u_i - u_j."""


def _elementary_symmetric(values):
    """[sigma_0, ..., sigma_r] of the given field elements, r >= 1."""
    sig = [values[0].field(1)]
    for v in values:
        nxt = [sig[0]]
        for k in range(1, len(sig)):
            nxt.append(sig[k] + sig[k - 1] * v)
        nxt.append(sig[-1] * v)
        sig = nxt
    return sig


@dataclass
class AdmissibilityReport:
    passed: bool
    alpha: Optional[FieldElement]
    omega0_preamble: FieldElement
    omega0_formula: Optional[FieldElement]
    detail: str

    def __bool__(self):
        return self.passed


class ParameterSet:
    """Immutable parameter tuple; validates at construction.

    `admissible=True` demands a witness alpha and derives all omega values
    from the closed gamma formula.  `admissible=False` requires
    `omegas=(w_1, ..., w_{r-1})` whenever r > 1.
    """

    def __init__(self, field: Field, q, rho, u: Sequence, admissible: bool = True,
                 omegas: Optional[Sequence] = None):
        self.field = field
        self.q = field(q)
        self.rho = field(rho)
        self.u = tuple(field(x) for x in u)
        self.r = len(self.u)
        if self.r < 1:
            raise ParameterError("need at least one cyclotomic parameter u_1")
        if self.q.is_zero() or self.rho.is_zero():
            raise ParameterError("q and rho must be nonzero")
        if any(x.is_zero() for x in self.u):
            raise ParameterError("every u_i must be nonzero")
        self.delta = self.q - self.q.inv()
        if self.delta.is_zero():
            raise ParameterError("q^2 = 1 is rejected: delta = q - q^{-1} must be invertible")
        # omega_0 is forced by (q, rho) independently of everything else.
        self.omega0 = field(1) - self.delta.inv() * (self.rho - self.rho.inv())
        self.e = multiplicative_order(self.q * self.q)
        self.sigma = _elementary_symmetric(list(self.u))
        self.admissible = bool(admissible)
        self._omega_cache = {0: self.omega0}
        self.alpha: Optional[FieldElement] = None
        self._gammas = None
        if self.admissible:
            report = check_admissible(self)
            if not report.passed:
                raise AdmissibilityError(report.detail)
            self.alpha = report.alpha
            self._gammas = gamma_weights(self)
            om0 = sum(self._gammas, field(0))
            if om0 != self.omega0:
                raise AdmissibilityError(
                    "gamma weights do not reproduce omega_0; parameters inconsistent")
            if omegas is not None:
                raise ParameterError("explicit omegas are only for non-admissible sets")
            self._explicit = None
        else:
            if self.r > 1:
                if omegas is None or len(omegas) != self.r - 1:
                    raise ParameterError(
                        "non-admissible sets need explicit omegas (omega_1..omega_{r-1})")
                self._explicit = tuple(field(w) for w in omegas)
            else:
                if omegas:
                    raise ParameterError("r = 1 determines all omegas from omega_0")
                self._explicit = ()
            for a, w in enumerate(self._explicit, start=1):
                self._omega_cache[a] = w

    # -- constructors ---------------------------------------------------------

    @classmethod
    def semi_admissible(cls, base: "ParameterSet", extra_u: Sequence) -> "ParameterSet":
        """Extend an admissible level-d set by extra roots, keeping its omegas.

        The resulting level-r set shares (q, rho) with `base`; its relation
        scalars omega_1..omega_{r-1} are the base's, so the quotient at the
        bigger level collapses onto the base's e_1-column.
        """
        if not base.admissible:
            raise ParameterError("semi-admissible extension needs an admissible base")
        extra = tuple(base.field(x) for x in extra_u)
        if not extra:
            return base
        u = base.u + extra
        if len(set(u)) != len(u):
            raise ParameterError("extension roots must be distinct from the base roots")
        r = len(u)
        omegas = [omega(base, a) for a in range(1, r)]
        return cls(base.field, base.q, base.rho, u, admissible=False, omegas=omegas)

    # -- misc -----------------------------------------------------------------

    def __repr__(self):
        flag = "admissible" if self.admissible else "non-admissible"
        us = ",".join(str(x) for x in self.u)
        return (f"ParameterSet({self.field.descriptor_string()}, q={self.q}, "
                f"rho={self.rho}, u=({us}), {flag})")

    def relation_omegas(self):
        """[omega_0, ..., omega_{r-1}] as used by the defining relations."""
        return [omega(self, a) for a in range(self.r)]


def gamma_weights(p: ParameterSet):
    """The weights (gamma_1, ..., gamma_r); requires pairwise distinct u."""
    f = p.field
    one = f(1)
    us = p.u
    if len(set(us)) != len(us):
        raise DistinctParameterError("gamma weights need pairwise distinct u-values")
    dinv_rho = p.delta.inv() * p.rho
    out = []
    for i, ui in enumerate(us):
        if p.r % 2:
            head = one
        else:
            head = -ui
        prod_other = one
        ratio = one
        for j, uj in enumerate(us):
            if j == i:
                continue
            prod_other = prod_other * uj
            ratio = ratio * (ui * uj - one) / (ui - uj)
        gi = (head + dinv_rho * (ui * ui - one) * prod_other) * ratio
        out.append(gi)
    return out


def omega(p: ParameterSet, a: int) -> FieldElement:
    """omega_a for any integer a.

    Admissible sets use the closed formula sum_j u_j^a gamma_j.  Sets with
    explicit omegas extend them to all of Z through the recurrence coming
    from prod (x - u_j) = 0 (sigma_r is invertible, so both directions work).
    """
    cache = p._omega_cache
    if a in cache:
        return cache[a]
    if p.admissible:
        val = p.field(0)
        for uj, gj in zip(p.u, p._gammas):
            val = val + uj**a * gj
        cache[a] = val
        return val
    r, sig = p.r, p.sigma
    if a > 0:
        # omega_{b+r} = sum_{k<r} (-1)^{r-k-1} sigma_{r-k} omega_{b+k}
        top = max(cache)
        for b in range(top - r + 1, a - r + 1):
            val = p.field(0)
            for k in range(r):
                term = sig[r - k] * omega(p, b + k)
                val = val + (term if (r - k - 1) % 2 == 0 else -term)
            cache[b + r] = val
        return cache[a]
    # downward: omega_b = (omega_{b+r} - sum_{0<k<r} ...) / ((-1)^{r-1} sigma_r)
    lead = sig[r] if (r - 1) % 2 == 0 else -sig[r]
    bot = min(cache)
    for b in range(bot - 1, a - 1, -1):
        val = omega(p, b + r)
        for k in range(1, r):
            term = sig[r - k] * omega(p, b + k)
            val = val - (term if (r - k - 1) % 2 == 0 else -term)
        cache[b] = val / lead
    return cache[a]


def alpha_candidates(q, r: Optional[int] = None):
    """The allowed witnesses alpha: {1, -1} for odd r, {q^{-1}, -q} for even
    r.  Takes (q, r) or a parameter set."""
    if r is None:
        q, r = q.q, q.r
    f = q.field
    return [f(1), f(-1)] if r % 2 else [q.inv(), -q]


def admissible_rho(q, u: Sequence, alpha=None):
    """rho = (alpha u_1 ... u_r)^{-1}, the rho that makes (q, rho, u)
    admissible with witness alpha (default: alpha_candidates(q, r)[0])."""
    alpha = alpha_candidates(q, len(u))[0] if alpha is None else alpha
    return math.prod(u, start=alpha).inv()


def check_admissible(p: ParameterSet) -> AdmissibilityReport:
    """Search the two allowed alphas; cross-check the two omega_0 formulas.

    Passes iff some alpha satisfies rho^{-1} = alpha * prod(u) and the
    closed omega_0 expression

        delta^{-1} rho (prod u^2 - 1) + 1 - ((-1)^r + 1)/2 * alpha^{-1} rho^{-1}

    agrees with the preamble identity omega_0 = 1 - delta^{-1}(rho - rho^{-1}).
    """
    f = p.field
    prod_u = p.sigma[p.r]
    rho_inv = p.rho.inv()
    for alpha in alpha_candidates(p):
        if rho_inv != alpha * prod_u:
            continue
        prod_u2 = prod_u * prod_u
        om = p.delta.inv() * p.rho * (prod_u2 - f(1)) + f(1)
        if p.r % 2 == 0:
            om = om - alpha.inv() * rho_inv
        if om == p.omega0:
            return AdmissibilityReport(True, alpha, p.omega0, om, f"alpha = {alpha}")
        return AdmissibilityReport(
            False, alpha, p.omega0, om,
            "alpha witness found but the two omega_0 expressions disagree")
    return AdmissibilityReport(
        False, None, p.omega0, None,
        "no alpha in the allowed set satisfies rho^{-1} = alpha * prod(u)")


def omega_vanishing_report(p: ParameterSet):
    """(all_zero, first nonzero index in 0..r-1 or None).

    Vanishing of omega_0..omega_{r-1} decides vanishing of the whole
    sequence: every omega_a is a linear combination of r consecutive ones.
    """
    for a in range(p.r):
        if not omega(p, a).is_zero():
            return False, a
    return True, None


# -- parameter file format ----------------------------------------------------
# key = value lines; '#' starts a comment.  Fields: field, q, rho, r,
# u (comma list), admissible (bool); optional omega (comma list, only for
# admissible = false with r > 1).

def render_parameter_file(p: ParameterSet) -> str:
    lines = [
        f"field = {p.field.descriptor_string()}",
        f"q = {p.q}",
        f"rho = {p.rho}",
        f"r = {p.r}",
        "u = " + ",".join(str(x) for x in p.u),
        f"admissible = {'true' if p.admissible else 'false'}",
    ]
    if not p.admissible and p.r > 1:
        lines.append("omega = " + ",".join(str(w) for w in p._explicit))
    return "\n".join(lines) + "\n"


_PARAMETER_KEYS = ("field", "q", "rho", "r", "u", "admissible", "omega")
_FLAG_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_scalars(field: Field, values: Sequence[str], where: str) -> List[FieldElement]:
    """The strings `values` as elements of `field`; a malformed one is
    refused with `where` (a flag, or a file key and its line) in front."""
    try:
        return [field(s) for s in values]
    except ValueError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def parse_parameter_file(text: str) -> ParameterSet:
    entries, line_of = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        key = key.strip().lower()
        if key not in _PARAMETER_KEYS:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ParameterError(f"line {lineno}: repeated key {key!r}")
        entries[key], line_of[key] = val.strip(), lineno
    missing = {"field", "q", "rho", "u"} - set(entries)
    if missing:
        raise ParameterError(f"parameter file is missing: {', '.join(sorted(missing))}")
    field = Field.from_descriptor(entries["field"])
    u = [s.strip() for s in entries["u"].split(",") if s.strip()]
    if "r" in entries:
        try:
            r = int(entries["r"])
        except ValueError:
            raise ParameterError(f"line {line_of['r']}: r = {entries['r']!r} "
                                 "is not an integer") from None
        if r != len(u):
            raise ParameterError("declared r does not match the number of u-values")
    flag = entries.get("admissible", "true").lower()
    if flag not in _FLAG_VALUES:
        raise ParameterError(f"admissible must be one of {'/'.join(_FLAG_VALUES)}, "
                             f"got {flag!r}")
    admissible = _FLAG_VALUES[flag]

    def scalars(key, values):
        return parse_scalars(field, values, f"line {line_of[key]}: {key}")

    omegas = None
    if "omega" in entries:
        omegas = scalars("omega", [s.strip() for s in entries["omega"].split(",") if s.strip()])
    (q,), (rho,) = scalars("q", [entries["q"]]), scalars("rho", [entries["rho"]])
    return ParameterSet(field, q, rho, scalars("u", u), admissible=admissible, omegas=omegas)
