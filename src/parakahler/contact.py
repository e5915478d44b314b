"""Central extensions to five-dimensional contact Lie algebras.

A symplectic algebra (g, omega) extends to h = g x_omega R by adjoining a
central xi with [X, Y]_h = [X, Y]_g + omega(X, Y) xi.  The extension, its
contact form eta = xi^*, d(eta), eta^T eta = xi eta and the Reeb identities
depend on the pair (g, omega) only, so they are built once per form; each
compatible para-complex structure J on g then induces the para-contact metric
structure (eta, xi, phi, h), with fundamental form Phi = phi^T h, where

    phi = blockdiag(J, 0),    h = eta^T eta - d(eta) phi,

with eta a 1 x 5 row and xi = eta^T a column.  The para-contact axioms are
checked as whole-matrix identities; each residual builder returns the matrix
(or matrices) that must vanish:

    Phi phi + h - eta^T eta                      compatible metric
    h - blockdiag(g, 1)                          restriction to the base
    xi _| d(eta),  eta(xi) - 1                   Reeb vector (per form)
    phi xi,  eta phi,  phi^2 - Id + eta^T eta    almost para-contact

The curvature and Ricci tensors of h are verified against the closed-form
expressions they must satisfy when the base is para-Kahler, where
omega(X, Z) = g(X, JZ) since g = omega J and J^2 = Id:

    R(X,Y)Z   = R_g(X,Y)Z - 1/4 omega(X,Z) JY + 1/4 omega(Y,Z) JX - 1/2 omega(X,Y) JZ
    R(X,Y)xi  = 0,  R(X,xi)Z = 1/4 g(X,Z) xi,  R(X,xi)xi = -1/4 X
    Ric(Y,Z)  = Ric_g(Y,Z) + 1/2 g(Y,Z),  Ric(Y,xi) = 0,  Ric(xi,xi) = -1

Both identity checks take their curvature bundles as given: the 4D bundle the
base verification already computed and the 5D bundle of h on the extended
algebra.  Neither computes a bundle of its own.  The curvature identities are
checked in one pass over R^s_ijk, where the slots among j, k, s that hold xi
select the identity and its closed form.  On the base the closed form is built
once per entry from the 4D curvature numerators, as polynomial numerators over
one denominator, and each normalized 5D component is compared with it by
cross-multiplication; only a nonzero residual is normalized.  Only the
components where R, the closed form or an xi-slot constant is nonzero are
visited.  Both checks report their residuals through
``collect_residuals``, as the 4D axiom checks do.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Tuple

from .curvature import CurvatureBundle
from .expressions import (
    _P_ZERO,
    EXPR_ONE,
    EXPR_ZERO,
    ExprMatrix,
    RationalExpr,
    _make,
    expr,
    format_expr,
)
from .liealgebra import LieAlgebra, SymplecticReport, TwoForm, ce_differential_1, pfaffian4
from .structures import IdentityReport, Metric, collect_residuals


class NonSymplecticError(ValueError):
    pass


class CentralExtension(NamedTuple):
    base: LieAlgebra
    omega: TwoForm
    extended: LieAlgebra
    eta: ExprMatrix  # the contact form xi^* as a 1 x 5 row; xi = eta^T
    d_eta: TwoForm
    eta_eta: ExprMatrix  # eta^T eta = xi eta

    @property
    def xi_index(self) -> int:
        return self.base.dim  # xi is the last basis vector


def central_extend(
    algebra: LieAlgebra, omega: TwoForm, report: SymplecticReport
) -> CentralExtension:
    """Adjoin a central xi with [X, Y] += omega(X, Y) xi; omega must be symplectic,
    as ``report`` (``is_symplectic(algebra, omega)``) records."""
    if not report.ok:
        raise NonSymplecticError(
            f"form on {algebra.name} is not symplectic "
            f"(closed={report.closed}, det={format_expr(report.det)})"
        )
    n = algebra.dim
    brackets = list(algebra.sparse_brackets())
    brackets += [(i, j, n + 1, w) for i, j, w in omega.terms()]
    extended = LieAlgebra.from_brackets(
        f"{algebra.name}^ext", n + 1, brackets, algebra.params
    )
    eta = ExprMatrix([(EXPR_ZERO,) * n + (EXPR_ONE,)])  # xi^*
    d_eta = ce_differential_1(extended, eta.entries[0])
    return CentralExtension(algebra, omega, extended, eta, d_eta, eta.transpose() @ eta)


def _bordered(m: ExprMatrix, corner: RationalExpr) -> ExprMatrix:
    """blockdiag(m, corner): ``m`` with a zero last row and column, then ``corner``."""
    return ExprMatrix(
        [list(row) + [EXPR_ZERO] for row in m.entries] + [[EXPR_ZERO] * m.cols + [corner]]
    )


class ParacontactStructure(NamedTuple):
    extension: CentralExtension
    phi: ExprMatrix
    h: Metric
    fundamental: ExprMatrix  # Phi = phi^T h
    phi_vs_deta: str  # Phi against d(eta): equal | negated | mismatch


def build_paracontact(ext: CentralExtension, j_matrix: ExprMatrix) -> ParacontactStructure:
    """phi = blockdiag(J, 0); h = eta^T eta - d(eta) phi; Phi = phi^T h.

    ``j_matrix`` is a structure that passed the 4D axioms, so it is a
    para-complex structure compatible with ``ext.omega``.
    """
    d_eta = ext.d_eta.matrix
    phi = _bordered(j_matrix, EXPR_ZERO)
    h = Metric(ext.eta_eta - d_eta @ phi)
    fundamental = phi.transpose() @ h.matrix
    if fundamental == d_eta:
        phi_vs_deta = "equal"
    elif fundamental == -d_eta:
        phi_vs_deta = "negated"
    else:
        phi_vs_deta = "mismatch"
    return ParacontactStructure(ext, phi, h, fundamental, phi_vs_deta)


class ContactReport(NamedTuple):
    ok: bool
    coefficient: RationalExpr  # eta ^ d(eta) ^ d(eta) on (e_1..e_4, xi)


def check_contact(ext: CentralExtension) -> ContactReport:
    """Evaluate eta ^ (d eta)^2 on the full basis; contact iff nonzero."""
    # eta = xi^* with xi last, so the expansion along the 1-form slot has only
    # the xi term: twice the Pfaffian of d(eta) on the base
    n = ext.xi_index
    base = TwoForm(ExprMatrix([row[:n] for row in ext.d_eta.matrix.entries[:n]]))
    total = expr(2) * pfaffian4(base)
    return ContactReport(ok=not total.is_zero, coefficient=total)


def reeb_residuals(ext: CentralExtension) -> Tuple[ExprMatrix, ExprMatrix]:
    """xi _| d(eta) and eta(xi) - 1; both vanish for the Reeb vector."""
    return ext.eta @ ext.d_eta.matrix, ext.eta @ ext.eta.transpose() - ExprMatrix.identity(1)


def almost_paracontact_residuals(ps: ParacontactStructure) -> Tuple[ExprMatrix, ...]:
    """phi xi, eta phi and phi^2 - Id + xi eta; all vanish."""
    phi, eta, xi_eta = ps.phi, ps.extension.eta, ps.extension.eta_eta
    return phi @ eta.transpose(), eta @ phi, phi @ phi - ExprMatrix.identity(phi.rows) + xi_eta


def check_compatible_metric(ps: ParacontactStructure) -> ExprMatrix:
    """Phi phi + h - eta^T eta: h(phi X, phi Y) = -h(X, Y) + eta(X) eta(Y)."""
    return ps.fundamental @ ps.phi + ps.h.matrix - ps.extension.eta_eta


def metric_restriction_residuals(ps: ParacontactStructure, base_g: Metric) -> ExprMatrix:
    """h - blockdiag(g, 1): h is the base metric on the distribution, h(xi, xi) = 1."""
    return ps.h.matrix - _bordered(base_g.matrix, EXPR_ONE)


QUARTER = expr("1/4")
HALF = expr("1/2")


def verify_lifted_curvature(
    ps: ParacontactStructure,
    base_bundle: CurvatureBundle,
    j_matrix: ExprMatrix,
    ext_bundle: CurvatureBundle,
) -> IdentityReport:
    """Compare the 5D curvature with its para-Sasakian closed form, in one pass
    over R^s_ijk with i on the base and j, k, s on the base or xi.  Only the
    components where R, the closed form or a constant of an xi-slot identity
    is nonzero can leave a residual, so only those are visited, in index order."""
    n = ps.extension.base.dim
    g = base_bundle.metric.matrix
    # R of h normalized where nonzero, R^s_jik = -R^s_ijk filled in
    riem5 = ext_bundle.riemann.normalized()
    riem5.update({(j, i, k, s): -r for (i, j, k, s), r in list(riem5.items())})
    # the closed form of R^s_ijk on the base, as numerators over one den:
    # R4 - 1/4 w_ik J_sj + 1/4 w_jk J_si - 1/2 w_ij J_sk, w_ik = omega_ik = g(e_i, J e_k)
    dr = base_bundle.riemann.den
    dw, w = ps.extension.omega.matrix._cleared()
    dj, jn = j_matrix._cleared()
    den, r4_scale = (dr * dw * dj).scale(4), (dw * dj).scale(4)
    closed = {}
    for (i, j, k, s), x in base_bundle.riemann.nums:
        closed[i, j, k, s] = x = x * r4_scale
        closed[j, i, k, s] = -x
    # dr w_ab J_sc, multiplied out only for nonzero factors, enters R^s_cab,
    # R^s_acb negated and R^s_abc times -2
    for (a, b, x), (s, c, y) in product(
        [(a, b, x * dr) for a, row in enumerate(w) for b, x in enumerate(row) if x.terms],
        [(s, c, y) for s, row in enumerate(jn) for c, y in enumerate(row) if y.terms],
    ):
        term = x * y
        for key, t in (((c, a, b, s), term), ((a, c, b, s), -term), ((a, b, c, s), term.scale(-2))):
            closed[key] = closed.get(key, _P_ZERO) + t
    visit = {key for key in riem5 if key[0] < n} | set(closed)
    visit |= {(i, n, k, n) for i in range(n) for k in range(n) if not g[i, k].is_zero}
    visit |= {(i, n, n, i) for i in range(n)}
    names = [str(x + 1) for x in range(n)] + ["xi"]

    def cases():
        for i, j, k, s in sorted(visit):
            where = f"R({names[i]},{names[j]}){names[k]}|{names[s]}"
            value = riem5.get((i, j, k, s), EXPR_ZERO)
            if j < n and k < n:  # R(X,Y)Z, whose xi-component (s = n) is 0
                if s < n:  # value - closed/den, normalized only when nonzero
                    lhs = value.num * den
                    rhs = closed.get((i, j, k, s), _P_ZERO) * value.den
                    value = EXPR_ZERO if lhs == rhs else _make(lhs - rhs, value.den * den)
                yield "base_formula", where, value
            elif j < n:
                yield "r_xy_xi", where, value
            elif k < n:
                yield "r_x_xi_z", where, value - QUARTER * g[i, k] if s == n else value
            else:
                yield "r_x_xi_xi", where, value + QUARTER if s == i else value

    return collect_residuals(cases(), "base_formula", "r_xy_xi", "r_x_xi_z", "r_x_xi_xi")


def verify_lifted_ricci(
    ps: ParacontactStructure,
    base_bundle: CurvatureBundle,
    ext_bundle: CurvatureBundle,
) -> IdentityReport:
    """Ric_h = Ric_g + g/2 on the base, Ric_h(., xi) = 0, Ric_h(xi, xi) = -n/2."""
    xi = ps.extension.xi_index
    ric5 = ext_bundle.ricci.ricci
    ric4 = base_bundle.ricci.ricci
    hg = base_bundle.metric.matrix.scale(HALF)

    def cases():
        for j in range(xi):
            for k in range(xi):
                yield "ric_base", f"Ric({j + 1},{k + 1})", ric5[j, k] - ric4[j, k] - hg[j, k]
            yield "ric_y_xi", f"Ric({j + 1},xi)", ric5[j, xi]
            yield "ric_y_xi", f"Ric(xi,{j + 1})", ric5[xi, j]
        yield "ric_xi_xi", "Ric(xi,xi)", ric5[xi, xi] + expr(xi // 2) * HALF

    return collect_residuals(cases(), "ric_base", "ric_y_xi", "ric_xi_xi")
