"""Central extensions to five-dimensional contact Lie algebras.

A symplectic algebra (g, omega) extends to h = g x_omega R by adjoining a
central xi with [X, Y]_h = [X, Y]_g + omega(X, Y) xi.  The contact form is
eta = xi^*, and a compatible para-complex structure J on g induces the
para-contact metric structure (eta, xi, phi, h) with

    phi = blockdiag(J, 0),    h(x, y) = -d(eta)(x, phi y) + eta(x) eta(y).

The curvature and Ricci tensors of h are verified against the closed-form
expressions they must satisfy when the base is para-Kahler:

    R(X,Y)Z   = R_g(X,Y)Z - 1/4 g(X,JZ) JY + 1/4 g(Y,JZ) JX - 1/2 g(X,JY) JZ
    R(X,Y)xi  = 0,  R(X,xi)Z = 1/4 g(X,Z) xi,  R(X,xi)xi = -1/4 X
    Ric(Y,Z)  = Ric_g(Y,Z) + 1/2 g(Y,Z),  Ric(Y,xi) = 0,  Ric(xi,xi) = -1

Both identity checks take their curvature bundles as given: the 4D bundle the
base verification already computed and the 5D bundle of h on the extended
algebra.  Neither computes a bundle of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from .curvature import CurvatureBundle
from .expressions import (
    EXPR_ONE,
    EXPR_ZERO,
    ExprMatrix,
    RationalExpr,
    expr,
    format_expr,
)
from .liealgebra import LieAlgebra, TwoForm, ce_differential_1, is_symplectic
from .structures import Metric, check_omega_compat


class NonSymplecticError(ValueError):
    pass


class IncompatibleStructureError(ValueError):
    pass


@dataclass(frozen=True)
class CentralExtension:
    base: LieAlgebra
    omega: TwoForm
    extended: LieAlgebra
    n: int = 2  # half-dimension of the base

    @property
    def xi_index(self) -> int:
        return self.base.dim  # xi is the last basis vector


def central_extend(
    algebra: LieAlgebra, omega: TwoForm, require_symplectic: bool = True
) -> CentralExtension:
    """Adjoin a central xi with [X, Y] += omega(X, Y) xi.

    With ``require_symplectic`` (the default) a degenerate or non-closed form
    is rejected; closedness alone already makes the extension a Lie algebra,
    which the degenerate-contact tests exploit by passing False.
    """
    report = is_symplectic(algebra, omega)
    if require_symplectic and not report.ok:
        raise NonSymplecticError(
            f"form on {algebra.name} is not symplectic "
            f"(closed={report.closed}, det={format_expr(report.det)})"
        )
    if not report.closed:
        raise NonSymplecticError(
            f"form on {algebra.name} is not closed; the extension would not "
            "satisfy the Jacobi identity"
        )
    n = algebra.dim
    brackets = [
        (i, j, k, algebra.c(i - 1, j - 1, k - 1))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
        if not algebra.c(i - 1, j - 1, k - 1).is_zero
    ]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            w = omega(i - 1, j - 1)
            if not w.is_zero:
                brackets.append((i, j, n + 1, w))
    extended = LieAlgebra.from_brackets(
        f"{algebra.name}^ext", n + 1, brackets, algebra.params
    )
    return CentralExtension(base=algebra, omega=omega, extended=extended)


@dataclass(frozen=True)
class ParacontactStructure:
    extension: CentralExtension
    eta: Tuple[RationalExpr, ...]
    phi: ExprMatrix
    h: Metric
    fundamental: TwoForm  # Phi(X, Y) = h(phi X, Y)
    d_eta: TwoForm
    phi_equals_d_eta: bool
    phi_equals_minus_d_eta: bool


def build_paracontact(ext: CentralExtension, j_matrix: ExprMatrix) -> ParacontactStructure:
    """phi = blockdiag(J, 0); h(x, y) = -d(eta)(x, phi y) + eta(x) eta(y)."""
    base = ext.base
    if j_matrix.rows != base.dim:
        raise IncompatibleStructureError("J dimension does not match the base algebra")
    if not check_omega_compat(ext.omega, j_matrix).ok:
        raise IncompatibleStructureError(
            "J is not compatible with the symplectic form of the extension"
        )
    n5 = base.dim + 1
    xi = ext.xi_index
    eta = tuple(EXPR_ONE if i == xi else EXPR_ZERO for i in range(n5))
    phi_rows = [
        [j_matrix[i, j] if i < base.dim and j < base.dim else EXPR_ZERO for j in range(n5)]
        for i in range(n5)
    ]
    phi = ExprMatrix(phi_rows)
    d_eta = ce_differential_1(ext.extended, eta)
    h_rows = []
    for i in range(n5):
        row = []
        for j in range(n5):
            acc = eta[i] * eta[j]
            for k in range(n5):
                phi_kj = phi[k, j]
                if phi_kj.is_zero:
                    continue
                de = d_eta(i, k)
                if not de.is_zero:
                    acc = acc - de * phi_kj
            row.append(acc)
        h_rows.append(row)
    h = Metric(ExprMatrix(h_rows))
    fundamental = TwoForm(phi.transpose() @ h.matrix)
    return ParacontactStructure(
        extension=ext,
        eta=eta,
        phi=phi,
        h=h,
        fundamental=fundamental,
        d_eta=d_eta,
        phi_equals_d_eta=fundamental.matrix == d_eta.matrix,
        phi_equals_minus_d_eta=fundamental.matrix == (-d_eta.matrix),
    )


@dataclass(frozen=True)
class ContactReport:
    ok: bool
    coefficient: RationalExpr  # eta ^ d(eta) ^ d(eta) on (e_1..e_4, xi)


def check_contact(ext: CentralExtension) -> ContactReport:
    """Evaluate eta ^ (d eta)^2 on the full basis; contact iff nonzero."""
    n5 = ext.extended.dim
    xi = ext.xi_index
    eta = tuple(EXPR_ONE if i == xi else EXPR_ZERO for i in range(n5))
    d_eta = ce_differential_1(ext.extended, eta)
    # eta = xi^*, so the expansion along the 1-form slot has only the xi term
    a, b, c, d = (p for p in range(n5) if p != xi)
    pf = (
        d_eta(a, b) * d_eta(c, d)
        - d_eta(a, c) * d_eta(b, d)
        + d_eta(a, d) * d_eta(b, c)
    )
    sign = -1 if xi % 2 else 1  # (-1)^xi for pulling slot xi to the front
    total = expr(2 * sign) * pf
    return ContactReport(ok=not total.is_zero, coefficient=total)


def reeb_residuals(ps: ParacontactStructure):
    """d(eta)(xi, x) must vanish for the Reeb vector; eta(xi) = 1."""
    xi = ps.extension.xi_index
    bad = []
    for j in range(ps.extension.extended.dim):
        value = ps.d_eta(xi, j)
        if not value.is_zero:
            bad.append((j + 1, value))
    if not (ps.eta[xi] - EXPR_ONE).is_zero:
        bad.append(("eta(xi)", ps.eta[xi] - EXPR_ONE))
    return bad


def almost_paracontact_residuals(ps: ParacontactStructure):
    """phi(xi) = 0, eta o phi = 0, eta(xi) = 1, phi^2 = Id - eta (x) xi."""
    n5 = ps.extension.extended.dim
    xi = ps.extension.xi_index
    bad = []
    for i in range(n5):
        if not ps.phi[i, xi].is_zero:
            bad.append((f"phi(xi)[{i + 1}]", ps.phi[i, xi]))
    for j in range(n5):
        acc = EXPR_ZERO
        for i in range(n5):
            acc = acc + ps.eta[i] * ps.phi[i, j]
        if not acc.is_zero:
            bad.append((f"(eta o phi)[{j + 1}]", acc))
    correction = ExprMatrix(
        [
            [ps.eta[j] if i == xi else EXPR_ZERO for j in range(n5)]
            for i in range(n5)
        ]
    )
    residual = ps.phi @ ps.phi - ExprMatrix.identity(n5) + correction
    for i in range(n5):
        for j in range(n5):
            if not residual[i, j].is_zero:
                bad.append((f"phi^2-(Id-eta*xi)[{i + 1},{j + 1}]", residual[i, j]))
    return bad


def check_compatible_metric(ps: ParacontactStructure):
    """h(phi X, phi Y) = -h(X, Y) + eta(X) eta(Y), entrywise on the basis."""
    n5 = ps.extension.extended.dim
    lhs = ps.phi.transpose() @ ps.h.matrix @ ps.phi
    bad = []
    for i in range(n5):
        for j in range(n5):
            residual = lhs[i, j] + ps.h(i, j) - ps.eta[i] * ps.eta[j]
            if not residual.is_zero:
                bad.append((i + 1, j + 1, residual))
    return bad


def metric_restriction_residuals(ps: ParacontactStructure, base_g: Metric):
    """h restricted to the contact distribution must equal the base metric."""
    bad = []
    for i in range(base_g.dim):
        for j in range(base_g.dim):
            diff = ps.h(i, j) - base_g(i, j)
            if not diff.is_zero:
                bad.append((i + 1, j + 1, diff))
    xi = ps.extension.xi_index
    if not (ps.h(xi, xi) - EXPR_ONE).is_zero:
        bad.append((xi + 1, xi + 1, ps.h(xi, xi) - EXPR_ONE))
    for i in range(base_g.dim):
        if not ps.h(i, xi).is_zero:
            bad.append((i + 1, xi + 1, ps.h(i, xi)))
    return bad


@dataclass(frozen=True)
class IdentityReport:
    identities: Dict[str, bool]
    residuals: Tuple[Tuple[str, str], ...]  # (component tag, residual text)

    @property
    def ok(self) -> bool:
        return all(self.identities.values())


QUARTER = expr("1/4")
HALF = expr("1/2")


def _record(identities, residuals, identity, tag, value) -> None:
    """Clear ``identity`` on a nonzero residual; keep the first 16 residual texts."""
    if not value.is_zero:
        identities[identity] = False
        if len(residuals) < 16:
            residuals.append((tag, format_expr(value)))


def verify_lifted_curvature(
    ps: ParacontactStructure,
    base_bundle: CurvatureBundle,
    j_matrix: ExprMatrix,
    ext_bundle: CurvatureBundle,
) -> IdentityReport:
    """Compare the 5D curvature with its para-Sasakian closed form."""
    ext = ps.extension
    n = ext.base.dim
    xi = ext.xi_index
    riem5 = ext_bundle.riemann.comps
    riem4 = base_bundle.riemann.comps
    g = base_bundle.metric.matrix
    jm = j_matrix
    gj = g @ jm  # (g . J)_ik = g(e_i, J e_k)
    residuals: List[Tuple[str, str]] = []
    identities = {
        "base_formula": True,
        "r_xy_xi": True,
        "r_x_xi_z": True,
        "r_x_xi_xi": True,
    }
    record = partial(_record, identities, residuals)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    expected = (
                        riem4[i][j][k][s]
                        - QUARTER * gj[i, k] * jm[s, j]
                        + QUARTER * gj[j, k] * jm[s, i]
                        - HALF * gj[i, j] * jm[s, k]
                    )
                    record(
                        "base_formula",
                        f"R({i + 1},{j + 1}){k + 1}|{s + 1}",
                        riem5[i][j][k][s] - expected,
                    )
                # no xi-component on base triples
                record(
                    "base_formula",
                    f"R({i + 1},{j + 1}){k + 1}|xi",
                    riem5[i][j][k][xi],
                )
            for s in range(n + 1):
                record("r_xy_xi", f"R({i + 1},{j + 1})xi|{s + 1}", riem5[i][j][xi][s])
        for k in range(n):
            for s in range(n):
                record("r_x_xi_z", f"R({i + 1},xi){k + 1}|{s + 1}", riem5[i][xi][k][s])
            record(
                "r_x_xi_z",
                f"R({i + 1},xi){k + 1}|xi",
                riem5[i][xi][k][xi] - QUARTER * g[i, k],
            )
        for s in range(n):
            record(
                "r_x_xi_xi",
                f"R({i + 1},xi)xi|{s + 1}",
                riem5[i][xi][xi][s] - (-QUARTER if s == i else EXPR_ZERO),
            )
        record("r_x_xi_xi", f"R({i + 1},xi)xi|xi", riem5[i][xi][xi][xi])
    return IdentityReport(identities=identities, residuals=tuple(residuals))


def verify_lifted_ricci(
    ps: ParacontactStructure,
    base_bundle: CurvatureBundle,
    ext_bundle: CurvatureBundle,
) -> IdentityReport:
    """Ric_h = Ric_g + g/2 on the base, Ric_h(., xi) = 0, Ric_h(xi, xi) = -n/2."""
    ext = ps.extension
    n = ext.base.dim
    xi = ext.xi_index
    ric5 = ext_bundle.ricci.ricci
    ric4 = base_bundle.ricci.ricci
    g = base_bundle.metric.matrix
    residuals: List[Tuple[str, str]] = []
    identities = {"ric_base": True, "ric_y_xi": True, "ric_xi_xi": True}
    record = partial(_record, identities, residuals)
    for j in range(n):
        for k in range(n):
            record(
                "ric_base",
                f"Ric({j + 1},{k + 1})",
                ric5[j, k] - ric4[j, k] - HALF * g[j, k],
            )
        record("ric_y_xi", f"Ric({j + 1},xi)", ric5[j, xi])
        record("ric_y_xi", f"Ric(xi,{j + 1})", ric5[xi, j])
    record(
        "ric_xi_xi",
        "Ric(xi,xi)",
        ric5[xi, xi] + expr(ext.n) * HALF,
    )
    return IdentityReport(identities=identities, residuals=tuple(residuals))
