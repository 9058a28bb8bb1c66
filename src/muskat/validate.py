"""Identity validation suites: every exact operator identity, numerically.

Each suite runs its checks at two grid resolutions where refinement is the
claim, or at documented desk-scale cases where an absolute tolerance is the
claim, and reports (suite, check, value, threshold, pass) rows.
"""

from __future__ import annotations

import numpy as np

from .dynamics import InterfaceState, PhysicalParams, wow_residual
from .grid import (GridSpec, ScalarField, band_limited_random, l2_norm,
                   make_gaussian_bump, make_zero)
from .kernels import OperatorSpec, apply_B, chain_rule_residual
from .multipliers import MultiplierSpec, symbol_D, symbol_T
from .fields import jump_check
from .offsets import near_offsets, pv_offsets
from .potentials import (InterfaceGeometry, _a_operator, _aa_operator,
                         _d_operator, _d_star_operator, _direct_sum, _first_split,
                         _scales, _split_sum, adjointness_defect, apply_A,
                         apply_A_composed, apply_AA, apply_AA_composed, apply_D,
                         apply_D_composed, apply_D_star, apply_D_star_composed,
                         gradient_identity_residual, rellich_residual)
from .profiles import make_difference_profile, phibar
from .resolvent import solve_beta


class Row:
    def __init__(self, suite, check, value, threshold, passed, note=""):
        self.suite = suite
        self.check = check
        self.value = float(value)
        self.threshold = float(threshold)
        self.passed = bool(passed)
        self.note = note

    def line(self):
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.check}: value={self.value:.3e} "
                f"threshold={self.threshold:.3e} {self.note}")


CSV_HEADER = ("suite", "check", "value", "threshold", "passed", "note")


def _geometry(M, seed, amp=0.7):
    g = GridSpec(1, 2 * np.pi, M)
    f = make_gaussian_bump(g, amp, [np.pi], 0.5)
    return InterfaceGeometry(f), np.random.default_rng(seed)


def suite_adjoint(cfg):
    rows = []
    for M in (cfg.grid.points, 2 * cfg.grid.points):
        geom, rng = _geometry(M, cfg.seed)
        worst = 0.0
        for _ in range(10):
            beta = band_limited_random(geom.grid, 3, rng)
            gamma = band_limited_random(geom.grid, 3, rng)
            worst = max(worst, adjointness_defect(geom, beta, gamma))
        rows.append(Row("adjoint", f"M={M}", worst, 1e-12, worst <= 1e-12))
    return rows


def suite_gradient_identity(cfg):
    # documented case: L=16, f = 0.25 exp(.|width 1.2), beta offset +0.6;
    # the two-grid order estimate is reported at two decimals (the raw value
    # is 1 - 2e-5 from a same-sign h^2 correction)
    residuals = []
    for M in (256, 512):
        g = GridSpec(1, 16.0, M)
        geom = InterfaceGeometry(make_gaussian_bump(g, 0.25, [8.0], 1.2))
        beta = make_gaussian_bump(g, 1.0, [8.6], 1.2)
        residuals.append(gradient_identity_residual(geom, beta))
    order = round(float(np.log2(residuals[0] / residuals[1])), 2)
    return [
        Row("gradient-identity", "order", order, 1.0, order >= 1.0,
            note=f"res={residuals[0]:.3e}->{residuals[1]:.3e}"),
        Row("gradient-identity", "abs@2M", residuals[1], 1e-3, residuals[1] <= 1e-3),
    ]


def suite_chain_rule(cfg):
    residuals = []
    for M in (48, 96):
        g = GridSpec(1, 2 * np.pi, M)
        a = make_gaussian_bump(g, 0.8, [np.pi], 0.45)
        beta = make_gaussian_bump(g, 1.0, [np.pi + 0.4], 0.5)
        spec = OperatorSpec(phibar(1), 1, (0,))
        residuals.append(chain_rule_residual(spec, a, [a], beta))
    order = float(np.log2(residuals[0] / residuals[1]))
    return [Row("chain-rule", "order", order, 1.0, order >= 1.0,
                note=f"res={residuals[0]:.3e}->{residuals[1]:.3e}")]


def suite_wow(cfg):
    rows = []
    for a_mu in (0.0, 0.5, -0.8):
        residuals = []
        for M in (48, 96):
            g = GridSpec(1, 2 * np.pi, M)
            f = make_gaussian_bump(g, 0.6, [np.pi], 0.5)
            params = PhysicalParams(lam=1.0, a_mu=a_mu)
            state = InterfaceState.compute(f, params, tol=1e-12)
            residuals.append(wow_residual(state, params))
        if a_mu == 0.0:
            rows.append(Row("wow", "a_mu=0", residuals[1], 1e-12,
                            residuals[1] <= 1e-12))
        else:
            order = float(np.log2(residuals[0] / residuals[1]))
            rows.append(Row("wow", f"a_mu={a_mu}", order, 1.0, order >= 1.0,
                            note=f"res={residuals[0]:.3e}->{residuals[1]:.3e}"))
    return rows


def suite_symbols(cfg):
    rows = []
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for dim in (1, 2, 3):
        nu = tuple([1] + [0] * (dim - 1))
        m = MultiplierSpec(phibar(dim), 0, nu, (0.0,) * dim)
        z = np.zeros(dim)
        z[0] = 1.0
        worst = max(worst, abs(symbol_D(m, z) - (-0.5j)))
    rows.append(Row("symbols", "riesz -i/2", worst, 1e-10, worst <= 1e-10))
    worst = 0.0
    for dim in (1, 2, 3):
        for _ in range(30):
            z = rng.standard_normal(dim)
            worst = max(worst, abs(symbol_T(np.zeros(dim), z) - 0.5 * np.linalg.norm(z)))
    rows.append(Row("symbols", "m_T(A=0)=|z|/2", worst, 1e-8, worst <= 1e-8))
    ok = True
    for dim in (1, 2, 3):
        for _ in range(7):
            A = rng.standard_normal(dim)
            A *= rng.uniform(0, 3) / max(np.linalg.norm(A), 1e-12)
            z = rng.standard_normal(dim)
            mt = symbol_T(A, z)
            eta = float(phibar(dim)((float(A @ A),))) / 2.0
            ok &= (eta * np.linalg.norm(z) - 1e-12 <= mt
                   <= 0.5 * np.linalg.norm(z) + 1e-12)
    rows.append(Row("symbols", "m_T bounds", float(ok), 1.0, ok))
    return rows


def suite_difference(cfg):
    rows = []
    for M in (cfg.grid.points, 2 * cfg.grid.points):
        g = GridSpec(1, 2 * np.pi, M)
        rng = np.random.default_rng(cfg.seed + M)
        a = band_limited_random(g, 3, rng, amplitude=0.7)
        at = band_limited_random(g, 3, rng, amplitude=0.7)
        b = band_limited_random(g, 2, rng)
        beta = band_limited_random(g, 3, rng)
        spec = OperatorSpec(phibar(1), 1, (0,))
        lhs = (apply_B(spec, [a], [b], beta).values
               - apply_B(spec, [at], [b], beta).values)
        dspec = OperatorSpec(make_difference_profile(phibar(1), 0), 3, (0,))
        rhs = apply_B(dspec, [a, at],
                      [ScalarField(g, a.values - at.values),
                       ScalarField(g, a.values + at.values), b], beta).values
        rel = float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-300))
        rows.append(Row("difference", f"M={M}", rel, 1e-10, rel <= 1e-10))
    return rows


def _splits_note(geom):
    dim = geom.grid.dim
    return " ".join(f"{name} (R,K)=({split.radius},{split.order})"
                    for name, split in (("D", geom.split(_d_operator(dim))),
                                        ("D*", geom.split(_d_star_operator(dim))),
                                        ("A", geom.split(_a_operator(dim))),
                                        ("AA", geom.split(_aa_operator(dim)))))


def suite_composed(cfg):
    rows = []
    for M in (cfg.grid.points, 2 * cfg.grid.points):
        geom, rng = _geometry(M, cfg.seed)
        g = geom.grid
        beta = band_limited_random(g, 3, rng)
        b = [band_limited_random(g, 3, rng) for _ in range(g.dim)]
        checks = {
            "D": (apply_D(geom, beta).values, apply_D_composed(geom, beta).values),
            "D*": (apply_D_star(geom, beta).values,
                   apply_D_star_composed(geom, beta).values),
            "A": (apply_A(geom, b)[0].values, apply_A_composed(geom, b)[0].values),
            "AA": (apply_AA(geom, b).values, apply_AA_composed(geom, b).values),
        }
        worst = 0.0
        for direct, composed in checks.values():
            scale = max(np.max(np.abs(composed)), 1e-300)
            worst = max(worst, float(np.max(np.abs(direct - composed)) / scale))
        rows.append(Row("composed", f"M={M}", worst, 1e-10, worst <= 1e-10,
                        note=_splits_note(geom)))
    # a near-flat interface: the velocity operator's small-slope split, all far
    # field (R = 0) at the first order up to 7 within the bound; on these grids
    # the chooser takes the cheaper direct sum
    for M in (64, 128):
        geom, rng = _geometry(M, cfg.seed, amp=1e-3)
        b = [band_limited_random(geom.grid, 3, rng)]
        op = _aa_operator(1)
        split = _first_split(geom.grid, _scales(geom, op), 0, 8)
        composed = apply_AA_composed(geom, b).values
        rel = (np.inf if split is None else
               float(np.max(np.abs(_split_sum(geom, op, [b[0].values], split)[0] - composed))
                     / max(np.max(np.abs(composed)), 1e-300)))
        rows.append(Row("composed", f"AA small-slope M={M}", rel, 1e-10, rel <= 1e-10,
                        note=f"AA (R,K)=(0,{None if split is None else split.order})"))
    # a low 2D bump on the smallest grid where D and AA both take a near field
    # and a far field: the split against the direct sum
    g = GridSpec(2, 2 * np.pi, 24)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.1, [np.pi] * 2, 0.5))
    rng = np.random.default_rng(cfg.seed)
    beta = band_limited_random(g, 3, rng)
    b = [band_limited_random(g, 3, rng) for _ in range(2)]
    worst, near_far = 0.0, True
    for op, bv in ((_d_operator(2), [beta.values]), (_aa_operator(2), [c.values for c in b])):
        split, direct = geom.split(op), _direct_sum(geom, op, bv)
        rel = float(np.max(np.abs(_split_sum(geom, op, bv, split) - direct))
                    / max(np.max(np.abs(direct)), 1e-300))
        worst = max(worst, rel)
        near_far &= 0 < near_offsets(g, split.radius).count < pv_offsets(g).count
    rows.append(Row("composed", "split=direct 2D M=24", worst, 1e-12,
                    near_far and worst <= 1e-12, note=_splits_note(geom)))
    return rows


def suite_rellich(cfg):
    rows = []
    g = GridSpec(1, 2 * np.pi, 64)
    flat = InterfaceGeometry(make_zero(g))
    beta = make_gaussian_bump(g, 1.0, [np.pi], 0.5)
    res = rellich_residual(flat, beta)
    bound = 1e-6 * l2_norm(beta) ** 2
    rows.append(Row("rellich", "flat", res, bound, res <= bound))
    residuals = []
    for M in (64, 128):
        geom, _ = _geometry(M, cfg.seed, amp=0.6)
        b2 = make_gaussian_bump(geom.grid, 1.0, [np.pi], 0.45)
        residuals.append(rellich_residual(geom, b2))
    rows.append(Row("rellich", "refinement", residuals[1], residuals[0],
                    residuals[1] < residuals[0],
                    note=f"res={residuals[0]:.3e}->{residuals[1]:.3e}"))
    return rows


def suite_resolvent(cfg):
    rows = []
    for a_mu in (0.9, -0.9):
        geom, _ = _geometry(128, cfg.seed, amp=0.9)
        beta, report = solve_beta(geom, a_mu, tol=1e-10)
        ok = report.iterations <= 50 and report.residual <= 1e-10
        rows.append(Row("resolvent", f"a_mu={a_mu}", float(report.iterations), 50.0, ok,
                        note=f"residual={report.residual:.2e}"))
    rels = []
    for amp in (0.05, 0.1, 0.2):
        geom, _ = _geometry(64, cfg.seed, amp=amp)
        beta, _ = solve_beta(geom, 0.5, tol=1e-12)
        two = geom.f.values - 2 * 0.5 * apply_D(geom, geom.f).values
        rels.append(l2_norm(ScalarField(geom.grid, beta.values - two)) / l2_norm(geom.f))
    slope = float(np.log2(rels[2] / rels[1]))
    rows.append(Row("resolvent", "neumann quadratic", slope, 2.0,
                    1.7 <= slope <= 2.3, note=f"remainders={rels}"))
    return rows


def suite_jump(cfg):
    g = GridSpec(1, 16.0, 1024)
    geom = InterfaceGeometry(make_gaussian_bump(g, 0.3, [8.0], 1.3))
    beta = make_gaussian_bump(g, 1.0, [8.4], 1.3)
    c = g.points // 2
    samples = [(c + s,) for s in range(-g.points // 16, g.points // 16 + 1,
                                       g.points // 32)]
    rep = jump_check(geom, beta, samples)
    h = g.spacing
    frac = rep.deviation_fraction(4 * h)
    devs = [rep.max_deviation[d] for d in rep.offsets]
    return [
        Row("jump", "dev@4h", frac, 0.10, frac <= 0.10),
        Row("jump", "decreasing in d", float(devs[0] > devs[1] > devs[2]), 1.0,
            devs[0] > devs[1] > devs[2],
            note=f"{[round(v, 5) for v in devs]} at d/h={[round(d / h) for d in rep.offsets]}"),
    ]


SUITES = {
    "adjoint": suite_adjoint,
    "gradient-identity": suite_gradient_identity,
    "chain-rule": suite_chain_rule,
    "wow": suite_wow,
    "symbols": suite_symbols,
    "difference": suite_difference,
    "composed": suite_composed,
    "rellich": suite_rellich,
    "resolvent": suite_resolvent,
    "jump": suite_jump,
}


def run_validate(cfg, selection=None):
    """Run the selected suites; returns (rows, all_passed)."""
    if selection in (None, [], ["all"], "all"):
        names = list(SUITES)
    else:
        names = [selection] if isinstance(selection, str) else list(selection)
    rows = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown validation suite {name!r}; "
                             f"available: {', '.join(SUITES)}")
        rows.extend(SUITES[name](cfg))
    return rows, all(r.passed for r in rows)
