"""Mutation suite: every listed mutant must make its killing test fail.

    python tests/mutants.py

Each mutant names a module of ``src/ciqc``, a text that occurs in it exactly
once, the text that replaces it, the test node that must kill it and one
line of reason.  The script copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` into a temporary directory, never writing the
repository, and first runs every killer there unmutated: they must pass.
Then, one mutant at a time, it edits the copy, runs the killer with pytest
and restores the module.  A mutant is killed when pytest reports a failed
test (exit code 1).  The survivors are printed as JSON; the exit code is 1
if any survive or a killer fails unmutated, 0 otherwise.
``tests/test_mutants.py`` checks that each old text occurs exactly once.
pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    module: str     # under src/ciqc, without .py
    old: str        # occurs exactly once in the module
    new: str
    killer: str     # a pytest node id, relative to the repository root
    reason: str


MUTANTS = [
    Mutant("two_point_sign", "smallqh",
           "(-1) ** k * self.desc.degree", "self.desc.degree",
           "tests/test_genus_one.py::test_two_point_grid_induction_vs_closed_form",
           "<psi^k H_i, H_j> carries (-1)^k; without it every odd K is wrong"),
    Mutant("two_point_z_power", "smallqh",
           "self.smat[i].entry(-k - 1, self.desc.n - j)",
           "self.smat[i].entry(-k, self.desc.n - j)",
           "tests/test_genus_one.py::test_two_point_grid_induction_vs_closed_form",
           "psi^k sits at z^{-k-1} of the flat section, not z^{-k}"),
    Mutant("sylvester_q_block_short", "reconstruct",
           "for j in range(m)]", "for j in range(m - 1)]",
           "tests/test_reconstruct.py::test_poly_gcd_degree_hand_case",
           "the Sylvester map needs deg v < deg p, all deg p columns of q"),
    Mutant("dimension_limit_off_by_one", "geometry",
           "DIMENSION_LIMIT = 1300", "DIMENSION_LIMIT = 1301",
           "tests/test_cli.py::test_dimension_above_the_bound_is_domain_error",
           "the dimension bound is pinned at 1300"),
    Mutant("ginv_q_power_zero", "smallqh",
           "x.coefficient((n - e - f) // a)", "x.coefficient(0)",
           "tests/test_smallqh.py::test_origin_partials_match_pinned_digest",
           "g^{ef} sits at q^{(n-e-f)/a}; q^0 drops the -bq/deg entries"),
    Mutant("contract0_row_one", "smallqh",
           "_nonzero(self.ring.ginv[0])", "_nonzero(self.ring.ginv[1])",
           "tests/test_smallqh.py::test_f0_fourth_contracted_matches_c_formula",
           "contracting with the unit reads g^{e0}, row 0 of ginv"),
    Mutant("multidegree_limit_off_by_one", "geometry",
           "MULTIDEGREE_SUM_LIMIT = 1370", "MULTIDEGREE_SUM_LIMIT = 1371",
           "tests/test_cli.py::test_multidegree_above_the_bound_is_domain_error",
           "b = 1371^1371 has 4301 digits and cannot print"),
    Mutant("solve_skip_back_elimination", "exact",
           "_eliminate(other, p, row)", "None",
           "tests/test_exact.py::test_solve_matches_the_dense_oracle_on_seeded_systems",
           "a new pivot must leave the earlier pivot rows, or the form is not reduced"),
    Mutant("solve_pivot_largest_column", "exact",
           "p = min(unknowns)", "p = max(unknowns)",
           "tests/test_exact.py::test_solve_matches_the_dense_oracle_on_seeded_systems",
           "the reduced echelon form pivots on each row's smallest column"),
    Mutant("solve_self_check_dropped", "exact",
           "sum(v * x[j] for j, v in row.items())", "0",
           "tests/test_exact.py::test_corrupted_elimination_fails_the_self_check",
           "the self-check substitutes both results back into every row"),
    Mutant("solve_kernel_last_nonzero", "exact",
           "first = next(v for v in vec if v)", "first = next(v for v in reversed(vec) if v)",
           "tests/test_exact.py::test_solve_matches_the_dense_oracle_on_seeded_systems",
           "kernel vectors are normalized by their first nonzero entry"),
    Mutant("fano_lines_limit_off_by_one", "cli",
           "FANO_LINES_N_LIMIT = 100", "FANO_LINES_N_LIMIT = 101",
           "tests/test_cli.py::test_fano_lines_above_the_bound_is_domain_error",
           "the fano-lines dimension bound is pinned at 100"),
    Mutant("closed_form_third_seed", "genus_one",
           "(2, s1)) if", "(2, s2)) if",
           "tests/test_genus_one.py::test_two_point_grid_induction_vs_closed_form",
           "the third closed-form term carries the <H_n, H_{n-2}> seed, as the first"),
    Mutant("shared_ring_never_kept", "acceptance",
           "if readers > 1)", "if readers > 9)",
           "tests/test_acceptance.py::test_run_all_ring_and_origin_counts",
           "a ring read by more than one criterion is built once"),
    # mutants the change log records as killed by hand, now run by this suite
    Mutant("substitute_s_to_zero", "exact",
           "images + [series.like({monomial(nt, s=1): ONE})]", "images + [series.like()]",
           "tests/test_reconstruct.py::test_tau_to_t_substitution_round_trip",
           "linear_substitute leaves s untouched; sending it to 0 drops s F^(1)"),
    Mutant("product_den_squared", "exact",
           "left.den * right.den, _base(self)", "left.den ** 2, _base(self)",
           "tests/test_exact.py::test_products_equal_the_pairwise_reference",
           "a product of two series sits over the product of their denominators"),
    Mutant("reduced_s_shift_dropped", "reduction",
           "rows[(a, b, s), 1]", "rows[(a, b, s), 0]",
           "tests/test_reduction.py::test_reduced_matches_one_contraction_per_key",
           "the term 2 s F_{sab} F_ss reads F_{sab} shifted by one power of s"),
    Mutant("fraction_printed_as_float", "cli",
           "return rat_str(value)", "return float(value)",
           "tests/test_cli.py::test_jsonable_encoding_rules",
           "every exact rational prints as a \"p/q\" string"),
    # the origin quantities built once: descendants off S_0, F^(1)'s Hessian,
    # the F^(2) gradient; and the lines-variety Betti table
    Mutant("one_point_z_power", "smallqh",
           "self.smat[0].entry(-k - 2, self.desc.n - i)",
           "self.smat[0].entry(-k - 1, self.desc.n - i)",
           "tests/test_smallqh.py::test_one_point_descendant_cubics",
           "S_0 = J/z, so <psi^k H_i> sits at z^{-k-2} of S_0, not z^{-k-1}"),
    Mutant("hessian_upper_triangle_only", "reconstruct",
           "hessian[i][j] = hessian[j][i] = val", "hessian[i][j] = val",
           "tests/test_reconstruct.py::test_f2_origin_residuals_each_root",
           "the F^(2) gradient contracts full Hessian rows, below the diagonal too"),
    Mutant("f2_slope_n_over_a", "reconstruct",
           "Fraction(n - 1, desc.a)", "Fraction(n, desc.a)",
           "tests/test_reconstruct.py::test_f2_gradient_cubic_jets",
           "the divisor equation gives F2_1 = (n - 1)/a F2, the degree of F^(2)(0)"),
    Mutant("betti_sym2_lambda2_swapped", "fano_lines",
           "m * (m + 1) // 2 if n % 2 == 0 else m * (m - 1) // 2",
           "m * (m - 1) // 2 if n % 2 == 0 else m * (m + 1) // 2",
           "tests/test_fano_lines.py::test_betti_table_matches_galkin_shinder",
           "even primitive classes multiply into Sym^2, odd ones into Lambda^2"),
    Mutant("lines_class_wrong_middle_term", "fano_lines",
           "schubert_product(s1_2, s2).scale(-4)", "schubert_product(s1_2, s2).scale(-3)",
           "tests/test_fano_lines.py::test_omega_quartic_values",
           "[F] is 9(3 s1^4 - 4 s1^2 s2 + s2^2); the quartics 80/528/1680 need the -4"),
    # the exact arithmetic of verify: integer flat sections, the graded
    # support and QPoly's scalar comparison
    Mutant("flat_section_binomial_power", "smallqh",
           "comb(k + delta, k) ** expo", "comb(k + delta, k) ** (expo - 1)",
           "tests/test_smallqh.py::test_integer_flat_sections_equal_the_fraction_recursion",
           "D_{k+delta} / (D_k D_delta) is C(k+delta, k)^{2n+r+1}, the denominators' power"),
    Mutant("graded_powers_skip_diagonal", "smallqh",
           "for i in range(j % a, j + 1, a)))", "for i in range(j % a, j, a)))",
           "tests/test_smallqh.py::test_integer_flat_sections_equal_the_fraction_recursion",
           "the graded support of H^j reaches H_j itself, its leading coefficient 1"),
    Mutant("scalar_eq_ignores_q_degree", "exact",
           "self.coeffs == {0: other}", "list(self.coeffs.values()) == [other]",
           "tests/test_exact.py::test_qpoly_results_store_no_zero_and_compare_with_scalars",
           "a scalar equals only a constant QPoly, not c q^k for k > 0"),
    # criterion 9's Fujiki relations on the lines of the cubic fourfold, and
    # the bilinear form of the reduced equations
    Mutant("fujiki_wrong_q_of_h", "fano_lines",
           "_Q_H = 6", "_Q_H = 7",
           "tests/test_fano_lines.py::test_hilb2_scalar_is_one",
           "the Pluecker class has Beauville-Bogomolov square q(h) = 6"),
    Mutant("fujiki_wrong_constant", "fano_lines",
           "_FUJIKI = 3", "_FUJIKI = 4",
           "tests/test_fano_lines.py::test_hilb2_scalar_is_one",
           "on K3^[2] type int x^4 = 3 q(x)^2; another constant moves c off 1"),
    Mutant("bilinear_fss_from_left", "reduction",
           "right.rows[(s, s), 0]", "left.rows[(s, s), 0]",
           "tests/test_reduction.py::test_reduced_is_a_bilinear_form",
           "B(X, Y) reads F_ss from Y; from X the term 2 s F_sab F_ss is quadratic in X"),
    Mutant("bilinear_den_squared", "reduction",
           "left.den * right.den", "left.den ** 2",
           "tests/test_reduction.py::test_reduced_is_a_bilinear_form",
           "B(X, Y) sits over X.den Y.den g_den, not X.den^2 g_den"),
    # the printed Fujiki values and the origin factors of F^(0)'s partials
    Mutant("hilb2_wrong_q_of_delta", "fano_lines",
           "_Q_DELTA = -2", "_Q_DELTA = -1",
           "tests/test_fano_lines.py::test_hilb2_examples",
           "the exceptional class of S^[2] has q(delta) = -2; the examples 12, -12 need it"),
    Mutant("origin_divisor_beta_dropped", "smallqh",
           "val = beta * self._f(rest)", "val = self._f(rest)",
           "tests/test_reconstruct.py::test_f1_jet_matches_printed_form",
           "the divisor equation multiplies F_rest by its q-degree beta"),
    Mutant("origin_three_point_b_power", "smallqh",
           "Fraction(self.desc.b) ** (qdeg // self.desc.a)", "Fraction(self.desc.b)",
           "tests/test_reconstruct.py::test_f1_jet_matches_printed_form",
           "a three-point F_key(0) at q^k carries b^k, not b"),
    # each ring quantity held once: integer jets over their layer's
    # denominator, the F^(2) t-gradient by the base change, the residual bound
    Mutant("graded_jet_den_of_q0", "smallqh",
           "self.dens[delta]", "self.dens[0]",
           "tests/test_smallqh.py::test_entries_past_q1_equal_the_reference",
           "the q^delta numerators sit over D_delta; D_0 = D_1 = 1 hides the slip below q^2"),
    Mutant("t_gradient_drops_base_change", "reconstruct",
           "c * g", "g",
           "tests/test_reconstruct.py::test_f2_gradient_cubic_jets",
           "d/dt^j sums c_ij d/dtau^i; dropping c_ij moves X_4(3)'s t_grad[4]"),
    Mutant("residual_limit_off_by_one", "cli",
           "RESIDUAL_N_LIMIT = 30", "RESIDUAL_N_LIMIT = 31",
           "tests/test_cli.py::test_residual_above_the_bound_is_domain_error",
           "the residual dimension bound is pinned at 30"),
]


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "ciqc" / f"{module}.py"


def _pytest(copy: Path, *nodes: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "tests"]),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        if _pytest(copy, *sorted({m.killer for m in MUTANTS})) != 0:
            sys.stderr.write("a killing test fails on the unmutated code\n")
            return 1
        survivors = []
        for mutant in MUTANTS:
            path = module_path(copy, mutant.module)
            text = path.read_text()
            if text.count(mutant.old) != 1:
                sys.stderr.write(f"{mutant.name}: old text does not occur once\n")
                return 1
            path.write_text(text.replace(mutant.old, mutant.new))
            killed = _pytest(copy, mutant.killer) == 1
            path.write_text(text)
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}",
                  file=sys.stderr)
            if not killed:
                survivors.append(mutant._asdict())
    print(json.dumps(survivors, indent=2))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
