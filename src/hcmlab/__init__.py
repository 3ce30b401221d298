"""Numerical laboratory for the HCM / complete-monotonicity structure of
the drifted half-Cauchy family f(x) = 1 / (x^2t + 2 cos(pi alpha) x^t + 1).

The package provides the closed-form densities and Mellin transforms tied
to positive stable laws, two independent numerical Laplace-inversion
routes, CM/HCM predicates with certified-counterexample semantics, the
Pick/GGC half-plane criterion, Monte Carlo verification of the stable-law
factorizations, and a CLI front end (``hcmlab``) with JSON/CSV output.
"""

from .specfun import FamilyParams, bessel_k, f_family, p_alpha, pole_locations
from .densities import (cdf_T_alpha, density_T_alpha, density_sqrt_Z_one_third,
                        density_sqrt_gamma_product, mellin_T_alpha)
from .quadrature import ConvergenceError, QuadratureSpec, tanh_sinh
from .laplace import (InversionResult, branch_cut_invert, branch_cut_kernel,
                      bromwich_invert, closed_form_inverse_t1, invert_grid,
                      kernel_total_integral)
from .monotone import (ScanGrid, Verdict, cm_check_by_differences, cm_check_by_inversion,
                       estimate_critical_t, hcm_check, hcm_check_family, hcm_product_rewrite)
from .pick import (HalfPlaneScan, figure2_data, ggc_pick_scan, h_negative_axis,
                   h_value, stieltjes_probe, write_figure2_csv)
from .montecarlo import (KsReport, SampleSet, ks_statistic, ks_statistic_two_sample,
                         ks_threshold, sample_T_alpha, sample_gamma,
                         sample_positive_stable, verify_T_density,
                         verify_bessel_product_formula, verify_factorization_zinv,
                         verify_half_stable_gamma_identity, verify_kanter_cm,
                         verify_sqrt_gamma_product_density, verify_stable_laplace)

__version__ = "0.1.0"
