"""Every decision band of freespec, defined once.

A band separates two answers: Member from NotMember, Feasible from
Infeasible, Inside from Outside, a valid input from an error.  The note
above each constant says whether it is absolute or relative, and to what.
The modules import the bands they use from here; a numeric literal
elsewhere in the package is not a band, and a comment on its line says
why.  This module imports nothing, so the independent checker
`certificates` reads the solver's Farkas band without importing the solver.
"""

# -- values: Hermitian matrices, pencils, ranks -------------------------------

# relative: asymmetry of A_k to 1 + ||A_k||_F, a diagonal's imaginary part to 1 + |a_ii|
HERMITIAN_CONSTRUCTION_TOL = 1e-12
# absolute: max|sum_i u_i M_i - I| of a pencil, corrected up to it, rejected above
UNIT_DRIFT_TOL = 1e-8
# absolute: the singular values `np.linalg.matrix_rank` counts (spans, tight sets, pencils, unit rows)
RANK_TOL = 1e-10
# absolute: the least eigenvalue `linalg.inv_sqrt_pd` takes as positive
PD_FLOOR = 1e-14

# -- cones ---------------------------------------------------------------------

# absolute, some uses times max(1, max|rows|): unit-scale geometry below it is degenerate or equal
GEOM_TOL = 1e-9
# relative to max(1, max|G|) or 1 + max|y|, absolute on unit rays: a point on a facet
INCIDENCE_TOL = 1e-8
# relative to max(1, max|G|): a generator on a facet, for support and extremality
SUPPORT_TOL = 1e-7
# absolute, max-abs distance: two unit rows (facet normals, rays) are one
DUPLICATE_TOL = 1e-8
# absolute on scaling factors in [0, 1]: a factor this near 1 is 1, this near the best ties
NU_TIE_TOL = 1e-12

# -- the SDP solver ------------------------------------------------------------

# relative: IPM residuals, gap and PSD tests to their scales, generator-weight bands to max|lambda|
TOL = 1e-8
# relative to the gap b.y: lambda_max(sum_i y_i A_i) of a Farkas certificate
FARKAS_TOL = 1e-7
# relative to max(1, max|b|): the residual of an interior start; absolute: the miss of A*(w) = I
START_TOL = 1e-12
# relative to 1 + max_k ||X_k||_F: the most negative eigenvalue `sdp.verify` accepts
PRIMAL_PSD_TOL = 1e-7

# -- operator systems ----------------------------------------------------------

# absolute, on eigenvalues: the Inside/Boundary/Outside band of membership and inclusion
BOUNDARY_TOL = 1e-8
# relative to max|N|: a separator's least margin, below which it is shifted by this much
SEPARATOR_SHIFT = 1e-8
# relative to max_k (G h)_k: G h with a smaller spread is constant in `opsys._affine_split`
CONSTANT_ROWS_TOL = 1e-12
# relative to the Hadamard bound prod_k |c_k|: |det| of a singular d-subset of generators
SUBSET_SINGULAR_TOL = 1e-12
# absolute, on ||A_k||_F: an essential-boundary component this small is zero
ZERO_COMPONENT_TOL = 1e-12
# relative to 1 + ||A_k||_F: the most negative eigenvalue of a PSD component
COMPONENT_PSD_TOL = 1e-9
# absolute: the least lambda_min(sum_i u_i N_i) of an Effros-Winkler functional
FUNCTIONAL_MARGIN_TOL = 1e-10
# relative to ||N||^2 + ||M||_F, which bounds |lambda2|: the width of the final bracket
LAMBDA2_REL_TOL = 1e-12

# -- containment ---------------------------------------------------------------

# relative to tr J: the Choi eigenvalues kept as Kraus operators
KRAUS_EIG_CUTOFF = 1e-9
# absolute, max|u - e_d| (for the square, of the unit normalised): the unit is e_d
UNIT_AXIS_TOL = 1e-12
# absolute, on eigenvalues: the largest-system band of a pushed square-type witness
WITNESS_TOL = 1e-7
# absolute, on eigenvalues: a partial transpose this negative makes a state entangled
PT_NEGATIVITY_TOL = 1e-12

# -- the independent checker ---------------------------------------------------

# absolute: the largest residual an acceptance test (and `sdp.verify`) accepts
ACCEPT_RESIDUAL = 1e-6
# absolute: phi(A) of a separator must be below minus this
SEPARATOR_PHI_LIMIT = 1e-7
# relative to sum_i |Y_i|_F |N_i|_F: the least Farkas gap that is not cancellation
FARKAS_GAP_LIMIT = 1e-12
