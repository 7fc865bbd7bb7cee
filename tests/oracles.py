"""Independent brute-force oracles used to freeze expected test values.

Each oracle recomputes a quantity by a route disjoint from the library
implementation it checks (enumeration, explicit inverses, quadrature, and
the Gibbs chain for the hierarchical model).
"""


import csv
import io
import warnings

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from rankcred import DomainError, kww, rank_of


def pairwise_rank(values):
    """Rank by direct pairwise counting: r_i = #{j : v_j <= v_i}."""
    values = np.asarray(values, dtype=float)
    return np.array([np.sum(values <= v) for v in values], dtype=float)


def ub_expected_rank(y, d):
    """Exact E[rank_i] (ascending) under independent theta_i ~ N(y_i, d_i):
    1 + sum over j != i of P(theta_j < theta_i) = Phi((y_i - y_j) / sqrt(d_i + d_j))."""
    y, d = np.asarray(y, dtype=float), np.asarray(d, dtype=float)
    return np.array(
        [
            1 + norm.cdf((y[i] - np.delete(y, i)) / np.sqrt(d[i] + np.delete(d, i))).sum()
            for i in range(len(y))
        ]
    )


def ub_rank_marginal(y, d, n_grid=4001):
    """Exact P(rank_i = k) under independent theta_i ~ N(y_i, d_i), as an
    (m, m) array with row k-1 for rank k and column i for entity i.

    Given theta_i = t, the count of j != i with theta_j < t is Poisson-binomial
    with chances Phi((t - y_j)/sqrt(d_j)); its law comes from the one-entity-
    at-a-time recursion, and the trapezoid rule integrates it against the
    density of theta_i on n_grid nodes within 12 standard deviations."""
    y, d = np.asarray(y, dtype=float), np.asarray(d, dtype=float)
    m = len(y)
    z = np.linspace(-12.0, 12.0, n_grid)
    probs = np.empty((m, m))
    for i in range(m):
        t = y[i] + np.sqrt(d[i]) * z
        law = np.zeros((n_grid, m))  # law[:, k]: P(k of the others lie below t)
        law[:, 0] = 1.0
        for j in np.delete(np.arange(m), i):
            p = norm.cdf((t - y[j]) / np.sqrt(d[j]))[:, None]
            law[:, 1:] = law[:, 1:] * (1 - p) + law[:, :-1] * p
            law[:, :1] *= 1 - p
        probs[:, i] = np.trapezoid(norm.pdf(z)[:, None] * law, z, axis=0)
    return probs


def mahalanobis_explicit(theta, center, dispersion):
    """Quadratic form via the explicit matrix inverse."""
    diff = np.asarray(theta, float) - np.asarray(center, float)
    return float(diff @ np.linalg.inv(dispersion) @ diff)


def mahalanobis_solve(thetas, center, dispersion):
    """Squared Mahalanobis distance of every row of `thetas`, each from one
    LU solve against the full dispersion matrix (no Cholesky factor)."""
    diff = np.asarray(thetas, float) - np.asarray(center, float)
    return np.einsum("si,is->s", diff, np.linalg.solve(dispersion, diff.T))


def rank_table_reference(theta):
    """Rank table of one draw by walking the tie groups of a stable sort: a
    group of size g at sorted places j..j+g-1 puts 1/g in its g^2 cells."""
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    table = np.zeros((m, m))
    order = np.argsort(theta, kind="stable")
    sorted_vals = theta[order]
    start = 0
    while start < m:
        stop = start + 1
        while stop < m and sorted_vals[stop] == sorted_vals[start]:
            stop += 1
        g = stop - start
        table[np.ix_(range(start, stop), order[start:stop])] = 1.0 / g
        start = stop
    return table


def tied_rows_reference(theta):
    """Whether each row holds two entries equal under ==, by a loop over pairs."""
    return np.array(
        [any(row[i] == row[j] for i in range(len(row)) for j in range(i)) for row in theta]
    )


def plot_data_reference(ds, dist, alpha):
    """UTF-8 bytes of plot_data.csv with every row through csv.writer: KWW
    ranges, observed ranks and nonzero credible cells entity by entity, then
    gold ranks; numbers in %.12g."""
    ranks = kww.rank_confidence_set(ds, alpha, kww.INDEPENDENCE)
    observed = rank_of(ds.y, tie_rule="highest")
    rows = []
    for i, ident in enumerate(ds.ids):
        rows.append(["kww_range", ident, ranks.rank_lo[i], ranks.rank_hi[i]])
        rows.append(["observed_rank", ident, observed[i], 1])
        for k in range(ds.m):
            if dist.probs[k, i] > 0:
                rows.append(["credible_cell", ident, k + 1, dist.probs[k, i]])
    if ds.has_gold:
        rows += [["gold_rank", ident, g, 1.0] for ident, g in zip(ds.ids, ds.gold_ranks())]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "id", "rank", "value"])
    for row in rows:
        writer.writerow([v if isinstance(v, str) else "%.12g" % v for v in row])
    return out.getvalue().encode("utf-8")


def lambda_sets_reference(intervals):
    """KWW's (|Lambda_L|, |Lambda_R|, |Lambda_O|) by a loop over pairs: j is
    left of i when U_j <= L_i, right when U_i <= L_j, and overlaps i when
    neither or both hold (both: two identical point intervals)."""
    m = len(intervals)
    counts = np.zeros((m, 3), dtype=int)
    for i, (lo_i, hi_i) in enumerate(intervals):
        for j, (lo_j, hi_j) in enumerate(intervals):
            if j == i:
                continue
            left, right = hi_j <= lo_i, hi_i <= lo_j
            counts[i, 2 if left == right else 0 if left else 1] += 1
    return counts


def kappa_grid_scan(theta, alpha, n_grid=4000):
    """Best achievable |K_J - target| over a dense kappa grid."""
    S = theta.shape[0]
    target = round(S * (1 - alpha))
    best = S
    for kappa in np.linspace(1e-6, 1 - 1e-6, n_grid):
        lo = np.quantile(theta, kappa / 2, axis=0)
        hi = np.quantile(theta, 1 - kappa / 2, axis=0)
        k = int(np.all((theta >= lo) & (theta <= hi), axis=1).sum())
        best = min(best, abs(k - target))
    return best


def _joint_inside(theta, kappa):
    lo = np.quantile(theta, kappa / 2, axis=0, method="linear")
    hi = np.quantile(theta, 1 - kappa / 2, axis=0, method="linear")
    return np.all((theta >= lo) & (theta <= hi), axis=1)


def cartesian_select_reference(theta, alpha, tol=None, max_iter=60):
    """The Cartesian selection with a full np.quantile box and S x m compare
    at every bisection step.  Returns (kappa, lower, upper, indices)."""
    S, m = theta.shape
    target = round(S * (1 - alpha))
    if tol is None:
        tol = max(1, S // 10000)

    def tune():
        lo, hi = 0.0, 1.0 - 1e-12
        kappa = 1 - (1 - alpha) ** (1 / m)  # independence initial guess
        best_kappa, best_err = kappa, np.inf
        for _ in range(max_iter):
            k_j = int(np.count_nonzero(_joint_inside(theta, kappa)))
            err = abs(k_j - target)
            if err < best_err:
                best_kappa, best_err = kappa, err
            if err <= tol:
                return kappa
            if k_j > target:
                lo = kappa  # too many inside: widen kappa
            else:
                hi = kappa
            kappa = (lo + hi) / 2
        warnings.warn(
            f"kappa tuning: bisection exhausted after {max_iter} iterations; "
            f"best |K_J - target| = {best_err}",
            RuntimeWarning,
            stacklevel=2,
        )
        return best_kappa

    kappa = tune()
    lo = np.quantile(theta, kappa / 2, axis=0, method="linear")
    hi = np.quantile(theta, 1 - kappa / 2, axis=0, method="linear")
    inside = np.all((theta >= lo) & (theta <= hi), axis=1)
    return kappa, lo, hi, np.flatnonzero(inside)


def box_peel_reference(theta, alpha):
    """The Cartesian box of `credset.tune_kappa`, recounted with plain loops
    over every draw at every symmetric cut and at every peel step.
    Returns (kappa, lower, upper, indices)."""
    rows = np.asarray(theta, dtype=float).tolist()
    S, m = len(rows), len(rows[0])
    target = round(S * (1 - alpha))
    cols = [sorted(r[c] for r in rows) for c in range(m)]

    def inside(lo, hi):
        return [
            s
            for s, r in enumerate(rows)
            if all(cols[c][lo[c]] <= r[c] <= cols[c][hi[c]] for c in range(m))
        ]

    k = max(j for j in range((S - 1) // 2 + 1) if len(inside([j] * m, [S - 1 - j] * m)) >= target)
    lo, hi = [k] * m, [S - 1 - k] * m
    sel = inside(lo, hi)
    sides = [(c, side) for c in range(m) for side in (0, 1)]
    step = 0
    while len(sel) != target:
        c, side = sides[step % len(sides)]
        step += 1
        new_lo, new_hi = list(lo), list(hi)
        if side == 0:
            new_lo[c] += 1
        else:
            new_hi[c] -= 1
        if new_lo[c] > new_hi[c]:
            break
        new_sel = inside(new_lo, new_hi)
        if len(new_sel) < target:
            break
        lo, hi, sel = new_lo, new_hi, new_sel
    kappa = sum(lo[c] + S - 1 - hi[c] for c in range(m)) / m / (S - 1)
    lower = np.array([cols[c][lo[c]] for c in range(m)])
    upper = np.array([cols[c][hi[c]] for c in range(m)])
    return kappa, lower, upper, np.array(sel, dtype=int)


def box_column_reference(theta, alpha):
    """The Cartesian box of `credset.tune_kappa` from whole sorted columns:
    each column's stable argsort, every draw's depth counted by
    np.searchsorted in it, then the round-robin peel over whole columns.
    Returns (kappa, lower, upper, indices)."""
    theta = np.asarray(theta, dtype=float)
    S, m = theta.shape
    target = round(S * (1 - alpha))
    cols, depth = [], np.full(S, S)
    for c in range(m):
        col = theta[:, c][np.argsort(theta[:, c], kind="stable")]
        at_most = np.searchsorted(col, theta[:, c], side="right")
        at_least = S - np.searchsorted(col, theta[:, c], side="left")
        depth = np.minimum(depth, np.minimum(at_most, at_least))
        cols.append(col)
    k = min(int(np.sort(depth)[S - target]) - 1, (S - 1) // 2)
    lo, hi = [k] * m, [S - 1 - k] * m
    inside = depth > k
    step = 0
    while np.count_nonzero(inside) > target:
        c, side = divmod(step % (2 * m), 2)
        step += 1
        if lo[c] == hi[c]:
            break
        if side == 0:
            kept = inside & (theta[:, c] >= cols[c][lo[c] + 1])
        else:
            kept = inside & (theta[:, c] <= cols[c][hi[c] - 1])
        if np.count_nonzero(kept) < target:
            break
        inside = kept
        if side == 0:
            lo[c] += 1
        else:
            hi[c] -= 1
    kappa = sum(lo[c] + S - 1 - hi[c] for c in range(m)) / m / (S - 1)
    lower = np.array([cols[c][lo[c]] for c in range(m)])
    upper = np.array([cols[c][hi[c]] for c in range(m)])
    return kappa, lower, upper, np.flatnonzero(inside)


def variance_target_cdf(a_values, m, sse, dbar):
    """Grid-quadrature CDF of the density ~ (dbar+A)^(-1/2) A^(-m/2) e^(-sse/2A).

    Integrates in u = log A on a fine grid and evaluates the normalized CDF
    at each requested point.
    """
    u = np.linspace(np.log(sse) - 18, np.log(sse) + 18, 200001)
    a = np.exp(u)
    log_dens = -0.5 * np.log(dbar + a) - (m / 2) * u - sse / (2 * a) + u  # + u: Jacobian
    log_dens -= log_dens.max()
    dens = np.exp(log_dens)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(u))])
    cdf /= cdf[-1]
    return np.interp(np.log(np.asarray(a_values)), u, cdf)


def _intercept_only_log_marginal(u, y, d):
    """Log of the intercept-only HB marginal of A, in u = log A, with the
    per-node weights w_i = 1/(A+d_i), W = sum w_i and GLS mean ybar_w."""
    a = np.exp(u)[:, None]  # (G, 1)
    w = 1.0 / (a + d[None, :])  # (G, m)
    W = w.sum(axis=1, keepdims=True)
    ybar = (w * y).sum(axis=1, keepdims=True) / W
    Q = (w * (y - ybar) ** 2).sum(axis=1, keepdims=True)
    log_dens = (
        -0.5 * np.log(d.mean() + a)
        + 0.5 * np.log(w).sum(axis=1, keepdims=True)
        - 0.5 * np.log(W)
        - Q / 2
        + np.log(a)  # Jacobian of u = log A
    )
    return a, W, ybar, log_dens


def hb_variance_marginal_cdf(a_values, y, d):
    """Intercept-only HB marginal CDF of A by trapezoid quadrature in log A.

    Same density as `hb_quadrature_posterior`, on 40 log units beyond the
    range of d on each side, evaluated at each requested A.
    """
    y = np.asarray(y, float)
    d = np.asarray(d, float)
    u = np.linspace(np.log(d.min()) - 40, np.log(d.max()) + 40, 400001)
    log_dens = _intercept_only_log_marginal(u, y, d)[3][:, 0]
    dens = np.exp(log_dens - log_dens.max())
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(u))])
    return np.interp(np.log(np.asarray(a_values)), u, cdf / cdf[-1])


def hb_quadrature_posterior(y, d, n_grid=400001):
    """Intercept-only HB posterior moments of theta by 1-D quadrature over A.

    beta and theta are integrated analytically given A; the A marginal
    ~ (dbar+A)^(-1/2) * prod(w_i)^(1/2) * W^(-1/2) * exp(-Q/2) with
    w_i = 1/(A+d_i), W = sum w_i, Q = sum w_i (y_i - ybar_w)^2.
    Returns (means, variances) of the theta coordinates.
    """
    y = np.asarray(y, float)
    d = np.asarray(d, float)
    u = np.linspace(np.log(d.min()) - 16, np.log(d.max()) + 16, n_grid)
    a, W, ybar, log_dens = _intercept_only_log_marginal(u, y, d)
    log_dens -= log_dens.max()
    dens = np.exp(log_dens)
    du = u[1] - u[0]
    norm = np.trapezoid(dens[:, 0], dx=du)

    mean_a = (a * y + d[None, :] * ybar) / (a + d[None, :])  # E[theta|A,y]
    var_a = a * d[None, :] / (a + d[None, :]) + (d[None, :] / (a + d[None, :])) ** 2 / W

    means = np.trapezoid(dens * mean_a, dx=du, axis=0) / norm
    second = np.trapezoid(dens * (var_a + mean_a**2), dx=du, axis=0) / norm
    return means, second - means**2


def box_rank_ranges(intervals, n_grid=9):
    """Enumerate rank vectors of theta on a grid in the box of intervals,
    returning the min/max observed rank per coordinate.  m <= 4 only."""
    intervals = np.asarray(intervals, float)
    m = len(intervals)
    assert m <= 4
    axes = [np.linspace(lo, hi, n_grid) for lo, hi in intervals]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    # rank with 1 + count of strictly smaller coordinates (min attainable)
    # and m - count of strictly larger (max attainable)
    smaller = (pts[:, None, :] < pts[:, :, None]).sum(axis=2)
    larger = (pts[:, None, :] > pts[:, :, None]).sum(axis=2)
    lo = (1 + smaller).min(axis=0)
    hi = (m - larger).max(axis=0)
    return lo, hi


def sidak_critical_value(alpha, m):
    """Normal critical value z whose m independent two-sided intervals cover
    jointly with probability 1-alpha: the root of (1 - 2 Phi_bar(z))^m = 1-alpha.

    Found by bracketing root-find on the normal survival function, so it
    shares nothing with a closed-form gamma or an inverse-CDF call.
    """
    return brentq(lambda z: (1 - 2 * norm.sf(z)) ** m - (1 - alpha), 0.0, 40.0, xtol=1e-14)


def range_deviation_total(rank_lo, rank_hi, xi):
    """Sum over entities of the mean |j - xi_i| for j uniform on
    rank_lo[i]..rank_hi[i], by plain loops over the integer ranks."""
    total = 0.0
    for lo, hi, x in zip(rank_lo, rank_hi, xi):
        ranks = range(int(lo), int(hi) + 1)
        total += sum(abs(j - float(x)) for j in ranks) / len(ranks)
    return total


def cond_theta(y, d, xb, a, rng):
    """One draw of theta | beta, A: shrink each y_i toward its regression fit.

    theta_i ~ Normal((A y_i + d_i xb_i)/(A + d_i), A d_i/(A + d_i)).
    """
    if a <= 0:
        raise DomainError(f"model variance a={a} must be > 0")
    mean = (a * y + d * xb) / (a + d)
    var = a * d / (a + d)
    return mean + np.sqrt(var) * rng.standard_normal(len(y))


def cond_beta(xtx_inv_chol, xtx_inv_xt, theta, a, rng):
    """One draw of beta | theta, A ~ Normal((X'X)^-1 X' theta, A (X'X)^-1).

    Takes the precomputed Cholesky factor of (X'X)^-1 and the projector
    (X'X)^-1 X' so the per-sweep cost is two small matmuls.
    """
    if a <= 0:
        raise DomainError(f"model variance a={a} must be > 0")
    mean = xtx_inv_xt @ theta
    q = len(mean)
    return mean + np.sqrt(a) * (xtx_inv_chol @ rng.standard_normal(q))


def gls_reference(a, X, y, d):
    """Generalized least squares of y on X for each model variance in `a` (n,)
    by batched linear algebra over the n q x q information matrices
    X'V^-1 X, V = diag(A + d): the weights w = 1/(A + d) (n, m), the
    information matrices (n, q, q) and one solve for the GLS fits (n, q)."""
    w = 1.0 / (a[:, None] + d)
    wx = w[:, :, None] * X
    info = X.T @ wx
    beta_hat = np.linalg.solve(info, (y @ wx)[..., None])[..., 0]
    return w, info, beta_hat


def a_log_density_reference(u, X, y, d):
    """Log of the HB marginal density of u = log A (beta integrated out under
    its flat prior) at each node of `u`, up to a constant, from
    `gls_reference` and a batched slogdet of the information matrices."""
    a = np.exp(u)
    w, info, beta_hat = gls_reference(a, X, y, d)
    resid = y - beta_hat @ X.T
    return (
        -0.5 * np.log(d.mean() + a)
        + 0.5 * np.log(w).sum(axis=1)
        - 0.5 * np.linalg.slogdet(info)[1]
        - 0.5 * (w * resid**2).sum(axis=1)
        + u
    )


def draw_beta_reference(X, y, d, a, rng):
    """beta | A, y ~ Normal(GLS fit, (X'V^-1 X)^-1) for each A in `a` (S,), by
    batched linear algebra: the GLS fits of `gls_reference`, then the
    Cholesky factor of each inverse information scales a standard normal
    vector."""
    _, info, beta_hat = gls_reference(a, X, y, d)
    chol = np.linalg.cholesky(np.linalg.inv(info))
    return beta_hat + (chol @ rng.standard_normal(beta_hat.shape)[..., None])[..., 0]


def cond_a_rejection(theta, xb, dbar, rng, max_tries=100_000_000):
    """Rejection draw of the model variance A.

    Target density is proportional to (dbar+A)^(-1/2) A^(-m/2) exp(-SSE/(2A))
    with SSE the residual sum of squares of theta on the regression fit.
    Proposal: A ~ InverseGamma(m/2 - 1, SSE/2); accept w.p. sqrt(dbar/(dbar+A)).

    Proposals are drawn in growing batches: at small m the proposal is
    heavy-tailed, and when SSE wanders far above dbar the acceptance rate
    drops like sqrt(dbar/SSE), so single-draw looping would be too slow.
    """
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    shape = m / 2.0 - 1.0
    if shape <= 0:
        raise DomainError(f"m={m} too small for a proper inverse-gamma proposal (need m >= 3)")
    if dbar <= 0:
        raise DomainError(f"dbar={dbar} must be > 0")
    sse = float(np.sum((theta - xb) ** 2))
    if sse == 0.0:
        raise DomainError("zero residual sum of squares: degenerate input to variance draw")
    scale = sse / 2.0
    batch, tried = 4, 0
    while tried < max_tries:
        n = min(batch, max_tries - tried)
        a = scale / rng.gamma(shape, size=n)
        hit = np.flatnonzero(rng.random(n) <= np.sqrt(dbar / (dbar + a)))
        if hit.size:
            return float(a[hit[0]])
        tried += n
        batch = min(batch * 4, 1 << 20)
    raise DomainError("rejection sampler failed to accept; input may be degenerate")


def gibbs_hb_reference(y, d, X, samples, burn_in, seed):
    """The paper's Gibbs chain for (theta, beta, A) under the hierarchical model.

    Sweeps theta | beta, A -> beta | theta, A -> A | theta, beta from the
    least-squares fit with A = mean(d), discards `burn_in` sweeps and keeps
    the next `samples`.  Returns the (theta, beta, A) draws.
    """
    y = np.asarray(y, float)
    d = np.asarray(d, float)
    X = np.asarray(X, float)
    xtx_inv = np.linalg.inv(X.T @ X)
    xtx_inv_chol = np.linalg.cholesky(xtx_inv)
    xtx_inv_xt = xtx_inv @ X.T
    dbar = float(d.mean())
    rng = np.random.default_rng(seed)

    a = dbar
    beta = xtx_inv_xt @ y
    theta_out = np.empty((samples, len(y)))
    beta_out = np.empty((samples, X.shape[1]))
    a_out = np.empty(samples)
    for sweep in range(burn_in + samples):
        theta = cond_theta(y, d, X @ beta, a, rng)
        beta = cond_beta(xtx_inv_chol, xtx_inv_xt, theta, a, rng)
        a = cond_a_rejection(theta, X @ beta, dbar, rng)
        if sweep >= burn_in:
            k = sweep - burn_in
            theta_out[k], beta_out[k], a_out[k] = theta, beta, a
    return theta_out, beta_out, a_out
