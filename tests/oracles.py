"""Independent numerical oracles used by the tests.

Nothing here imports estimation code from the package; the point is that
these values are produced by a different algorithm (IRLS, complex-step
differentiation, a row-by-row CSV reader) written against the raw data, so
agreement is evidence and not circularity.
"""

import csv

import numpy as np

from semest.errors import DataError

# (age, scar, cases, controls) -- typed independently from the published
# frequency table that ships with the package.
CASECONTROL_TABLE = (
    (2.5, 0, 1, 24),
    (2.5, 1, 1, 31),
    (7.5, 0, 11, 22),
    (7.5, 1, 14, 39),
    (12.5, 0, 28, 23),
    (12.5, 1, 22, 27),
    (17.5, 0, 16, 5),
    (17.5, 1, 28, 22),
    (22.5, 0, 20, 9),
    (22.5, 1, 19, 12),
    (27.5, 0, 36, 17),
    (27.5, 1, 11, 5),
    (32.5, 0, 47, 21),
    (32.5, 1, 6, 3),
)


def design_and_counts():
    """Row-per-cell design matrix (1, scar, 100/(age+7.5)^2) with case and
    control counts."""
    Z, cases, controls = [], [], []
    for age, scar, ca, co in CASECONTROL_TABLE:
        Z.append([1.0, float(scar), 100.0 / (age + 7.5) ** 2])
        cases.append(ca)
        controls.append(co)
    return np.array(Z), np.array(cases, float), np.array(controls, float)


def irls_logistic(Z, y, counts, offset=0.0, tol=1e-12, max_iter=100):
    """Weighted logistic regression by iteratively reweighted least
    squares.  Returns (beta, cov) with cov = (Z' W Z)^{-1}."""
    beta = np.zeros(Z.shape[1])
    for _ in range(max_iter):
        eta = Z @ beta + offset
        mu = 1.0 / (1.0 + np.exp(-eta))
        W = counts * mu * (1.0 - mu)
        grad = Z.T @ (counts * (y - mu))
        H = (Z * W[:, None]).T @ Z
        step = np.linalg.solve(H, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    eta = Z @ beta + offset
    mu = 1.0 / (1.0 + np.exp(-eta))
    W = counts * mu * (1.0 - mu)
    cov = np.linalg.inv((Z * W[:, None]).T @ Z)
    return beta, cov


def prospective_fit():
    """IRLS fit of case status on (scar, transformed age) over the grouped
    table: coefficients (intercept, scar, age) and their covariance."""
    Z, cases, controls = design_and_counts()
    ZZ = np.vstack([Z, Z])
    y = np.concatenate([np.ones(len(Z)), np.zeros(len(Z))])
    counts = np.concatenate([cases, controls])
    return irls_logistic(ZZ, y, counts)


def prospective_loglik(beta):
    """Grouped binomial log-likelihood sum_cells [ca log mu + co log(1-mu)]."""
    Z, cases, controls = design_and_counts()
    eta = Z @ beta
    logmu = -np.log1p(np.exp(-eta))
    log1mmu = -np.log1p(np.exp(eta))
    return float(cases @ logmu + controls @ log1mmu)


def complex_step_gradient(f, x, h=1e-30):
    """Machine-precision first derivatives of an analytic real function via
    complex-step differentiation."""
    x = np.asarray(x, dtype=complex)
    g = np.empty(len(x))
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += 1j * h
        g[i] = f(xp).imag / h
    return g


# ---------------------------------------------------------------------------
# Plain per-row loop references for the package's array passes.  Each takes
# the raw columns (covariates X, 1-based sample index, multiplicity) and
# returns (total log-likelihood, per-row scores, total Hessian), summing one
# row at a time in row order.
# ---------------------------------------------------------------------------


def _sigmoid(t):
    if t >= 0:
        return 1.0 / (1.0 + np.exp(-t))
    e = np.exp(t)
    return e / (1.0 + e)


def casecontrol_logistic_rows(X, sample, mult, w, params, duplicated_intercept=False):
    """Case-control logistic model in (alpha*, beta), or in (alpha, beta,
    log rho1) with ``duplicated_intercept``: log-density
    y u - log(w0 + w1 e^u), u = z' params, y = sample - 1."""
    d = len(params)
    loglik, scores, hess = 0.0, [], np.zeros((d, d))
    for x, s, m in zip(X, sample, mult):
        z = np.concatenate([[1.0], x, [1.0]] if duplicated_intercept else [[1.0], x])
        y = s - 1
        u = float(z @ params)
        loglik += m * (y * u - np.logaddexp(np.log(w[0]), np.log(w[1]) + u))
        mu = _sigmoid(u + np.log(w[1] / w[0]))
        scores.append((y - mu) * z)
        hess += m * (-mu * (1.0 - mu)) * np.outer(z, z)
    return loglik, np.array(scores), hess


def full_mle_rows(support, X, sample, mult, params):
    """Joint MLE over the slopes beta (the intercept, not identified, pinned
    at 0) and softmax coordinates phi of a discrete covariate distribution g
    on ``support`` (phi_K = 0): log-density
    log f(y|v_k) + log g_k - log sum_j f(y|v_j) g_j."""
    support = np.asarray(support, dtype=float)
    K = len(support)
    Zs = support
    nt = Zs.shape[1]
    t = params[:nt]
    phi = np.append(params[nt:], 0.0)
    g = np.exp(phi - phi.max())
    g = g / g.sum()
    d = len(params)
    loglik, scores, hess = 0.0, [], np.zeros((d, d))
    for x, s, m in zip(X, sample, mult):
        k = next(j for j in range(K) if np.array_equal(support[j], x))
        y = s - 1
        eta = Zs @ t
        mu = np.array([_sigmoid(e) for e in eta])
        f = mu if y == 1 else 1.0 - mu
        D = float(f @ g)
        loglik += m * (y * eta[k] - np.logaddexp(0.0, eta[k]) + np.log(g[k]) - np.log(D))
        a = g * f / D
        b = y - mu
        c = mu * (1.0 - mu)
        mvec = (a * b) @ Zs
        grad_phi = -a[:-1].copy()
        if k < K - 1:
            grad_phi[k] += 1.0
        scores.append(np.concatenate([b[k] * Zs[k] - mvec, grad_phi]))
        h = np.zeros((d, d))
        h[:nt, :nt] = -c[k] * np.outer(Zs[k], Zs[k]) + np.outer(mvec, mvec)
        for j in range(K):
            h[:nt, :nt] -= a[j] * (b[j] ** 2 - c[j]) * np.outer(Zs[j], Zs[j])
        for j in range(K - 1):
            h[:nt, nt + j] = h[nt + j, :nt] = a[j] * (mvec - b[j] * Zs[j])
        h[nt:, nt:] = np.outer(a[:-1], a[:-1]) - np.diag(a[:-1])
        hess += m * h
    return loglik, np.array(scores), hess


def casecontrol_reparam_rows(X, sample, mult, w, params):
    """Generic reparametrized case-control model in (alpha, beta, log q1)
    with q2 = 1, estimation mode: log-density
    log f(y|x) - log(w1 Q1/q1 + w2 Q2) - log q_s with Q1 = 1 - mu, Q2 = mu."""
    theta = np.asarray(params[:-1])
    q = np.array([np.exp(params[-1]), 1.0])
    d = len(params)
    loglik, scores, hess = 0.0, [], np.zeros((d, d))
    for x, s, m in zip(X, sample, mult):
        z = np.concatenate([[1.0], x])
        y = s - 1
        eta = float(z @ theta)
        mu = _sigmoid(eta)
        c = mu * (1.0 - mu)
        Q = np.array([1.0 - mu, mu])
        dQ = np.array([-c * z, c * z])
        d2mu = c * (1.0 - 2.0 * mu) * np.outer(z, z)
        denom = w[0] * Q[0] / q[0] + w[1] * Q[1] / q[1]
        ddenom = w[0] / q[0] * dQ[0] + w[1] / q[1] * dQ[1]
        d2denom = (w[1] / q[1] - w[0] / q[0]) * d2mu
        loglik += m * (y * eta - np.logaddexp(0.0, eta) - np.log(denom) - np.log(q[s - 1]))
        score_u = (w[0] * Q[0] / q[0] ** 2) / denom - (1.0 / q[0] if s == 1 else 0.0)
        scores.append(np.concatenate([(y - mu) * z - ddenom / denom, [q[0] * score_u]]))
        r = ddenom / denom
        h = np.zeros((d, d))
        h[:-1, :-1] = -c * np.outer(z, z) - d2denom / denom + np.outer(r, r)
        B = (w[0] * Q[0] / q[0]) / denom
        h[-1, -1] = B * B - B
        h[:-1, -1] = h[-1, :-1] = q[0] * (w[0] / q[0] ** 2) * (
            dQ[0] / denom - Q[0] * ddenom / denom**2
        )
        hess += m * h
    return loglik, np.array(scores), hess


def support_reference(X):
    """Distinct rows of X compared bit-exactly, sorted lexicographically
    (stable, so bit-distinct equal rows keep their first-appearance order),
    with each row's index into that list and the pooled row frequencies
    for multiplicity-1 rows."""
    keys = {}
    for x in X:
        keys.setdefault(x.tobytes(), x)
    support = sorted(keys.values(), key=lambda v: tuple(v))
    where = {v.tobytes(): k for k, v in enumerate(support)}
    idx = np.array([where[x.tobytes()] for x in X], dtype=int)
    freq = np.zeros(len(support))
    for k in idx:
        freq[k] += 1 / len(X)
    return np.array(support), idx, freq


class Rejected(Exception):
    """An input the reference CSV loaders refuse; the message is the one the
    package's loaders give for it."""


def _reference_rows(path):
    """Header and non-blank (line, fields) rows, read with the csv module; a
    row's line is the file line where its record starts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise Rejected("no observations: empty file")
        rows, start = [], reader.line_num + 1  # the line where a record starts
        for row in reader:
            if any(map(str.strip, row)):
                rows.append((start, row))
            start = reader.line_num + 1
    return [h.strip() for h in header], rows


def _reference_columns(rows, converters):
    """Line numbers and columns, each field converted by a Python call;
    the first row (in file order) with a wrong field count, then the first
    field that does not convert, is rejected."""
    if not rows:
        raise Rejected("no observations")
    for lineno, row in rows:
        if len(row) != len(converters):
            raise Rejected(f"line {lineno}: expected {len(converters)} fields, got {len(row)}")
    columns = [[] for _ in converters]
    for lineno, row in rows:
        for column, conv, value in zip(columns, converters, row):
            try:
                column.append(conv(value))
            except ValueError as exc:
                raise Rejected(f"line {lineno}: {exc}") from exc
    return [lineno for lineno, _ in rows], [np.array(c) for c in columns]


def _reject_first(lines, bad, message):
    for lineno, b in zip(lines, bad):
        if b:
            raise Rejected(f"line {lineno}: {message}")


def long_csv_reference(path):
    """(X, sample, multiplicity) of a ``sample,y,x1,...,xp`` file, read row
    by row with the csv module and int()/float() per field."""
    header, rows = _reference_rows(path)
    if len(header) < 3 or header[0] != "sample" or header[1] != "y":
        raise Rejected("expected header 'sample,y,x1,...,xp', got " + ",".join(header))
    lines, (sample, y, *xs) = _reference_columns(rows, [int] + [float] * (len(header) - 1))
    X = np.column_stack(xs)
    _reject_first(lines, sample < 1, "sample index must be >= 1")
    _reject_first(lines, ~np.all(np.isfinite(X), axis=1), "non-finite covariate")
    _reject_first(lines, y != sample - 1, "y must be 0 in the first sample, 1 in the second")
    return X, sample, np.ones(len(lines), dtype=int)


def _transformed(transform, age, lineno):
    """``transform(age)``; a DataError it raises is rejected naming the line."""
    try:
        return transform(age)
    except DataError as exc:
        raise Rejected(f"line {lineno}: {exc}") from None


def casecontrol_csv_reference(path, transform=None):
    """(X, sample, multiplicity) of an ``age,scar,cases,controls`` file, read
    row by row with the csv module, float()/int() per field and
    ``transform`` called on one age at a time."""
    header, rows = _reference_rows(path)
    if header != ["age", "scar", "cases", "controls"]:
        raise Rejected("expected header 'age,scar,cases,controls', got " + ",".join(header))
    lines, (age, scar, cases, controls) = _reference_columns(rows, (float, float, int, int))
    _reject_first(lines, (cases < 0) | (controls < 0), "case and control counts must be >= 0")
    _reject_first(lines, ~(np.isfinite(age) & np.isfinite(scar)), "non-finite covariate")
    x2 = age if transform is None else np.array(
        [_transformed(transform, a, lineno) for lineno, a in zip(lines, age)], dtype=float
    )
    X, sample, mult = [], [], []
    for i in range(len(lines)):
        for s, count in ((1, controls[i]), (2, cases[i])):
            if count > 0:
                X.append((scar[i], x2[i]))
                sample.append(s)
                mult.append(count)
    if not X:
        raise Rejected("no observations")
    return np.array(X), np.array(sample), np.array(mult)
