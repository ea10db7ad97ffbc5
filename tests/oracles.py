"""Independent brute-force oracles used only by the test suite."""

import itertools
import math

import numpy as np

from echolab.dynsys import DIVERGENCE_THRESHOLD, TimeSeries
from echolab.errors import DegenerateJacobianError, IntegrationDivergedError
from echolab.reservoir import make_rng
from echolab.stochastic import stationary_distribution
from echolab.topology import PersistenceDiagram, PersistencePair


def f2_rank_dense(matrix) -> int:
    """Gaussian elimination over F2 on a dense numpy array."""
    M = np.array(matrix, dtype=np.uint8) % 2
    rows, cols = M.shape
    rank = 0
    pivot_row = 0
    for j in range(cols):
        pivot = None
        for i in range(pivot_row, rows):
            if M[i, j]:
                pivot = i
                break
        if pivot is None:
            continue
        M[[pivot_row, pivot]] = M[[pivot, pivot_row]]
        for i in range(rows):
            if i != pivot_row and M[i, j]:
                M[i] ^= M[pivot_row]
        pivot_row += 1
        rank += 1
    return rank


def brute_force_betti(points, eps, max_dim):
    """Betti numbers of the Rips complex at eps by direct enumeration.

    Builds every simplex up to max_dim from pairwise distances, forms
    dense boundary matrices, and computes nullity(d_k) - rank(d_k+1).
    """
    points = np.asarray(points, dtype=float)
    m = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    simplices = {0: [(i,) for i in range(m)]}
    for k in range(1, max_dim + 1):
        simplices[k] = [
            s
            for s in itertools.combinations(range(m), k + 1)
            if max(dist[a, b] for a, b in itertools.combinations(s, 2)) <= eps + 1e-12
        ]
    ranks = {}
    for k in range(1, max_dim + 1):
        rows = {s: i for i, s in enumerate(simplices[k - 1])}
        M = np.zeros((len(rows), len(simplices[k])), dtype=np.uint8)
        for j, s in enumerate(simplices[k]):
            for facet in itertools.combinations(s, k):
                M[rows[facet], j] = 1
        ranks[k] = f2_rank_dense(M) if M.size else 0
    ranks[max_dim + 1] = 0
    betti = []
    for k in range(max_dim + 1):
        nullity = len(simplices[k]) - ranks.get(k, 0)
        betti.append(nullity - ranks[k + 1])
    return betti


def persistence_by_column_reduction(filtration, max_eps=None):
    """Persistence pairs by reducing boundary columns in filtration order.

    Degree 0 runs union-find with the elder rule. Each higher simplex's
    boundary, held as a frozenset of facet indices, is reduced by XOR
    against earlier pivot columns until its largest index is a new
    pivot (the facet's class dies here) or the column vanishes (the
    simplex gives birth). Classes still alive get death = infinity,
    flagged truncated when a cutoff is known.
    """
    simplices = filtration.simplices
    if max_eps is None and simplices:
        max_eps = max(s[0] for s in simplices)

    vertex_birth = {}
    for value, dim, verts in simplices:
        if dim == 0:
            vertex_birth[verts[0]] = value
    vertex_ids = {v: i for i, v in enumerate(sorted(vertex_birth))}
    parent = list(range(len(vertex_ids)))
    root_birth = {vertex_ids[v]: vertex_birth[v] for v in vertex_ids}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    pairs = []
    index_of = {}
    values_of = {}
    positive = {0: {}}
    pivot_cols = {}

    for value, dim, verts in simplices:
        idx = index_of.setdefault(dim, {})
        idx[verts] = len(idx)
        values_of.setdefault(dim, []).append(value)
        if dim == 0:
            positive[0][vertex_ids[verts[0]]] = value
            continue
        if dim == 1:
            i, j = find(vertex_ids[verts[0]]), find(vertex_ids[verts[1]])
            if i != j:
                bi, bj = root_birth[i], root_birth[j]
                young, old = (j, i) if (bj, j) >= (bi, i) else (i, j)
                pairs.append(PersistencePair(0, root_birth[young], value))
                positive[0].pop(young, None)
                parent[young] = old
            else:
                positive.setdefault(1, {})[index_of[1][verts]] = value
            continue
        facet_index = index_of[dim - 1]
        col = frozenset(facet_index[f] for f in itertools.combinations(verts, dim))
        pivots = pivot_cols.setdefault(dim, {})
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = col
                positive.get(dim - 1, {}).pop(low, None)
                pairs.append(PersistencePair(dim - 1, values_of[dim - 1][low], value))
                break
            col = col ^ pivots[low]
        if not col:
            positive.setdefault(dim, {})[index_of[dim][verts]] = value

    for dim, alive in positive.items():
        for _, birth in sorted(alive.items()):
            pairs.append(PersistencePair(dim, birth, math.inf, truncated=max_eps is not None))
    pairs.sort(key=lambda p: (p.degree, p.birth, p.death))
    return PersistenceDiagram(pairs=pairs, max_eps=max_eps)


def hexagon_points():
    """Regular hexagon with unit side, vertex i at angle i * 60 degrees."""
    angles = np.arange(6) * np.pi / 3.0
    return np.column_stack([np.cos(angles), np.sin(angles)])


# Row/column orders of the printed boundary tables (0-indexed labels).
HEXAGON_FACES = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 0), (5, 0, 1)]
HEXAGON_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
    (0, 2), (2, 4), (4, 0), (5, 1), (1, 3), (3, 5),
]
HEXAGON_VERTICES = [(i,) for i in range(6)]

HEXAGON_DEL2_TABLE = np.array(
    [
        [1, 0, 0, 0, 0, 1],
        [1, 1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 1, 1],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
    ],
    dtype=np.uint8,
)

HEXAGON_DEL1_TABLE = np.array(
    [
        [1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
        [0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1],
    ],
    dtype=np.uint8,
)


# Per-step Lorenz and Lyapunov references: numpy on 3-vectors, one call
# per RK4 stage and one QR per iteration.


def _lorenz_rhs_single(state, params):
    x, y, z = state
    return np.array(
        [
            params.sigma * (y - x),
            x * (params.rho - z) - y,
            x * y - params.beta * z,
        ]
    )


def _lorenz_jacobian_single(state, params):
    x, y, z = state
    return np.array(
        [
            [-params.sigma, params.sigma, 0.0],
            [params.rho - z, -1.0, -x],
            [y, x, -params.beta],
        ]
    )


def rk4_step(f, state, h):
    """One classical Runge-Kutta step of size h."""
    k1 = f(state)
    k2 = f(state + 0.5 * h * k1)
    k3 = f(state + 0.5 * h * k2)
    k4 = f(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def iterate_with_step_check(fmap, input_series, x0):
    """x_{k+1} = fmap(x_k, z_k), raising at the first out-of-range state."""
    states = [np.asarray(x0, dtype=float)]
    x = states[0]
    for k, z in enumerate(input_series.samples[:, 0]):
        x = fmap(x, float(z))
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > DIVERGENCE_THRESHOLD:
            raise IntegrationDivergedError(k + 1)
        states.append(x)
    return np.array(states)


def lorenz_step_reference(state, params):
    return rk4_step(lambda s: _lorenz_rhs_single(s, params), state, params.tau)


def integrate_lorenz_reference(params, n_steps):
    """Lorenz RK4 orbit stepped on numpy 3-vectors with a per-step check."""
    out = np.empty((n_steps + 1, 3))
    out[0] = params.initial
    state = params.initial
    for k in range(n_steps):
        state = lorenz_step_reference(state, params)
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > DIVERGENCE_THRESHOLD:
            raise IntegrationDivergedError(k + 1)
        out[k + 1] = state
    return TimeSeries(step=params.tau, samples=out)


def lorenz_step_jacobian_reference(state, params):
    """Jacobian of one RK4 step through the variational stages, per state."""
    h = params.tau
    eye = np.eye(3)
    k1 = _lorenz_rhs_single(state, params)
    d1 = _lorenz_jacobian_single(state, params)
    s2 = state + 0.5 * h * k1
    k2 = _lorenz_rhs_single(s2, params)
    d2 = _lorenz_jacobian_single(s2, params) @ (eye + 0.5 * h * d1)
    s3 = state + 0.5 * h * k2
    k3 = _lorenz_rhs_single(s3, params)
    d3 = _lorenz_jacobian_single(s3, params) @ (eye + 0.5 * h * d2)
    s4 = state + h * k3
    d4 = _lorenz_jacobian_single(s4, params) @ (eye + h * d3)
    return eye + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)


def lyapunov_qr_reference(step, jacobian, x0, n_iter, tau=1.0, record_every=100):
    """QR Lyapunov spectrum stepping the orbit itself, one QR per step.

    Returns (exponents, running_means) in the layout of LyapunovResult.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.shape[0]
    Q = np.eye(n)
    sums = np.zeros(n)
    traces = []
    for j in range(1, n_iter + 1):
        Z = jacobian(x) @ Q
        Q, R = np.linalg.qr(Z)
        diag = np.diag(R).copy()
        if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
            raise DegenerateJacobianError(f"zero R diagonal at iteration {j}")
        Q = Q * np.sign(diag)[None, :]
        sums += np.log(np.abs(diag))
        if j % record_every == 0:
            traces.append(np.concatenate([[j], np.sort(sums / j / tau)[::-1]]))
        x = step(x)
    return np.sort(sums / n_iter / tau)[::-1], np.array(traces)


# Per-step Monte-Carlo references: one `rng.choice` call per Markov step
# (one per path for i.i.d. kinds) and one reward call per rollout step.


def draw_finite_reference(spec, rng, length, start=None):
    """Emitted rows and hidden states of one finite-kind path, per step."""
    if spec.tag == "iid_finite":
        _, table, probs = spec.kind
        states = rng.choice(len(table), size=length, p=np.asarray(probs, dtype=float))
    else:
        _, transition, table = spec.kind
        P = np.asarray(transition, dtype=float)
        states = np.empty(length, dtype=int)
        prev = start
        for k in range(length):
            p = stationary_distribution(P) if prev is None else P[prev]
            prev = states[k] = rng.choice(len(P), p=p)
    return np.atleast_2d(np.asarray(table, dtype=float))[states], states


def sample_path_reference(spec, length):
    """(rows, states) of `sample_path` for a finite kind, drawn per step."""
    return draw_finite_reference(spec, make_rng(spec.seed), length)


def value_mc_reference(
    spec, reward, gamma, history, n_rollouts, horizon, current_state=None, seed=0
):
    """(value, stderr, rng) of `value_mc` by one rollout and one reward
    call at a time; the generator is returned for its next draw."""
    history = np.atleast_2d(np.asarray(history, dtype=float))
    rng = make_rng(seed)
    if spec.tag == "deterministic_wrap":
        start = 0 if current_state is None else current_state + 1
        future = spec.kind[1].samples[start : start + horizon - 1]
    totals = np.empty(n_rollouts)
    for r in range(n_rollouts):
        if spec.tag != "deterministic_wrap":
            future = draw_finite_reference(spec, rng, horizon - 1, current_state)[0]
        path = np.vstack([history, future])
        base = len(history) - 1
        total = 0.0
        for k in range(horizon):
            window = path[base + k - reward.window + 1 : base + k + 1]
            total += gamma**k * reward(window)
        totals[r] = total
    stderr = float(totals.std(ddof=1) / math.sqrt(n_rollouts)) if n_rollouts > 1 else 0.0
    return float(totals.mean()), stderr, rng
