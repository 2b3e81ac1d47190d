"""Equal-norm Parseval nearness: every instance generator, the Newton
solver, and the per-instance equivalence chains between the frame-side and
projection-side problems.

The solver only weights the input's vectors and takes the canonical
Parseval frame of the result, so it searches over N log-weights.  The
squared norms of that Parseval frame are the gradient of Barthe's convex
potential, and its minimiser makes them equal the targets.  A damped
Newton loop on the potential gets there in a few steps; the iterate is the
Parseval frame rescaled onto the targets, and the solution is rotated onto
the input by orthogonal Procrustes.  Iteration stops when both defects fall
below the configured tolerance (converged), when the Newton system or its
line search admits no step (stagnated: no weights reach the targets), when
the best defect has stopped improving (stalled, at the rounding floor or on
a rising defect), when the first weighted frame operator fails the spanning
floor (span floor), or at the iteration cap.  Non-convergence is reported
explicitly with the best iterate, never silently.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._seeding import derive_seed
from .frames import (
    Frame,
    RankDeficientError,
    analysis_image_distance,
    canonical_parseval,
    defects,
    frame_bounds,
    frame_distance,
    gram,
    hs_norm,
    norm_defect,
    parseval_defect,
    vector_distance,
    vector_gram,
)
from .linalg import clears_floor
from .subspaces import procrustes_rotate, projection_from_frame, require_parseval

__all__ = [
    "ConvergenceError",
    "SolverConfig",
    "PaulsenInstance",
    "FrameToProjectionReport",
    "ProjectionToFrameReport",
    "harmonic_frame",
    "haar_unitary",
    "random_parseval",
    "random_equal_norm_parseval",
    "perturb",
    "random_projection_pair",
    "parseval_pair",
    "near_parseval_frame",
    "nearest_equal_norm_parseval",
    "chain_bound",
    "equivalence_chain_frame_to_projection",
    "equivalence_chain_projection_to_frame",
]

ZERO_VECTOR_NORM = 1e-14

# A solve whose best combined defect has not improved by more than
# STALL_GAIN (a few rounding units of the order-1 quantities the defects
# compare) for STALL_ITERATIONS iterations has reached the rounding floor of
# its defects, or its defect is rising: it stops unconverged with its best
# iterate instead of running to ``max_iterations``.
STALL_ITERATIONS = 20
STALL_GAIN = 4.0 * float(np.finfo(np.float64).eps)

# The line search halves a step at most this many times, down to about 1e-12
# of its length, before the solve stops stagnated.
LINE_SEARCH_HALVINGS = 40

# A step that halves ||tau - c|| passes the line search even when Phi rises,
# but only by up to PHI_ROUNDING * (1 + |Phi|): within Phi's rounding, where
# Phi cannot judge the step.  Rises on the solves of the tests, the verify
# suites and the sweeps stay below 1e-14 of that scale.  A larger rise means
# the step left the region the Newton model describes, as a far start's
# first Newton step can, driving one weight towards zero.
PHI_ROUNDING = 1e-12

# perturb stops bisecting its amplitude once the bracket [lo, hi] satisfies
# hi - lo <= PERTURB_BRACKET_RTOL * hi, and gives up (keeping the largest
# amplitude found within the cap) after PERTURB_MAX_ATTEMPTS candidates.
PERTURB_BRACKET_RTOL = 2.0**-12
PERTURB_MAX_ATTEMPTS = 60


class ConvergenceError(RuntimeError):
    """The solver did not reach the requested tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self):
        tol, cap = self.tolerance, self.max_iterations
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
            raise ValueError(f"tolerance must be a positive number, got {tol!r}")
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class PaulsenInstance:
    """One solved nearness instance.

    ``eps`` is the maximum input defect; ``bound_16eM`` the empirical
    reference value 16 * eps * M that the harness reports against but never
    asserts.  ``iterations`` counts solver steps: the first rescales onto
    the targets, the rest are Newton steps.  ``stop_reason`` says why the
    solver stopped: "converged", "max_iterations", "span_floor", "stagnated"
    or "stalled" (see ``_newton_solve``).  The instance is converged only for
    the first, and then the solution has both defects at or below the solver
    tolerance.  ``log_weights`` are the Barthe log-weights w of the returned
    iterate: solution_i = e^{w_i/2} f_i B for one M x M matrix B, and zeros
    when the input is returned.  A solve of any frame with the same
    analysis range may start from them.  A degenerate solve's weights
    weight its restarted vectors, so they are no such start.
    """

    input_frame: Frame
    eps: float
    solution: Frame
    distance: float
    iterations: int
    stop_reason: str
    degenerate: bool
    bound_16eM: float
    log_weights: np.ndarray = field(compare=False, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @cached_property
    def projection_distance(self) -> float:
        """d(Gram F, Gram G) between the input and the solution, the
        analysis image distance, formed once and read by every chain."""
        return analysis_image_distance(self.input_frame, self.solution)

    @classmethod
    def solve(
        cls,
        frame: Frame,
        targets_sq: np.ndarray,
        cfg: SolverConfig,
        eps: float,
        start: np.ndarray | None = None,
    ) -> "PaulsenInstance":
        """Run the solver from ``frame`` towards the per-vector squared norms
        ``targets_sq`` and record the result, with ``eps`` as the input
        defect it reports.  ``start`` gives the log-weights of the first
        evaluation (see ``_newton_solve``)."""
        vectors, log_weights, iterations, stop_reason, degenerate = _newton_solve(
            frame, targets_sq, cfg, start
        )
        solution = Frame(vectors)
        return cls(
            input_frame=frame,
            eps=eps,
            solution=solution,
            distance=frame_distance(frame, solution),
            iterations=iterations,
            stop_reason=stop_reason,
            degenerate=degenerate,
            bound_16eM=16.0 * eps * frame.dim,
            log_weights=log_weights,
        )

    def require_converged(self) -> "PaulsenInstance":
        """Return the instance, or raise :class:`ConvergenceError` when the
        solver stopped short of its tolerance."""
        if not self.converged:
            raise ConvergenceError(
                f"solver stopped ({self.stop_reason}) after {self.iterations} "
                f"iterations without reaching tolerance; best iterate defect "
                f"{defects(self.solution).max():.3e}"
            )
        return self


# ---------------------------------------------------------------------------
# generators


def harmonic_frame(m: int, n: int) -> Frame:
    """Equal-norm Parseval frame from rows of the N-point character table.

    Vector i is (1/sqrt(N)) (w^{ij})_{j=0..M-1} with w = exp(2 pi i / N).
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= dim <= n_vectors, got dim={m}, n_vectors={n}")
    i = np.arange(n).reshape(-1, 1)
    j = np.arange(m).reshape(1, -1)
    v = np.exp(2j * np.pi * i * j / n) / math.sqrt(n)
    return Frame(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_parseval(m: int, n: int, seed) -> Frame:
    """Seeded random Parseval frame: canonical Parseval frame of a complex
    Gaussian vector list.  Deterministic per seed; a rank-deficient draw
    (probability ~0) is retried with an incremented sub-seed, at most 5 times.
    """
    if m > n:
        raise ValueError(f"need dim <= n_vectors, got dim={m}, n_vectors={n}")
    last_err = None
    for attempt in range(5):
        rng = np.random.default_rng([seed, attempt])
        v = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)
        try:
            return canonical_parseval(Frame(v))
        except RankDeficientError as err:
            last_err = err
    raise RankDeficientError(
        f"no spanning Gaussian draw in 5 attempts for seed {seed!r}"
    ) from last_err


def random_equal_norm_parseval(m: int, n: int, seed) -> Frame:
    """Haar-rotated harmonic frame: a random equal-norm Parseval frame."""
    u = haar_unitary(m, np.random.default_rng(seed))
    return Frame(harmonic_frame(m, n).vectors @ u.T)


def perturb(frame: Frame, eps: float, seed) -> Frame:
    """Random perturbation of an equal-norm Parseval frame with both defects
    capped at ``eps``.

    A fixed Gaussian direction, scaled to the frame's Hilbert-Schmidt norm,
    is drawn from ``seed``.  Its amplitude t is bracketed by doubling or
    halving from t = eps and then bisected until the bracket is within
    ``PERTURB_BRACKET_RTOL`` of its upper end, keeping the largest amplitude
    whose defects stay at or below the cap, so outputs sit within about
    that fraction of the cap.  Each candidate amplitude is scored from the
    eigenvalues of its M x M frame operator and its row norms, with the
    spanning test of :class:`Frame` and the defects of :func:`defects`;
    only the returned frame is constructed, and its own defects are checked
    against the cap, stepping the amplitude back by the bracket tolerance in
    the rare case that rounding puts it over.
    """
    d = defects(frame)
    if d.max() > 1e-9:
        raise ValueError(
            f"input must be equal-norm Parseval within 1e-9, got defects "
            f"({d.parseval_eps:.3e}, {d.equal_norm_eps:.3e})"
        )
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if d.max() > eps:
        raise ValueError(
            f"eps {eps!r} is below the input's own defect floor {d.max():.3e}"
        )
    rng = np.random.default_rng(seed)
    n, m = frame.vectors.shape
    direction = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    direction *= hs_norm(frame.vectors) / hs_norm(direction)
    target = m / n

    def within_cap(t: float) -> bool:
        v = frame.vectors + t * direction
        s = v.T @ v.conj()
        evals = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
        if not clears_floor(evals[0], evals[-1]):
            return False
        norms_sq = np.sum(np.abs(v) ** 2, axis=1)
        return max(parseval_defect(evals[0], evals[-1]), norm_defect(norms_sq, target)) <= eps

    # t = 0 is the input itself, within the cap by the checks above; hi is
    # the smallest amplitude seen to exceed it.
    lo, hi, t = 0.0, math.inf, eps
    for _ in range(PERTURB_MAX_ATTEMPTS):
        if within_cap(t):
            lo = t
        else:
            hi = t
        if hi < math.inf and hi - lo <= PERTURB_BRACKET_RTOL * hi:
            break
        t = 2.0 * lo if math.isinf(hi) else 0.5 * (lo + hi)
    while True:
        out = Frame(frame.vectors + lo * direction)
        if defects(out).max() <= eps:
            return out
        # eigvalsh and the Frame's eigh can round an extreme eigenvalue to
        # either side of the cap when lo sits within rounding of it.
        lo = max(0.0, lo - PERTURB_BRACKET_RTOL * hi)


def _wiggle(frame: Frame, amplitude: float, seed) -> Frame:
    rng = np.random.default_rng(seed)
    n, m = frame.vectors.shape
    d = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    d *= amplitude * hs_norm(frame.vectors) / hs_norm(d)
    return Frame(frame.vectors + d)


def random_projection_pair(seed):
    """Random equal-rank projection pair of rank <= 8 and size <= 32; half are nearby."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m, 33))
    p_frame = random_parseval(m, n, derive_seed(seed, "p"))
    p = projection_from_frame(p_frame)
    if rng.integers(2):
        eps = float(rng.uniform(0.01, 0.3))
        q = projection_from_frame(canonical_parseval(_wiggle(p_frame, eps, derive_seed(seed, "q"))))
    else:
        q = projection_from_frame(random_parseval(m, n, derive_seed(seed, "q")))
    return p, q


def parseval_pair(seed, target_delta: float, m: int, n: int):
    """Pair of Parseval frames with d(F, G) steered into [delta/4, 4 delta]."""
    f = random_parseval(m, n, derive_seed(seed, "f"))
    t = math.sqrt(target_delta / (2.0 * m))
    g = canonical_parseval(_wiggle(f, t, derive_seed(seed, "g")))
    for _ in range(6):
        delta = frame_distance(f, g)
        if 0.25 * target_delta <= delta <= 4.0 * target_delta:
            break
        t *= math.sqrt(target_delta / delta)
        g = canonical_parseval(_wiggle(f, t, derive_seed(seed, "g")))
    return f, g


def near_parseval_frame(eps: float, m: int, n: int, seed) -> Frame:
    """Frame with parseval_eps = eps exactly and equal-norm defect <= eps, for
    0 <= eps < 1 (``ValueError`` otherwise).

    Applies an invertible Hermitian map with extreme eigenvalues
    sqrt(1 +/- eps) to a random equal-norm Parseval frame, so the
    frame-operator spectrum attains both ends of [1 - eps, 1 + eps].
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must lie in [0, 1), got {eps!r}")
    rng = np.random.default_rng(seed)
    base = random_equal_norm_parseval(m, n, derive_seed(seed, "base"))
    mu = np.sqrt(rng.uniform(1.0 - eps, 1.0 + eps, size=m))
    mu[0] = math.sqrt(1.0 + eps)
    if m > 1:
        mu[-1] = math.sqrt(1.0 - eps)
    w = haar_unitary(m, rng)
    x = (w * mu) @ w.conj().T
    return Frame(base.vectors @ x.T)


# ---------------------------------------------------------------------------
# solver


def _scaled_parseval(v: np.ndarray, t: np.ndarray, c: np.ndarray, eig=None):
    """Evaluate Barthe's potential at the log-weights ``t``.

    From one eigendecomposition of S_t = sum_i e^{t_i} v_i v_i^* (``eig``,
    eigenvalues ascending, when it is already known) this returns the
    Parseval frame U with rows e^{t_i/2} v_i S_t^{-1/2} in the eigenbasis of
    S_t, its squared row norms tau and the potential
    Phi(t) = log det S_t - <c, t>; or None when S_t fails
    :func:`framekit.linalg.clears_floor`.  The weights are taken relative to
    the largest, so that no exponential overflows.
    """
    top = t.max()
    w = np.exp(t - top)
    if eig is None:
        s = v.T @ (w[:, None] * v.conj())
        eig = np.linalg.eigh(0.5 * (s + s.conj().T))
    evals, evecs = eig
    if not clears_floor(evals[0], evals[-1]):
        return None
    u = np.sqrt(w)[:, None] * (v @ evecs.conj()) * evals**-0.5
    tau = (u.real**2 + u.imag**2).sum(axis=1)
    return u, tau, float(np.log(evals).sum()) + v.shape[1] * top - float(c @ t)


def _newton_solve(frame: Frame, targets_sq: np.ndarray, cfg: SolverConfig, start=None):
    """Damped Newton on Barthe's potential from the raw (N, M) vector array
    of ``frame``, at the log-weights ``start`` (an (N,) array of finite
    floats; ``ValueError`` otherwise), or at zero weights when it is None,
    the first evaluation then reusing ``frame``'s kept eigendecomposition.

    Returns (vectors, log_weights, iterations, stop_reason, degenerate).

    Weighting the vectors by e^{t_i} and taking the canonical Parseval frame
    U of the result gives squared norms tau_i = ||u_i||^2, the gradient of
    the convex potential Phi(t) = log det(sum_i e^{t_i} v_i v_i^*) - <c, t>
    for the targets c = ``targets_sq`` (F. Barthe, Invent. Math. 1998).  At
    tau = c, U is equal-norm Parseval.  The iterate is U rescaled onto the
    targets, which is also where the first step goes: t = log(c / tau), the
    image of the alternating map of Tropp, Dhillon, Heath & Strohmer, puts
    every weight at its scale.  Every later step is a Newton step.  The
    Hessian is diag(tau) - |P|^2, with P = Gram(U) squared entrywise; the
    vector of ones is in its kernel, since Phi ignores a common weight, so
    the step solves (H + 11^T / N) d = c - tau.  A step is halved until Phi
    does not rise, or ||tau - c|| halves while Phi rises by no more than its
    rounding (``PHI_ROUNDING``); Phi alone cannot judge steps near the
    optimum, where its changes fall below its rounding.

    The loop stops for one of these reasons:

    * converged: both defects of the input or of an iterate are at or below
      the tolerance;
    * max_iterations: ``cfg.max_iterations`` steps were taken;
    * span_floor: the first weighted frame operator fails
      :func:`framekit.linalg.clears_floor`; the line search rejects every
      later point that fails it;
    * stagnated: the Newton system leaves more than half of c - tau
      unsolved, because that part lies in the Hessian's kernel, where no
      weight changes tau (no weights make the frame equal-norm Parseval, as
      for a clumped frame); or no step down to 2**-LINE_SEARCH_HALVINGS of
      the Newton step passes the line search;
    * stalled: the best combined defect has not improved by more than
      ``STALL_GAIN`` for ``STALL_ITERATIONS`` steps, as happens once the
      defects sit at rounding level above a tolerance below that level, or
      once the defect rises and stays above its best.

    Every stop returns the best of the input and the iterates, so the
    solution's combined defect never exceeds the input's.  A returned
    iterate is rotated onto the input by the unitary nearest to it
    (orthogonal Procrustes: one M x M SVD), which can only shorten the
    distance.

    The potential sees the vectors only through the range of the weighted
    analysis matrix, up to a constant, so a frame F A (A invertible) has
    F's minimiser, and F's Naimark complement has its negation; either
    solve may start from F's ``log_weights``.  The loop decides convergence
    from any start.

    A vector that U maps to zero takes no weight; it restarts in a random
    direction, seeded from the input's bytes, and sets ``degenerate``.
    """
    vectors = frame.vectors
    n = vectors.shape[0]
    t = np.zeros(n) if start is None else _checked_start(start, n)
    best, best_defect = vectors, max(
        parseval_defect(*frame_bounds(frame)),
        norm_defect((np.abs(vectors) ** 2).sum(axis=1), targets_sq),
    )
    if best_defect <= cfg.tolerance:
        return vectors, np.zeros(n), 0, "converged", False
    v = vectors
    current = _scaled_parseval(v, t, targets_sq, frame.eig if start is None else None)
    dead = current is not None and current[1] < ZERO_VECTOR_NORM**2
    degenerate = bool(np.any(dead))
    if degenerate:
        rng = np.random.default_rng(derive_seed("restart", vectors.tobytes()))
        shape = (int(dead.sum()), v.shape[1])
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # U's rows carry the weights; dividing them out keeps t the weights
        # of the input's rows (a division by ones from a cold start).
        v = current[0] / np.sqrt(np.exp(t - t.max()))[:, None]
        v[dead] = z / np.linalg.norm(z, axis=1)[:, None]
        current = _scaled_parseval(v, t, targets_sq)
    gain_it = 0
    for it in range(cfg.max_iterations + 1):
        if current is None:
            stop_reason = "span_floor"
            break
        u, tau, phi = current
        scale = targets_sq / tau
        x = u * np.sqrt(scale)[:, None]
        lam = np.linalg.eigvalsh(x.T @ x.conj())
        parseval_eps = parseval_defect(lam[0], lam[-1])
        norm_eps = norm_defect((np.abs(x) ** 2).sum(axis=1), targets_sq)
        combined = max(parseval_eps, norm_eps)
        if combined < best_defect:
            if combined < best_defect - STALL_GAIN:
                gain_it = it
            best, best_weights, best_defect = x, (t, scale), combined
        if parseval_eps <= cfg.tolerance and norm_eps <= cfg.tolerance:
            stop_reason = "converged"
            break
        if it - gain_it >= STALL_ITERATIONS:
            stop_reason = "stalled"
            break
        if it == cfg.max_iterations:
            stop_reason = "max_iterations"
            break
        shortfall = targets_sq - tau
        gap = np.linalg.norm(shortfall)
        if it == 0:
            step = np.log(scale)
        else:
            p = u.conj() @ u.T
            hessian = np.diag(tau) - (p.real**2 + p.imag**2) + 1.0 / n
            try:
                step = np.linalg.solve(hessian, shortfall)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hessian, shortfall)[0]
            if np.linalg.norm(hessian @ step - shortfall) > 0.5 * gap:
                stop_reason = "stagnated"
                break
        for _ in range(LINE_SEARCH_HALVINGS + 1):
            trial = _scaled_parseval(v, t + step, targets_sq)
            if (
                trial is not None
                and trial[2] <= phi + PHI_ROUNDING * (1.0 + abs(phi))
                and (trial[2] <= phi or np.linalg.norm(trial[1] - targets_sq) <= 0.5 * gap)
            ):
                break
            step = 0.5 * step
        else:
            stop_reason = "stagnated"
            break
        t, current = t + step, trial
    # The loop always breaks, at it == cfg.max_iterations at the latest.
    if best is vectors:
        return vectors, np.zeros(n), it, stop_reason, degenerate
    # The iterate is the weighted vectors at t, rescaled by scale, times one
    # M x M map, so its log-weights are t + log(scale).
    t, scale = best_weights
    return procrustes_rotate(best, vectors), t + np.log(scale), it, stop_reason, degenerate


def _checked_start(start, n: int) -> np.ndarray:
    t = np.array(start, dtype=np.float64)
    if t.shape != (n,):
        raise ValueError(f"start must hold {n} log-weights, shape ({n},); got shape {t.shape}")
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValueError(f"start must be finite; entry {bad[0]} is {float(t[bad[0]])!r}")
    return t


def nearest_equal_norm_parseval(
    frame: Frame, cfg: SolverConfig | None = None, start: np.ndarray | None = None
) -> PaulsenInstance:
    """Solve for a nearest equal-norm Parseval frame by Newton's method on
    Barthe's potential, from the log-weights ``start`` when given (see
    ``_newton_solve``)."""
    cfg = cfg or SolverConfig()
    targets_sq = np.full(frame.n_vectors, frame.dim / frame.n_vectors)
    return PaulsenInstance.solve(frame, targets_sq, cfg, defects(frame).max(), start)


# ---------------------------------------------------------------------------
# equivalence chains


def chain_bound(distance: float, factor: float, reference: float) -> dict:
    """The report fields of a chain that bounds ``distance`` by ``factor``
    times ``reference``: the observed ``ratio`` distance / reference (0 when
    both are within 1e-12 of zero, infinite when only ``reference`` is), the
    ``bound_slack`` distance - factor * reference, and ``within_bound``,
    whether that slack is at most 1e-8."""
    slack = distance - factor * reference
    if reference > 1e-12:
        ratio = distance / reference
    else:
        ratio = 0.0 if distance <= 1e-12 else math.inf
    return {"ratio": ratio, "bound_slack": slack, "within_bound": slack <= 1e-8}


@dataclass(frozen=True)
class FrameToProjectionReport:
    """Per-instance check that a solved frame instance induces a nearby
    constant-diagonal projection at distance at most 4x the frame distance;
    ``bound_slack`` is the excess over 4x (see :func:`chain_bound`)."""

    eps: float
    paulsen_distance: float
    projection_distance: float
    ratio: float
    bound_slack: float
    within_bound: bool
    solution_diagonal_defect: float


@dataclass(frozen=True)
class ProjectionToFrameReport:
    """Per-instance check that a near-constant-diagonal projection lifts to a
    frame instance at distance at most 2x the projection distance;
    ``bound_slack`` is the excess over 2x (see :func:`chain_bound`)."""

    eps: float
    extraction_residual: float
    paulsen_distance: float
    projection_distance: float
    lift_distance: float
    ratio: float
    bound_slack: float
    within_bound: bool


def equivalence_chain_frame_to_projection(instance: PaulsenInstance) -> FrameToProjectionReport:
    """Form Q = Gram(solution) of a solved instance and check
    d(Gram F, Q) <= 4 * d(F, solution) with Q constant-diagonal.

    The input frame F must be Parseval (``ValueError`` otherwise) and the
    instance converged (:class:`ConvergenceError` otherwise).
    """
    require_parseval(instance.input_frame)
    instance.require_converged()
    delta = instance.distance
    dist = instance.projection_distance
    return FrameToProjectionReport(
        eps=instance.eps,
        paulsen_distance=delta,
        projection_distance=dist,
        solution_diagonal_defect=defects(instance.solution).equal_norm_eps,
        **chain_bound(dist, 4.0, delta),
    )


def equivalence_chain_projection_to_frame(instance: PaulsenInstance) -> ProjectionToFrameReport:
    """Take P = Gram F of a solved instance's Parseval input F, extract a
    Parseval frame realizing P, and lift Q = Gram(solution) back to it,
    checking d(extracted, lifted) <= 2 * d(P, Q).

    F's analysis matrix spans range(P), so the extracted frame's analysis
    matrix is the orthonormal factor of its thin QR, in O(N M^2) with no
    N x N decomposition; P's diagonal holds F's squared norms.  The
    extracted frame equals F up to a unitary change of basis, and the
    solver is unitarily equivariant, so the instance's solve of F stands in
    for a solve of the extracted frame.  F must be Parseval and P's diagonal
    defect below 1 (``ValueError`` otherwise) and the instance converged
    (:class:`ConvergenceError` otherwise).  To start from a projection P,
    solve ``frame_from_projection(P)``.
    """
    frame = instance.input_frame
    require_parseval(frame)
    instance.require_converged()
    eps = defects(frame).equal_norm_eps
    if eps >= 1.0:
        raise ValueError(f"projection diagonal defect {eps:.3e} must be < 1")
    extracted = np.conj(np.linalg.qr(np.conj(frame.vectors))[0])
    extraction_residual = hs_norm(vector_gram(extracted) - gram(frame))
    lifted = procrustes_rotate(instance.solution.vectors, extracted)
    lift_distance = vector_distance(extracted, lifted)
    dist = instance.projection_distance
    return ProjectionToFrameReport(
        eps=eps,
        extraction_residual=extraction_residual,
        paulsen_distance=instance.distance,
        projection_distance=dist,
        lift_distance=lift_distance,
        **chain_bound(lift_distance, 2.0, dist),
    )
