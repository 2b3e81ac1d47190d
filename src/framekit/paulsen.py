"""Equal-norm Parseval nearness: every instance generator, the alternating
solver, and the per-instance equivalence chains between the frame-side and
projection-side problems.

The solver alternates the two exact nearest-point maps available in closed
form: replace the frame by its canonical Parseval frame (nearest Parseval),
then rescale every vector to the target norm (nearest point on the norm
constraint set).  That map converges linearly, so each step is Anderson
accelerated: the new image is mixed with the images of the last few
iterates, the mix is rescaled onto the norm set, and it is kept only when
its combined defect does not exceed the current iterate's; otherwise the
plain image is taken and the mixing history is cleared.  Iteration stops
when both defects fall below the configured tolerance (converged), when a
step no longer moves the frame beyond rounding (stagnation at a fixed point
that is not equal-norm Parseval), when the best defect has stopped improving
(stall, at the rounding floor or on a rising defect), when the iterate stops
spanning (span floor), or at the iteration cap.  Non-convergence is reported
explicitly with the best iterate, never silently.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._seeding import derive_seed
from .frames import (
    Frame,
    RankDeficientError,
    canonical_parseval,
    defects,
    frame_distance,
    gram,
    hs_norm,
    norm_defect,
    parseval_defect,
)
from .linalg import clears_floor
from .subspaces import (
    diagonal_defect,
    frame_from_projection,
    frame_lift,
    proj_distance,
    projection_from_frame,
)

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

# Number of earlier iterates whose images the Anderson step mixes.  A
# deeper window takes fewer iterations (against a 12-deep one, 58.5 -> 48.75
# per solve at (40, 120) and 22.9 -> 20.4 per complement solve at N - M = 18
# to 26; solves that end before the window fills do not change) for two
# (depth, N*M) history buffers.
ANDERSON_DEPTH = 16

# A step ||G(v) - v||_F at or below STAGNATION_RTOL * ||v||_F is rounding.
# Near an equal-norm Parseval frame the step stays above a fixed fraction of
# the combined defect (at least 0.057 of it in measured runs down to
# tolerance 1e-14), so a rounding-level step that is also below
# STAGNATION_DEFECT_RATIO times the defect marks a fixed point of the map
# that no iteration will leave.
STAGNATION_RTOL = 1e-13
STAGNATION_DEFECT_RATIO = 1e-3

# A solve whose best combined defect has not improved by more than
# STALL_GAIN (a few rounding units of the order-1 quantities the defects
# compare) for STALL_ITERATIONS iterations has reached the rounding floor of
# its defects, or its defect is rising: it stops unconverged with its best
# iterate instead of running to ``max_iterations``.
STALL_ITERATIONS = 20
STALL_GAIN = 4.0 * float(np.finfo(np.float64).eps)

# perturb stops bisecting its amplitude once the bracket [lo, hi] satisfies
# hi - lo <= PERTURB_BRACKET_RTOL * hi, and gives up (keeping the largest
# amplitude found within the cap) after PERTURB_MAX_ATTEMPTS candidates.
PERTURB_BRACKET_RTOL = 2.0**-12
PERTURB_MAX_ATTEMPTS = 60


class ConvergenceError(RuntimeError):
    """The alternating solver did not reach the requested tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


@dataclass(frozen=True)
class PaulsenInstance:
    """One solved nearness instance.

    ``eps`` is the maximum input defect; ``bound_16eM`` the empirical
    reference value 16 * eps * M that the harness reports against but never
    asserts.  ``stop_reason`` says why the solver stopped: "converged",
    "max_iterations", "span_floor", "stagnated" or "stalled" (see
    ``_alternating_solve``).  The instance is converged only for the first,
    and then the solution has both defects at or below the solver tolerance.
    """

    input_frame: Frame
    eps: float
    solution: Frame
    distance: float
    iterations: int
    stop_reason: str
    degenerate: bool
    bound_16eM: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @classmethod
    def solve(
        cls, frame: Frame, targets_sq: np.ndarray, cfg: SolverConfig, eps: float
    ) -> "PaulsenInstance":
        """Run the alternating solver from ``frame`` towards the per-vector
        squared norms ``targets_sq`` and record the result, with ``eps`` as
        the input defect it reports."""
        vectors, iterations, stop_reason, degenerate = _alternating_solve(frame, targets_sq, cfg)
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
    """Frame with parseval_eps = eps exactly and equal-norm defect <= eps.

    Applies an invertible Hermitian map with extreme eigenvalues
    sqrt(1 +/- eps) to a random equal-norm Parseval frame, so the
    frame-operator spectrum attains both ends of [1 - eps, 1 + eps].
    """
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


def _spectrum(v: np.ndarray, targets_sq: np.ndarray):
    """Eigendecomposition of the frame operator of ``v`` and its two defects:
    (evals, evecs, parseval_eps, norm_eps), eigenvalues ascending."""
    s = v.T @ v.conj()
    s = 0.5 * (s + s.conj().T)
    evals, evecs = np.linalg.eigh(s)
    return _with_defects(evals, evecs, v, targets_sq)


def _with_defects(evals, evecs, v: np.ndarray, targets_sq: np.ndarray):
    norms_sq = (np.abs(v) ** 2).sum(axis=1)
    return evals, evecs, parseval_defect(evals[0], evals[-1]), norm_defect(norms_sq, targets_sq)


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((np.abs(v) ** 2).sum(axis=1))


def _anderson_candidate(g, f, df, dg, gram_df, targets):
    """The image ``g`` = G(v) minus the image differences ``dg``, weighted so
    that the same combination of the residual differences ``df`` best cancels
    the residual ``f`` = G(v) - v, rescaled onto the norm set.  None when the
    weights cannot be solved for or a mixed vector vanishes or overflows."""
    try:
        # Conjugating the vector, not the block, saves a (k, N*M) temporary.
        gamma = np.linalg.solve(gram_df, (df @ f.conj()).conj())
    except np.linalg.LinAlgError:
        return None
    cand = (g.ravel() - gamma @ dg).reshape(g.shape)
    norms = _row_norms(cand)
    if not np.all((norms >= ZERO_VECTOR_NORM) & np.isfinite(norms)):
        return None
    return cand * (targets / norms)[:, None]


def _alternating_solve(frame: Frame, targets_sq: np.ndarray, cfg: SolverConfig):
    """Core loop on the raw (N, M) vector array of ``frame``, whose kept
    eigendecomposition serves as the first step's.

    Returns (vectors, iterations, stop_reason, degenerate).

    Each iteration applies the alternating map G(v) = rescale(v S(v)^{-1/2})
    and then mixes G(v) with the images of up to ``ANDERSON_DEPTH`` earlier
    iterates (Anderson acceleration, Walker & Ni 2011): the mixing weights
    minimise the norm of the combined residual G(v) - v over the stored
    residual differences, solved through their small Gram matrix.  The mixed
    candidate is rescaled onto the norm set and accepted only when its
    combined defect does not exceed the current iterate's; otherwise the plain
    image G(v) is taken (one more ``eigh``) and the history is cleared.

    The loop stops for one of these reasons:

    * converged: both defects at or below the tolerance;
    * max_iterations: ``cfg.max_iterations`` steps were taken;
    * span_floor: the iterate's frame operator fails
      :func:`framekit.linalg.clears_floor`, which prescribed targets spread
      over more than 12 orders of magnitude can reach;
    * stagnated: ||G(v) - v||_F is at rounding level relative to ||v||_F
      while the tolerance is unmet, so v is a fixed point of G that is not
      equal-norm Parseval;
    * stalled: the best combined defect has not improved by more than
      ``STALL_GAIN`` for ``STALL_ITERATIONS`` iterations, as happens once
      the defects sit at rounding level above a tolerance below that level
      or once the defect rises and stays above its best.

    Every stop returns the best iterate, so the solution's combined defect
    never exceeds the input's.

    A vector that G maps to zero restarts in a random unit direction, seeded
    from the input's bytes, and sets ``degenerate``.
    """
    v = start = frame.vectors
    targets = np.sqrt(targets_sq)
    # Ring buffers of residual and image differences, and the Gram matrix
    # of the residual differences, updated one row and column per step.
    df = np.empty((ANDERSON_DEPTH, v.size), dtype=np.complex128)
    dg = np.empty_like(df)
    gram_df = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH), dtype=np.complex128)
    stored = head = 0
    f_prev = g_prev = None
    rng = None
    best, best_defect, gain_it = v, np.inf, 0
    degenerate = False
    # The Frame's eigh made these bits from the same product; its descending
    # order is reversed into contiguous copies, since matmul's rounding
    # depends on operand layout.
    evals = np.ascontiguousarray(frame._eig.eigenvalues[::-1])
    evecs = np.ascontiguousarray(frame._eig.eigenvectors[:, ::-1])
    evals, evecs, parseval_eps, norm_eps = _with_defects(evals, evecs, v, targets_sq)
    for it in range(cfg.max_iterations + 1):
        combined = max(parseval_eps, norm_eps)
        # No copy: v is the read-only input or a fresh array, never written.
        if combined < best_defect:
            if combined < best_defect - STALL_GAIN:
                gain_it = it
            best, best_defect = v, combined
        if parseval_eps <= cfg.tolerance and norm_eps <= cfg.tolerance:
            best, stop_reason = v, "converged"
            break
        if it - gain_it >= STALL_ITERATIONS:
            stop_reason = "stalled"
            break
        if it == cfg.max_iterations:
            stop_reason = "max_iterations"
            break
        if not clears_floor(evals[0], evals[-1]):
            stop_reason = "span_floor"
            break
        g = v @ ((evecs * evals**-0.5) @ evecs.conj().T).T
        norms = _row_norms(g)
        dead = norms < ZERO_VECTOR_NORM
        if dead.any():
            degenerate = True
            if rng is None:
                rng = np.random.default_rng(derive_seed("restart", start.tobytes()))
            shape = (int(dead.sum()), g.shape[1])
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            g[dead] = z / _row_norms(z)[:, None]
            norms = np.where(dead, 1.0, norms)
            # A restart is a jump, not a step of G: mix nothing across it.
            stored = head = 0
            f_prev = None
        g = g * (targets / norms)[:, None]
        f = (g - v).ravel()
        # trace S(v) = ||v||_F^2
        step = math.sqrt(np.vdot(f, f).real / float(evals.sum()))
        if step <= STAGNATION_RTOL and step <= STAGNATION_DEFECT_RATIO * combined:
            stop_reason = "stagnated"
            break
        if f_prev is not None:
            df[head] = f - f_prev
            dg[head] = (g - g_prev).ravel()
            stored = min(stored + 1, ANDERSON_DEPTH)
            row = (df[:stored] @ df[head].conj()).conj()
            gram_df[:stored, head] = row
            gram_df[head, :stored] = row.conj()
            head = (head + 1) % ANDERSON_DEPTH
        f_prev, g_prev = f, g
        if stored:
            cand = _anderson_candidate(
                g, f, df[:stored], dg[:stored], gram_df[:stored, :stored], targets
            )
            if cand is not None:
                spectrum = _spectrum(cand, targets_sq)
                cand_evals, _, cand_parseval, cand_norm = spectrum
                if (
                    max(cand_parseval, cand_norm) <= combined
                    and clears_floor(cand_evals[0], cand_evals[-1])
                ):
                    v = cand
                    evals, evecs, parseval_eps, norm_eps = spectrum
                    continue
            stored = head = 0
        v = g
        evals, evecs, parseval_eps, norm_eps = _spectrum(v, targets_sq)
    # The loop always breaks, at it == cfg.max_iterations at the latest.
    return best, it, stop_reason, degenerate


def nearest_equal_norm_parseval(frame: Frame, cfg: SolverConfig | None = None) -> PaulsenInstance:
    """Solve for the nearest equal-norm Parseval frame by alternating the
    canonical-Parseval and norm-rescaling maps."""
    cfg = cfg or SolverConfig()
    targets_sq = np.full(frame.n_vectors, frame.dim / frame.n_vectors)
    return PaulsenInstance.solve(frame, targets_sq, cfg, defects(frame).max())


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
    p = projection_from_frame(instance.input_frame)
    instance.require_converged()
    q = projection_from_frame(instance.solution)
    q_defect = diagonal_defect(q)
    delta = instance.distance
    dist = proj_distance(p, q)
    return FrameToProjectionReport(
        eps=instance.eps,
        paulsen_distance=delta,
        projection_distance=dist,
        solution_diagonal_defect=q_defect,
        **chain_bound(dist, 4.0, delta),
    )


def equivalence_chain_projection_to_frame(instance: PaulsenInstance) -> ProjectionToFrameReport:
    """Take P = Gram F of a solved instance's Parseval input F, extract the
    Parseval frame realizing P, and lift Q = Gram(solution) back to it,
    checking d(extracted, lifted) <= 2 * d(P, Q).

    The extracted frame equals F up to a unitary change of basis, and the
    solver is unitarily equivariant, so the instance's solve of F stands in
    for a solve of the extracted frame.  F must be Parseval (``ValueError``
    otherwise) and the instance converged (:class:`ConvergenceError`
    otherwise).  To start from a projection P, solve
    ``frame_from_projection(P)``.
    """
    p = projection_from_frame(instance.input_frame)
    instance.require_converged()
    eps = diagonal_defect(p)
    if eps >= 1.0:
        raise ValueError(f"projection diagonal defect {eps:.3e} must be < 1")
    f = frame_from_projection(p)
    extraction_residual = hs_norm(gram(f) - p.matrix)
    q = projection_from_frame(instance.solution)
    lifted = frame_lift(f, q)
    lift_distance = frame_distance(f, lifted)
    dist = proj_distance(p, q)
    return ProjectionToFrameReport(
        eps=eps,
        extraction_residual=extraction_residual,
        paulsen_distance=instance.distance,
        projection_distance=dist,
        lift_distance=lift_distance,
        **chain_bound(lift_distance, 2.0, dist),
    )
