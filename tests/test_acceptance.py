"""Acceptance gate: one test per required property, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see one
``[acceptance] <name>: PASS|FAIL`` line per criterion. Every test times
itself against the criterion's runtime budget, so a pass covers both the
numeric property and the cost envelope.
"""

import time

import numpy as np
import scipy.linalg

from setfuse.classify import predict
from setfuse.config import TrainConfig
from setfuse.data import generate_synthetic
from setfuse.descriptors import encode_sets
from setfuse.experiment import run_experiment, train_on_sets
from setfuse.gating import GatingParams, gating_weights

from helpers import (
    brute_force_scatters,
    build_kernel_bank,
    gating_gradients,
    log_euclidean_kernel,
    projection_kernel,
    random_bank,
    random_image_set,
    random_labels,
    random_simplex_weights,
    random_spd,
    scatter_matrices,
    solve_one,
    trace_ratio_objective,
)
from helpers import random_orthonormal as helper_orthonormal

# The benchmark gallery every high-level criterion shares: 3 classes,
# 6 sets per class, 10 feature dimensions, separation 5, seed 42.
STANDARD_SOURCE = dict(
    classes=3, sets_per_class=6, dim=10, samples=20, separation=5.0, seed=42
)
STANDARD_CFG = TrainConfig(subspace_dim=5, target_dim=8, seed=42)


def report(name, failures, elapsed, budget):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds budget {budget:.0f}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {verdict}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_kernel_geometry():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    worst_polar = worst_grass = worst_det = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 21))
        q = int(rng.integers(1, min(8, d) + 1))

        c1 = random_spd(rng, d)
        c2 = random_spd(rng, d)
        via_kernel = (
            log_euclidean_kernel(c1, c1)
            + log_euclidean_kernel(c2, c2)
            - 2.0 * log_euclidean_kernel(c1, c2)
        )
        diff = scipy.linalg.logm(c1) - scipy.linalg.logm(c2)
        oracle = float(np.sum(np.real(diff) ** 2))
        worst_polar = max(worst_polar, abs(via_kernel - oracle))

        y1 = helper_orthonormal(rng, d, q)
        y2 = helper_orthonormal(rng, d, q)
        p1 = y1 @ y1.T
        p2 = y2 @ y2.T
        dist2 = 0.5 * float(np.sum((p1 - p2) ** 2))
        worst_grass = max(worst_grass, abs(dist2 - (q - projection_kernel(y1, y2))))

        pair = [random_image_set(rng, d=d, n=d + 5) for _ in range(2)]
        stack = encode_sets(pair, TrainConfig(subspace_dim=1, alpha=1000.0))
        g1, g2 = stack.embedding
        if build_kernel_bank(stack, ("gauss",)).grams[0][1, 0] != log_euclidean_kernel(g1, g2):
            failures.append("gauss channel differs from log kernel on embeddings")
        for g in (g1, g2):
            worst_det = max(worst_det, abs(float(np.linalg.det(g)) - 1.0))

    if worst_polar > 1e-8:
        failures.append(f"polarization identity error {worst_polar:.3e} > 1e-8")
    if worst_grass > 1e-10:
        failures.append(f"projection distance identity error {worst_grass:.3e} > 1e-10")
    if worst_det > 1e-6:
        failures.append(f"embedding determinant error {worst_det:.3e} > 1e-6")
    report("kernel-geometry", failures, time.perf_counter() - started, 10.0)


def test_gram_psd():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    failures = []
    cfg = TrainConfig(subspace_dim=3)
    for g in range(20):
        d = int(rng.integers(4, 13))
        n = int(rng.integers(max(6, d), 17))
        sets = [
            random_image_set(rng, d=d, n=n, label=f"c{i % 4}", set_id=f"s{i}")
            for i in range(50)
        ]
        bank = build_kernel_bank(encode_sets(sets, cfg))
        for kid, k in zip(bank.descriptors, bank.grams):
            eigs = np.linalg.eigvalsh(k)
            norm = float(np.max(np.abs(eigs)))
            if float(eigs.min()) < -1e-8 * norm:
                failures.append(
                    f"gallery {g} kernel {kid}: min eig {eigs.min():.3e} "
                    f"below -1e-8 * {norm:.3e}"
                )
    report("gram-psd", failures, time.perf_counter() - started, 30.0)


def test_scatter_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    failures = []
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        n_kernels = int(rng.integers(1, 4))
        bank = random_bank(rng, n, n_kernels)
        labels = random_labels(rng, n)
        weights = random_simplex_weights(rng, n_kernels, n)
        scatter = scatter_matrices(bank, labels, weights)
        ref_w, ref_b = brute_force_scatters(bank, labels, weights)
        worst = max(
            worst,
            float(np.max(np.abs(scatter.within - ref_w))),
            float(np.max(np.abs(scatter.between - ref_b))),
        )
    if worst > 1e-12:
        failures.append(f"worst deviation from brute force {worst:.3e} > 1e-12")
    report("scatter-oracle", failures, time.perf_counter() - started, 10.0)


def test_gradient_finite_difference():
    started = time.perf_counter()
    rng = np.random.default_rng(2027)
    failures = []
    h = 1e-5
    worst = 0.0

    def objective(bank, labels, params, transform):
        weights = gating_weights(bank.grams, params)
        scatter = scatter_matrices(bank, labels, weights)
        return trace_ratio_objective(transform, scatter)

    for _ in range(30):
        n = int(rng.integers(5, 16))
        n_kernels = int(rng.integers(2, 4))
        dw = int(rng.integers(1, 5))
        labels = random_labels(rng, n)
        bank = random_bank(rng, n, n_kernels)
        params = GatingParams(
            coeffs=rng.uniform(-0.5, 0.5, (n_kernels, n)),
            biases=rng.uniform(-0.5, 0.5, n_kernels),
        )
        e = helper_orthonormal(rng, n, dw)
        gc, gb = gating_gradients(bank, params, e, labels)
        for q in range(n_kernels):
            for m in range(n):
                cp = params.coeffs.copy()
                cp[q, m] += h
                cm = params.coeffs.copy()
                cm[q, m] -= h
                fd = (
                    objective(bank, labels, GatingParams(cp, params.biases), e)
                    - objective(bank, labels, GatingParams(cm, params.biases), e)
                ) / (2 * h)
                worst = max(
                    worst, abs(gc[q, m] - fd) / max(abs(fd), abs(gc[q, m]), 1e-6)
                )
            bp = params.biases.copy()
            bp[q] += h
            bm = params.biases.copy()
            bm[q] -= h
            fd = (
                objective(bank, labels, GatingParams(params.coeffs, bp), e)
                - objective(bank, labels, GatingParams(params.coeffs, bm), e)
            ) / (2 * h)
            worst = max(worst, abs(gb[q] - fd) / max(abs(fd), abs(gb[q]), 1e-6))
    if worst > 1e-4:
        failures.append(f"worst per-coordinate relative error {worst:.3e} > 1e-4")
    report("gradient-finite-difference", failures, time.perf_counter() - started, 60.0)


def test_trace_ratio_solver():
    started = time.perf_counter()
    rng = np.random.default_rng(2028)
    failures = []

    # closed-form 2x2 case, exact
    result = solve_one(np.diag([3.0, 1.0]), np.eye(2), 1)
    v = result.projection[:, 0]
    if result.ratio_history[-1] != 3.0 or abs(v[0]) != 1.0 or v[1] != 0.0:
        failures.append(
            f"closed form: ratio {result.ratio_history[-1]!r}, vector {v!r}"
        )

    # monotone ratio history on 100 random instances
    for i in range(100):
        dim = int(rng.integers(3, 11))
        target = int(rng.integers(1, dim))
        a = rng.standard_normal((dim, dim + 1))
        c = rng.standard_normal((dim, dim + 1))
        between = a @ a.T / dim
        total = between + c @ c.T / dim
        hist = np.asarray(
            solve_one(between, total, target, rng=rng).ratio_history
        )
        drop = float(np.min(np.diff(hist))) if hist.size > 1 else 0.0
        if drop < -1e-10:
            failures.append(f"instance {i}: history decreases by {-drop:.3e}")

    # final ratio beats a large random search on 10 instances
    for i in range(10):
        a = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 7))
        between = a @ a.T / 6.0
        total = between + c @ c.T / 6.0
        solved = solve_one(between, total, 2, rng=rng).ratio_history[-1]
        g = rng.standard_normal((100_000, 6, 2))
        q, _ = np.linalg.qr(g)
        num = np.einsum("nij,ik,nkj->n", q, between, q)
        den = np.einsum("nij,ik,nkj->n", q, total, q)
        best = float((num / den).max())
        if solved < best - 1e-6:
            failures.append(
                f"instance {i}: solver {solved:.8f} below Monte Carlo bound {best:.8f}"
            )
    report("trace-ratio-solver", failures, time.perf_counter() - started, 120.0)


def test_convergence_band():
    started = time.perf_counter()
    failures = []
    sets = generate_synthetic(**STANDARD_SOURCE)
    cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=40, eps=0.0, seed=42)
    model = train_on_sets(sets, cfg)
    trace = np.asarray(model.objective_trace)
    if len(trace) != 40:
        failures.append(f"expected 40 recorded iterations, got {len(trace)}")
    else:
        tail = trace[9:]
        band = float(tail.max() - tail.min())
        if band > 0.05:
            failures.append(f"objective band {band:.4f} over iterations 10-40 > 0.05")
    report("convergence-band", failures, time.perf_counter() - started, 60.0)


def test_end_to_end_accuracy():
    started = time.perf_counter()
    failures = []
    benchmark = run_experiment(
        generate_synthetic(**STANDARD_SOURCE), STANDARD_CFG, n_splits=10, train_per_class=3
    )
    if benchmark.mean_accuracy < 0.95:
        failures.append(f"benchmark mean accuracy {benchmark.mean_accuracy:.4f} < 0.95")
    control = run_experiment(
        generate_synthetic(**dict(STANDARD_SOURCE, separation=0.0)),
        STANDARD_CFG,
        n_splits=10,
        train_per_class=3,
    )
    if control.mean_accuracy > 0.65:
        failures.append(f"zero-separation control {control.mean_accuracy:.4f} > 0.65")
    report("end-to-end-accuracy", failures, time.perf_counter() - started, 180.0)


def test_ablation_property():
    started = time.perf_counter()
    failures = []
    result = run_experiment(
        generate_synthetic(**STANDARD_SOURCE),
        STANDARD_CFG,
        n_splits=10,
        train_per_class=3,
        ablate=True,
    )
    singles = {
        name: result.ablation[name].mean_accuracy
        for name in ("cov", "subspace", "gauss")
    }
    combined = result.ablation["combined"].mean_accuracy
    best_single = max(singles.values())
    if combined < best_single - 0.02:
        failures.append(
            f"combined {combined:.4f} trails best single {best_single:.4f} "
            f"by more than 0.02 (singles: {singles})"
        )
    report("ablation-combined", failures, time.perf_counter() - started, 180.0)


def test_complexity_scaling():
    started = time.perf_counter()
    failures = []

    def train_seconds(sets_per_class, seed):
        sets = generate_synthetic(
            classes=4,
            sets_per_class=sets_per_class,
            dim=10,
            samples=20,
            separation=5.0,
            seed=seed,
        )
        cfg = TrainConfig(subspace_dim=5, target_dim=8, iters=5, seed=seed)
        t0 = time.perf_counter()
        train_on_sets(sets, cfg)
        return time.perf_counter() - t0

    small = min(train_seconds(5, 7) for _ in range(3))
    big = min(train_seconds(20, 7) for _ in range(3))
    ratio = big / small
    if ratio > 64.0:
        failures.append(
            f"N=80 vs N=20 wall-time ratio {ratio:.1f} (times {big:.3f}s / {small:.3f}s) > 64"
        )
    report("complexity-scaling", failures, time.perf_counter() - started, 120.0)


def test_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    from setfuse.persistence import save_model

    sets = generate_synthetic(**STANDARD_SOURCE)
    runs = []
    for tag in ("a", "b"):
        model = train_on_sets(sets, STANDARD_CFG)
        save_model(model, tmp_path / tag)
        runs.append(model)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    if files_a != files_b:
        failures.append(f"file sets differ: {files_a} vs {files_b}")
    else:
        for name in files_a:
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                failures.append(f"serialized file {name} differs between runs")
    for s in sets[:6]:
        pa = predict(s, runs[0])
        pb = predict(s, runs[1])
        if pa.label != pb.label or not np.array_equal(pa.distances, pb.distances):
            failures.append(f"prediction for {s.set_id} differs between runs")
            break
    report("determinism", failures, time.perf_counter() - started, 120.0)
