"""Release acceptance suite: ten end-to-end guarantees, one test each.

Every criterion test prints a single ``[criterion N] PASS/FAIL`` line that
bypasses pytest's capture, so running this file doubles as a go/no-go
report. The heavyweight shared artifacts (the canonical synthetic cohort
and the three deep 16-d training runs) are module-scoped fixtures built
once and reused by criteria 4, 6, 8, and 10. Criterion 6's decision rule
is a small helper with its own model-free test.
"""

import time

import numpy as np
import pytest
from fdcheck import compare_grads, vae_grads

import somatic_vae as sv
from somatic_vae.cli import emit_history
from somatic_vae.cohort import align_labels
from somatic_vae.layers import stack_views

CANONICAL = sv.SyntheticSpec(
    n_samples=600, n_loci=2000, n_clusters=6,
    background_rate=0.01, enriched_rate=0.35, enriched_loci_per_cluster=40, seed=7,
)
SEEDS = (0, 1, 2)
# KL weight of the reference recipe. At 1e-4 the 16-d posterior keeps
# 41-51 nats and k-means on the latent means misplaces 1-3 samples on 4 of
# seeds 0-5; at 3e-2 (2.9-3.1 nats) every seed recovers the planted
# partition with the same validation micro-F1.
DEEP_BETA_MAX = 3e-2
HISTORY_HEADER = "epoch\trecon\tkl\tl1\tbeta\ttotal\tval_micro_f1\tval_cosine"


def report(capsys, num, passed, detail):
    """One human-readable verdict line per criterion, then the assert."""
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def deep_config(input_dim, seed, loss_kind="soft_f1", latent_dim=16,
                batch_size=32, epochs=30, beta_max=DEEP_BETA_MAX):
    """Reference training recipe for the full-size synthetic cohort."""
    return sv.VaeConfig(
        input_dim=input_dim, hidden_dims=(1024, 256), latent_dim=latent_dim,
        dropout_rate=0.0, l1_coefficient=0.0, loss_kind=loss_kind,
        beta_schedule=sv.BetaSchedule("linear_warmup", beta_max, 25),
        learning_rate=1e-3, batch_size=batch_size, epochs=epochs, seed=seed,
    )


@pytest.fixture(scope="module")
def cohort():
    raw = sv.generate_synthetic_cohort(CANONICAL)
    filtered, _ = sv.filter_low_frequency(raw, 5)
    return filtered


@pytest.fixture(scope="module")
def deep_runs(cohort):
    """seed -> (model, history, split) for the 16-d soft-F1 reference runs."""
    t0 = time.time()
    by_seed = {}
    for seed in SEEDS:
        split = sv.holdout_split(cohort.n_samples, 0.8, seed)
        model, history = sv.train(cohort, split, deep_config(cohort.n_loci, seed))
        by_seed[seed] = (model, history, split)
    return {"by_seed": by_seed, "elapsed": time.time() - t0}


# --- criterion 1: gradient fidelity ---------------------------------------

def _tiny_config(loss_kind):
    return sv.VaeConfig(
        input_dim=12, hidden_dims=(8, 6), latent_dim=3,
        dropout_rate=0.25, l1_coefficient=1e-4, loss_kind=loss_kind,
        beta_schedule=sv.BetaSchedule("linear_warmup", 1e-4, 25),
        learning_rate=1e-3, batch_size=4, epochs=1, seed=0,
    )


def _grad_reports_with_fault(config, beta):
    """Clean and 1%-corrupted gradient comparisons sharing one vae_grads
    run."""
    specs, analytic, numeric = vae_grads(config, beta)
    clean = compare_grads(specs, analytic, numeric, 1e-5)
    faulted = analytic.copy()
    stack_views(specs, faulted)[0]["w"][...] *= 1.01
    dirty = compare_grads(specs, faulted, numeric, 1e-5)
    return clean, dirty


def test_criterion_01_gradient_fidelity(capsys):
    t0 = time.time()
    ok = True
    worst = 0.0
    for kind in ("soft_f1", "bce"):
        for beta in (0.0, 0.5, 1.0):
            rep = compare_grads(*vae_grads(_tiny_config(kind), beta), 1e-5)
            ok &= rep.passed
            worst = max(worst, rep.max_rel_error)
    clean, dirty = _grad_reports_with_fault(_tiny_config("soft_f1"), 0.5)
    fault_caught = clean.passed and not dirty.passed and dirty.max_rel_error > 5e-3
    ok &= fault_caught
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(capsys, 1, ok,
           f"6 loss/beta combos worst rel err {worst:.2e} (tol 1e-5), "
           f"1% fault {'caught' if fault_caught else 'MISSED'}, {elapsed:.1f}s")


# --- criterion 2: KL against Monte Carlo ----------------------------------

def test_criterion_02_kl_against_monte_carlo(capsys):
    rng = np.random.default_rng(2026)
    draws = 1_000_000
    worst = 0.0
    for _ in range(10):
        mu = rng.uniform(0.5, 1.5, size=(1, 4)) * rng.choice((-1.0, 1.0), size=(1, 4))
        lv = rng.uniform(-1.0, 1.0, size=(1, 4))
        analytic = sv.kl_divergence(mu, lv)
        eps = rng.standard_normal((draws, 4))
        z = mu + np.exp(0.5 * lv) * eps
        # E_q[log q(z) - log p(z)]; the (z-mu)^2/sigma^2 term collapses to eps^2
        mc = float((0.5 * (z ** 2 - eps ** 2 - lv)).sum(axis=1).mean())
        worst = max(worst, abs(mc - analytic) / analytic)
    spot1 = abs(sv.kl_divergence(np.array([[1.0]]), np.array([[0.0]])) - 0.5)
    spot2 = abs(
        sv.kl_divergence(np.array([[0.0]]), np.array([[np.log(4.0)]]))
        - (1.5 - np.log(2.0))
    )
    ok = worst < 0.01 and spot1 <= 1e-12 and spot2 <= 1e-12
    report(capsys, 2, ok,
           f"10 pairs x 1e6 draws worst rel err {worst:.4%} (tol 1%), "
           f"spot errs {spot1:.1e}/{spot2:.1e} (tol 1e-12)")


# --- criterion 3: soft F1 complements micro F1 on binary inputs ------------

def test_criterion_03_soft_f1_complements_micro_f1(capsys):
    rng = np.random.default_rng(33)
    pairs = [
        (np.zeros((4, 25)), np.zeros((4, 25))),  # degenerate: both empty
        (np.ones((4, 25)), np.zeros((4, 25))),   # total miss
        (np.zeros((4, 25)), np.ones((4, 25))),   # total miss, other side
    ]
    perfect = (rng.random((4, 25)) < 0.5).astype(np.float64)
    pairs.append((perfect, perfect.copy()))
    while len(pairs) < 100:
        b = int(rng.integers(2, 9))
        d = int(rng.integers(10, 41))
        pairs.append((
            (rng.random((b, d)) < 0.5).astype(np.float64),
            (rng.random((b, d)) < 0.5).astype(np.float64),
        ))
    worst = 0.0
    for probs, target in pairs:
        loss = sv.reconstruction_loss("soft_f1", probs, target)
        f1 = sv.micro_f1(probs.astype(np.int64), target.astype(np.int64))
        worst = max(worst, abs(loss - (1.0 - f1)))
    ok = worst <= 1e-9
    report(capsys, 3, ok,
           f"100 binary pairs, worst |soft_f1 - (1 - micro_f1)| = {worst:.2e} "
           f"(tol 1e-9)")


# --- criterion 4: beta warm-up visible in the recorded history -------------

def test_criterion_04_beta_warmup_recorded(tmp_path, deep_runs, capsys):
    _, history, _ = deep_runs["by_seed"][0]
    path = tmp_path / "history.tsv"
    emit_history(history, path)
    rows = path.read_text().splitlines()
    col = rows[0].split("\t").index("beta")
    betas = [float(r.split("\t")[col]) for r in rows[1:]]
    starts_zero = betas[0] == 0.0
    monotone = all(cur <= nxt for cur, nxt in zip(betas, betas[1:]))
    saturates = betas[25] == DEEP_BETA_MAX and betas[-1] == DEEP_BETA_MAX
    ok = starts_zero and monotone and saturates
    report(capsys, 4, ok,
           f"beta column starts {betas[0]:g}, non-decreasing {monotone}, "
           f"epoch-25 value {betas[25]:g} == beta_max {DEEP_BETA_MAX:g}")


# --- criterion 5: oracle equivalence ---------------------------------------

def _best_bipartition_inertia(x):
    """Exhaustive two-cluster optimum over all 2^(n-1) splits."""
    n = len(x)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for side in (mask, ~mask):
            if side.any():
                c = x[side].mean(axis=0)
                inertia += float(((x[side] - c) ** 2).sum())
        best = min(best, inertia)
    return best


def _nmi_oracle(a, b):
    """Contingency-table NMI with arithmetic-mean normalization."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((ua.size, ub.size))
    for i, j in zip(ia, ib):
        table[i, j] += 1.0
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -sum(p * np.log(p) for p in pa if p > 0)
    hb = -sum(p * np.log(p) for p in pb if p > 0)
    mi = 0.0
    for i in range(ua.size):
        for j in range(ub.size):
            pij = table[i, j] / n
            if pij > 0:
                mi += pij * np.log(pij / (pa[i] * pb[j]))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return mi / (0.5 * (ha + hb))


def _pca_eig_oracle(x, q):
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return eigvals[order[:q]], eigvecs[:, order[:q]].T


def test_criterion_05_oracle_equivalence(capsys):
    # k-means vs exhaustive bipartition
    rng = np.random.default_rng(42)
    km_gap = 0.0
    for i in range(25):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 4))
        x = rng.normal(size=(n, d))
        result = sv.kmeans_cluster(x, 2, seed=i)
        km_gap = max(km_gap, result.inertia - _best_bipartition_inertia(x))

    # NMI vs contingency oracle
    rng = np.random.default_rng(55)
    nmi_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 60))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n)
        b = rng.integers(0, int(rng.integers(2, 6)), size=n)
        nmi_gap = max(nmi_gap, abs(sv.nmi(a, b) - _nmi_oracle(a, b)))

    # PCA vs dense eigendecomposition, up to sign
    rng = np.random.default_rng(77)
    pca_gap = 0.0
    for _ in range(5):
        x = rng.normal(size=(10, 5))
        model = sv.pca_fit(x, 5)
        eigvals, eigvecs = _pca_eig_oracle(x, 5)
        pca_gap = max(pca_gap, float(np.abs(model.explained_variance - eigvals).max()))
        for row, oracle_row in zip(model.components, eigvecs):
            pca_gap = max(pca_gap, min(
                float(np.abs(row - oracle_row).max()),
                float(np.abs(row + oracle_row).max()),
            ))

    ok = km_gap <= 1e-10 and nmi_gap <= 1e-12 and pca_gap <= 1e-8
    report(capsys, 5, ok,
           f"kmeans gap {km_gap:.1e} (tol 1e-10), NMI gap {nmi_gap:.1e} "
           f"(tol 1e-12), PCA gap {pca_gap:.1e} (tol 1e-8)")


# --- criterion 6: VAE embeddings vs PCA under k-means ----------------------

def same_partition(a, b):
    """True when two labelings agree up to relabelling: every row and every
    column of their contingency table holds exactly one nonzero cell."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    nonzero = np.zeros((ai.max() + 1, bi.max() + 1), dtype=bool)
    nonzero[ai, bi] = True
    return bool((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())


def vae_beats_pca(truth, vae_labels, pca_labels):
    """Criterion 6 for one seed: (passed, rule that decided it).

    NMI cannot exceed 1, so where PCA's partition is the planted one no
    strict win exists and the VAE must recover the planted partition too
    ("exact recovery"). Elsewhere the VAE's NMI must be strictly higher
    ("strict win")."""
    if same_partition(truth, pca_labels):
        return same_partition(truth, vae_labels), "exact recovery"
    return sv.nmi(truth, vae_labels) > sv.nmi(truth, pca_labels), "strict win"


def test_criterion_06_rule_without_models():
    truth = np.repeat(np.arange(6), (97, 94, 91, 107, 102, 109))
    relabelled = (truth + 2) % 6
    swapped = truth.copy()
    swapped[[0, 282]] = (3, 0)  # one sample each of clusters 0 and 3 traded
    moved = truth.copy()
    moved[0] = 1
    assert round(sv.nmi(truth, swapped), 4) == 0.9895
    assert sv.nmi(truth, moved) > sv.nmi(truth, swapped)

    # PCA exact: only an exact VAE partition, in any label order, passes
    assert vae_beats_pca(truth, relabelled, truth) == (True, "exact recovery")
    assert vae_beats_pca(truth, truth, relabelled) == (True, "exact recovery")
    assert vae_beats_pca(truth, swapped, truth) == (False, "exact recovery")
    assert vae_beats_pca(truth, truth // 2, truth) == (False, "exact recovery")
    # PCA short of exact: a tie fails, a strict win passes
    assert vae_beats_pca(truth, swapped, swapped) == (False, "strict win")
    assert vae_beats_pca(truth, swapped, (swapped + 1) % 6) == (False, "strict win")
    assert vae_beats_pca(truth, moved, swapped) == (True, "strict win")
    assert vae_beats_pca(truth, relabelled, swapped) == (True, "strict win")
    assert vae_beats_pca(truth, swapped, moved) == (False, "strict win")


def test_criterion_06_vae_vs_pca_clustering(cohort, deep_runs, capsys):
    t0 = time.time()
    x = cohort.matrix.astype(np.float64)
    labels = align_labels(cohort.labels, cohort.sample_ids)
    pca = sv.pca_fit(x, 16)
    z_pca = sv.pca_project(pca, x)
    ok = True
    parts = []
    for seed in SEEDS:
        model, _, _ = deep_runs["by_seed"][seed]
        z_vae = sv.encode_batch(model, x).mu
        vae_labels = sv.kmeans_cluster(z_vae, 6, seed).labels
        pca_labels = sv.kmeans_cluster(z_pca, 6, seed).labels
        won, rule = vae_beats_pca(labels, vae_labels, pca_labels)
        ok &= won
        parts.append(f"seed {seed} vae {sv.nmi(labels, vae_labels):.4f} vs pca "
                     f"{sv.nmi(labels, pca_labels):.4f} {rule} "
                     f"{'PASS' if won else 'FAIL'}")
    elapsed = deep_runs["elapsed"] + (time.time() - t0)
    ok &= elapsed < 600.0
    report(capsys, 6, ok, "; ".join(parts) + f"; {elapsed:.0f}s (budget 600s)")


# --- criterion 7: latent width sweep ---------------------------------------

def test_criterion_07_latent_width_sweep(cohort, capsys):
    f1 = {}
    for latent in (2, 8, 16, 32):
        cfg = deep_config(cohort.n_loci, seed=0, latent_dim=latent,
                          batch_size=128, epochs=5, beta_max=1e-4)
        split = sv.holdout_split(cohort.n_samples, 0.8, 0)
        _, history = sv.train(cohort, split, cfg)
        f1[latent] = history[-1].val_micro_f1
    big = [f1[8], f1[16], f1[32]]
    ratio = f1[2] / np.mean(big)
    spread = max(big) / min(big)
    ok = ratio <= 0.9 and spread <= 1.1
    report(capsys, 7, ok,
           f"val F1 {f1[2]:.4f} @2 vs {np.mean(big):.4f} mean @8/16/32 "
           f"(ratio {ratio:.3f} <= 0.9), spread {spread:.3f} <= 1.1")


# --- criterion 8: probe parity on embeddings vs raw matrix -----------------

def test_criterion_08_probe_parity(cohort, deep_runs, capsys):
    x = cohort.matrix.astype(np.float64)
    labels = align_labels(cohort.labels, cohort.sample_ids).astype(np.int64)
    y = (labels <= 2).astype(np.int64)
    ok = True
    parts = []
    for seed in SEEDS:
        model, _, split = deep_runs["by_seed"][seed]
        z = sv.encode_batch(model, x).mu
        tr, va = split.train_indices, split.val_indices
        f1_emb = sv.eval_probe(sv.fit_probe(z[tr], y[tr]), z[va], y[va]).f1
        f1_raw = sv.eval_probe(sv.fit_probe(x[tr], y[tr]), x[va], y[va]).f1
        diff = abs(f1_emb - f1_raw)
        ok &= diff <= 0.05
        parts.append(f"seed {seed} emb {f1_emb:.3f}/raw {f1_raw:.3f} d={diff:.4f}")
    report(capsys, 8, ok, "; ".join(parts) + " (tol 0.05)")


# --- criterion 9: determinism and persistence -------------------------------

def test_criterion_09_determinism_and_persistence(tmp_path, capsys):
    spec = sv.SyntheticSpec(60, 90, 3, 0.02, 0.6, 10, 3)
    filtered, _ = sv.filter_low_frequency(sv.generate_synthetic_cohort(spec), 3)
    cfg = sv.VaeConfig(
        input_dim=filtered.n_loci, hidden_dims=(24, 12), latent_dim=4,
        dropout_rate=0.1, l1_coefficient=1e-5, loss_kind="soft_f1",
        beta_schedule=sv.BetaSchedule("linear_warmup", 0.1, 3),
        learning_rate=1e-3, batch_size=16, epochs=4, seed=5,
    )
    split = sv.holdout_split(filtered.n_samples, 0.8, 5)
    model_a, hist_a = sv.train(filtered, split, cfg)
    model_b, hist_b = sv.train(filtered, split, cfg)
    emit_history(hist_a, tmp_path / "a.tsv")
    emit_history(hist_b, tmp_path / "b.tsv")
    same_bytes = (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    ckpt = tmp_path / "model.ckpt"
    sv.save_checkpoint(model_a, cfg.epochs, ckpt)
    loaded, _ = sv.load_checkpoint(ckpt)
    bit_identical = np.array_equal(model_a.theta, loaded.theta) and np.array_equal(
        model_a.stats, loaded.stats
    )
    x = filtered.matrix.astype(np.float64)
    same_outputs = np.array_equal(
        sv.reconstruct_mu(model_a, x), sv.reconstruct_mu(loaded, x)
    )
    ok = same_bytes and bit_identical and same_outputs
    report(capsys, 9, ok,
           f"history bytes identical {same_bytes}, checkpoint tensors "
           f"bit-identical {bit_identical}, inference outputs identical "
           f"{same_outputs}")


# --- criterion 10: training sanity for both loss kinds ----------------------

def test_criterion_10_training_sanity(tmp_path, cohort, deep_runs, capsys):
    _, hist_soft, _ = deep_runs["by_seed"][0]
    split = sv.holdout_split(cohort.n_samples, 0.8, 0)
    _, hist_bce = sv.train(
        cohort, split, deep_config(cohort.n_loci, 0, loss_kind="bce")
    )
    ok = True
    parts = []
    for kind, history in (("soft_f1", hist_soft), ("bce", hist_bce)):
        improved = history[-1].recon < history[0].recon
        ok &= improved
        parts.append(f"{kind} recon {history[0].recon:.4f}->{history[-1].recon:.4f}")

    path = tmp_path / "history.tsv"
    emit_history(hist_bce, path)
    rows = path.read_text().splitlines()
    well_formed = rows[0] == HISTORY_HEADER and len(rows) == 31
    for epoch, row in enumerate(rows[1:]):
        cells = row.split("\t")
        well_formed &= len(cells) == 8
        well_formed &= float(cells[0]) == epoch
        well_formed &= all(np.isfinite(float(c)) for c in cells)
    ok &= well_formed
    report(capsys, 10, ok, "; ".join(parts) + f"; history well-formed {well_formed}")
