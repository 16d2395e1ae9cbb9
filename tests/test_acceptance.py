"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
heavyweight oracle sweeps (1000-pair grid comparison, 100-instance
finite-difference suite) run once per session and back several criteria.
"""

import time

import numpy as np
import pytest

from kellyfe import cli, data, experiments, losses, trainer, verify
from kellyfe.kelly import brute_force_oracle, candidate_labels, kelly_objective_value
from kellyfe.optimizer import adam_step, init_adam


def _report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _by_name(results, name):
    return next(r for r in results if r.name == name)


@pytest.fixture(scope="module")
def kelly_results():
    start = time.time()
    results = verify.kelly_suite(trials=1000, seed=0, grid_step=0.005)
    return results, time.time() - start


@pytest.fixture(scope="module")
def gradient_results():
    start = time.time()
    results = verify.gradient_suite(trials=100, seed=0, h=1e-6, tol=1e-5)
    return results, time.time() - start


def test_criterion_01_closed_form_optimality(kelly_results):
    results, elapsed = kelly_results
    gap = _by_name(results, "kelly-closed-form-vs-grid")
    below = _by_name(results, "kelly-never-below-grid")
    passed = gap.passed and below.passed and elapsed < 60.0
    _report(
        1,
        "closed-form log-growth within 1e-3 of the 0.005-step grid maximum on 1000 pairs",
        passed,
        f"worst gap {gap.worst_error:.2e}, worst below {below.worst_error:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_kkt_and_conservation(kelly_results):
    results, _ = kelly_results
    kkt = _by_name(results, "kelly-kkt-separation")
    cons = _by_name(results, "kelly-conservation")
    _report(
        2,
        "KKT separation strict/non-strict and sum(fractions) + unspent = 1 within 1e-9",
        kkt.passed and cons.passed,
        f"worst conservation error {cons.worst_error:.2e}",
    )


def test_criterion_03_identity_suite(kelly_results):
    results, _ = kelly_results
    ident = _by_name(results, "kelly-objective-identity")
    nonneg = _by_name(results, "kelly-objective-nonnegative")

    # expected-complexity term equals the summed per-sample objective / (K*N)
    rng = np.random.default_rng(303)
    worst_batch = 0.0
    min_complexity = np.inf
    for _ in range(20):
        n, k = 6, int(rng.integers(2, 5))
        logits = rng.standard_normal((n, k)) * 2.0
        posteriors = losses.softmax(logits)
        priors = np.vstack([rng.dirichlet(np.ones(k)) for _ in range(n)])
        labels = np.full((n, k), 1.0 / k)
        sols = [candidate_labels(priors[j], posteriors[j], reference_label=0) for j in range(n)]
        mask = np.array([[c in s.candidates for c in range(k)] for s in sols])
        ev = losses.LOSSES["efe"].evaluate(logits, labels, priors, mask)
        total = sum(kelly_objective_value(s, priors[j], posteriors[j]) for j, s in enumerate(sols))
        worst_batch = max(worst_batch, abs(ev.expected_complexity - total / (k * n)))
        min_complexity = min(min_complexity, ev.expected_complexity)

    worst_vfe = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        dec = losses.vfe_decompose(
            rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), rng.uniform(0.05, 1.0, k)
        )
        worst_vfe = max(worst_vfe, abs((dec.complexity - dec.accuracy) - (dec.cross_entropy - dec.entropy)))

    passed = (
        ident.passed
        and nonneg.passed
        and worst_batch <= 1e-12
        and min_complexity >= 0.0
        and worst_vfe <= 1e-12
    )
    _report(
        3,
        "objective==log-growth (1e-12), EFE complexity == sum objective/(K*N) (1e-12), complexity >= 0, VFE identity (1e-12)",
        passed,
        f"identity {ident.worst_error:.2e}, batch {worst_batch:.2e}, vfe {worst_vfe:.2e}",
    )


def test_criterion_04_worked_example():
    prior, posterior = [0.6, 0.3, 0.1], [0.2, 0.3, 0.5]
    sol = candidate_labels(prior, posterior)
    expected_value = 0.6 * np.log(3.0) + 0.1 * np.log(0.2)
    _, grid_value = brute_force_oracle(prior, posterior, 0.005)
    passed = (
        sol.candidates == {0, 1}
        and np.allclose(sol.fractions, [0.56, 0.24, 0.0], atol=1e-12)
        and abs(sol.unspent - 0.2) <= 1e-12
        and abs(sol.log_growth - expected_value) <= 1e-12
        and abs(expected_value - 0.4982) <= 1e-4
        and abs(sol.log_growth - grid_value) <= 1e-3
        and sol.log_growth >= grid_value - 1e-9
    )
    _report(
        4,
        "worked example: candidates {0,1}, fractions (0.56,0.24,0), unspent 0.2, objective ~0.4982, grid-confirmed",
        passed,
        f"objective {sol.log_growth:.6f}, grid {grid_value:.6f}",
    )


def test_criterion_05_gradient_suite(gradient_results):
    results, elapsed = gradient_results
    losses_ok = [r for r in results if r.name.startswith("gradient-") and r.name != "gradient-zero-row-sums"]
    worst = max(r.worst_error for r in losses_ok)
    passed = all(r.passed for r in losses_ok) and elapsed < 300.0
    _report(
        5,
        "all losses through a 2-layer network pass central finite differences (rel err <= 1e-5, 100 instances each)",
        passed,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_reduction_identities(tmp_path):
    # focal(gamma=0) == ce, end to end through the cli, byte-identical histories
    train_csv = tmp_path / "train.csv"
    val_csv = tmp_path / "val.csv"
    for path, samples, seed in ((train_csv, 160, 21), (val_csv, 80, 22)):
        code = cli.main([
            "generate", "--classes", "3", "--frequencies", "0.6,0.3,0.1",
            "--samples", str(samples), "--separation", "3.0", "--seed", str(seed),
            "--out", str(path), "--no-timestamp",
        ])
        assert code == 0

    def run(loss, out, gamma=None, weights=None):
        args = [
            "train", "--loss", loss, "--mode", "grnp",
            "--train", str(train_csv), "--val", str(val_csv),
            "--out-dir", str(tmp_path / out), "--max-iterations", "60",
            "--seed", "33", "--no-timestamp",
        ]
        if gamma is not None:
            args += ["--gamma", gamma]
        assert cli.main(args) == 0
        return (tmp_path / out / "history.csv").read_bytes()

    focal0 = run("focal", "focal0", gamma="0")
    ce = run("ce", "ce")
    cli_identical = focal0 == ce

    # unit-weight variants == unweighted, through the trainer
    train_set = data.with_synthesized_priors(data.generate(3, 2, 160, [0.6, 0.3, 0.1], 3.0, seed=21), 0.1)
    val_set = data.with_synthesized_priors(data.generate(3, 2, 80, [0.6, 0.3, 0.1], 3.0, seed=22), 0.1)

    def histories(loss, class_weights=None, gamma=2.0):
        cfg = trainer.TrainConfig(
            loss=loss, mode="grnp", max_iterations=60, seed=33,
            class_weights=class_weights, gamma_mod=gamma,
        )
        return trainer.train(cfg, train_set, val_set)[1]

    unit = (1.0, 1.0, 1.0)
    wce_unit_identical = histories("wce", class_weights=unit) == histories("ce")
    wfocal_unit_identical = histories("wfocal", class_weights=unit) == histories("focal")

    _report(
        6,
        "focal(gamma=0)==ce and unit-weight variants==unweighted, identical training histories",
        cli_identical and wce_unit_identical and wfocal_unit_identical,
        f"cli bytes equal={cli_identical}, wce=ce {wce_unit_identical}, wfocal=focal {wfocal_unit_identical}",
    )


def test_criterion_07_lovasz_suite():
    results = verify.lovasz_suite(trials=500, seed=0)
    worst = max(r.worst_error for r in results)
    _report(
        7,
        "Lovasz vertex agreement (N<=4), Jaccard submodularity (N<=4), midpoint convexity (500 pairs, 1e-12)",
        all(r.passed for r in results),
        f"worst {worst:.2e}",
    )


def test_criterion_08_adam_conformance():
    scale_ok = True
    for exponent in np.linspace(-4, 4, 17):
        state = init_adam(1)
        _, params = adam_step(state, np.array([0.0]), np.array([10.0**exponent]))
        delta = abs(params[0]) / state.alpha_lr
        scale_ok = scale_ok and delta <= 1.0 + 1e-6

    g = np.array([0.37, -2.5, 1e3])
    state = init_adam(3)
    params = np.zeros(3)
    bias_ok = True
    for _ in range(50):
        state, params = adam_step(state, params, g)
        m_hat = state.first_moment / (1.0 - state.beta_fm**state.step)
        bias_ok = bias_ok and np.all(np.abs(m_hat - g) <= 1e-12)

    defaults = init_adam(1)
    defaults_ok = (
        defaults.alpha_lr == 0.001 and defaults.beta_fm == 0.90 and defaults.beta_sm == 0.99
    )
    _report(
        8,
        "Adam first-step scale invariance, 50-step bias-correction identity (1e-12), fixed defaults",
        scale_ok and bias_ok and defaults_ok,
    )


@pytest.fixture(scope="module")
def experiment():
    """experiments.run's validation metrics, each distinct run trained and timed once for criteria 09-10."""
    reports = {}

    def report(loss: str, mode: str, seed: int, flip: float = 0.0):
        key = (loss, mode, seed, flip)
        if key not in reports:
            start = time.time()
            reports[key], _ = experiments.run(*key)
            elapsed = time.time() - start
            assert elapsed < 120.0, f"{loss}-{mode} seed {seed} took {elapsed:.0f}s"
        return reports[key]

    return report


def test_criterion_09_imbalance_direction(experiment):
    wins = 0
    details = []
    for seed in range(5):
        efe_recall = experiment("efe", "grpr", seed).recall[2]
        ce_recall = experiment("ce", "grnp", seed).recall[2]
        wins += efe_recall >= ce_recall
        details.append(f"s{seed}:{efe_recall:.2f}/{ce_recall:.2f}")
    _report(
        9,
        "EFE-grpr minority recall >= CE-grnp minority recall in at least 4 of 5 seeds",
        wins >= 4,
        f"{wins}/5 [{' '.join(details)}]",
    )


def test_criterion_10_label_robustness(experiment):
    wins = 0
    details = []
    for seed in range(5):
        efe_clean = experiment("efe", "grpr", seed).macro_f1
        efe_noisy = experiment("efe", "grpr", seed, flip=experiments.LABEL_FLIP).macro_f1
        wf_clean = experiment("wfocal", "grnp", seed).macro_f1
        wf_noisy = experiment("wfocal", "grnp", seed, flip=experiments.LABEL_FLIP).macro_f1
        efe_drop = efe_clean - efe_noisy
        wf_drop = wf_clean - wf_noisy
        wins += efe_drop <= wf_drop
        details.append(f"s{seed}:{efe_drop:+.3f}/{wf_drop:+.3f}")
    _report(
        10,
        "EFE-grpr macro-F1 degradation under 20% label flips <= weighted-focal's in at least 4 of 5 seeds",
        wins >= 4,
        f"{wins}/5 [{' '.join(details)}]",
    )


def test_criterion_11_cli_determinism(tmp_path):
    train_csv = tmp_path / "train.csv"
    val_csv = tmp_path / "val.csv"
    for path, samples, seed in ((train_csv, 150, 41), (val_csv, 70, 42)):
        code = cli.main([
            "generate", "--classes", "2", "--frequencies", "0.8,0.2",
            "--samples", str(samples), "--seed", str(seed),
            "--out", str(path), "--no-timestamp",
        ])
        assert code == 0
    histories = []
    for out in ("first", "second"):
        code = cli.main([
            "train", "--loss", "efe", "--mode", "grpr",
            "--train", str(train_csv), "--val", str(val_csv),
            "--out-dir", str(tmp_path / out), "--max-iterations", "80",
            "--seed", "7", "--no-timestamp",
        ])
        assert code == 0
        histories.append((tmp_path / out / "history.csv").read_bytes())
    _report(
        11,
        "cmd_train twice with identical config/seed produces byte-identical history CSVs",
        histories[0] == histories[1],
        f"{len(histories[0])} bytes",
    )
