//! Checkpoint/resume acceptance tests: a solve killed mid-run and resumed
//! from its last checkpoint is bit-identical to the uninterrupted solve —
//! across block widths, fault plans, and checkpoint cadences — and the
//! serialized format rejects every corruption with a typed error.

use proptest::prelude::*;

use alrescha::{
    AcceleratedMgPcg, AcceleratedPcg, Alrescha, CheckpointError, FaultPlan, RecoveryPolicy,
    SolveOutcome, SolverCheckpoint, SolverOptions,
};
use alrescha_kernels::multigrid::GridHierarchy;
use alrescha_kernels::spmv::spmv;
use alrescha_sim::SimConfig;
use alrescha_sparse::{gen, Csr};

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_outcomes_bit_identical(a: &SolveOutcome, b: &SolveOutcome) {
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.converged, b.converged);
    assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    assert!(bits_equal(&a.x, &b.x), "iterates differ bitwise");
}

/// An accelerator with the given ω, a fault plan (when `seeded`), and a
/// retry policy generous enough that transient flips never kill the solve.
fn accelerator(omega: usize, fault_seed: Option<u64>) -> Alrescha {
    let mut acc = Alrescha::new(SimConfig::paper().with_omega(omega));
    if let Some(seed) = fault_seed {
        acc.set_fault_plan(Some(FaultPlan::inert(seed).with_fcu_tree_rate(0.01)));
        acc.set_recovery_policy(RecoveryPolicy::Retry {
            max_retries: 32,
            backoff_cycles: 8,
        });
    }
    acc
}

#[test]
fn mg_pcg_resume_is_bit_identical() {
    let hierarchy = GridHierarchy::build(8, 3).unwrap();
    let a = hierarchy.levels()[0].matrix.clone();
    let b = spmv(&a, &vec![1.0; a.cols()]);
    let opts = SolverOptions {
        tol: 1e-9,
        max_iters: 100,
    };

    let mut acc = Alrescha::with_paper_config();
    let solver = AcceleratedMgPcg::program(&mut acc, &hierarchy).unwrap();
    let full = solver.solve(&mut acc, &b, &opts).unwrap();
    assert!(full.converged);

    let mut checkpoints = Vec::new();
    let watched = solver
        .solve_with_checkpoints(&mut acc, &b, &opts, 2, &mut |cp| checkpoints.push(cp))
        .unwrap();
    assert_outcomes_bit_identical(&full, &watched);
    assert!(!checkpoints.is_empty());

    let resumed = solver
        .resume(&mut acc, &b, &opts, checkpoints.first().unwrap())
        .unwrap();
    assert_eq!(resumed.reason, alrescha::TerminationReason::Resumed);
    assert_outcomes_bit_identical(&full, &resumed);
}

#[test]
fn pcg_checkpoint_survives_serialization_mid_solve() {
    // The full durable path: checkpoint → bytes → decode → resume.
    let coo = gen::stencil27(3);
    let b = spmv(&Csr::from_coo(&coo), &vec![1.0; coo.cols()]);
    let opts = SolverOptions::default();

    let mut acc = accelerator(8, Some(0x00C0_FFEE));
    let solver = AcceleratedPcg::program(&mut acc, &coo).unwrap();
    let full = solver.solve(&mut acc, &b, &opts).unwrap();

    let mut acc2 = accelerator(8, Some(0x00C0_FFEE));
    let mut blobs: Vec<Vec<u8>> = Vec::new();
    solver
        .solve_with_checkpoints(&mut acc2, &b, &opts, 2, &mut |cp| blobs.push(cp.to_bytes()))
        .unwrap();
    assert!(!blobs.is_empty());

    let decoded = SolverCheckpoint::from_bytes(blobs.last().unwrap()).unwrap();
    assert!(decoded.fault.is_some(), "fault cursor must ride along");
    let mut acc3 = accelerator(8, Some(0x00C0_FFEE));
    let resumed = solver.resume(&mut acc3, &b, &opts, &decoded).unwrap();
    assert_outcomes_bit_identical(&full, &resumed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary ω, fault plans, cadences, and resume points:
    /// checkpointing never perturbs the solve, and resuming any emitted
    /// checkpoint on a fresh accelerator reproduces the uninterrupted
    /// result bit for bit (fault stream included).
    #[test]
    fn resume_is_bit_identical(
        omega_pow in 2usize..5,      // ω ∈ {4, 8, 16}
        seed in 0u64..1000,
        with_faults in 0u8..2,
        every in 1usize..5,
        pick in 0usize..100,
    ) {
        let omega = 1 << omega_pow;
        let fault_seed = (with_faults == 1).then_some(seed);
        let coo = gen::banded(64, 4, seed % 5 + 3);
        let b: Vec<f64> = (0..64).map(|i| (f64::from(i) * 0.17).sin() + 1.5).collect();
        let opts = SolverOptions { tol: 1e-10, max_iters: 200 };

        let mut acc = accelerator(omega, fault_seed);
        let solver = AcceleratedPcg::program(&mut acc, &coo).expect("programs");
        // A fault that escapes the checksums can legitimately diverge
        // the solve; determinism of that error is covered elsewhere.
        let Ok(full) = solver.solve(&mut acc, &b, &opts) else {
            return Ok(());
        };

        let mut acc2 = accelerator(omega, fault_seed);
        let mut checkpoints = Vec::new();
        let watched = solver
            .solve_with_checkpoints(&mut acc2, &b, &opts, every, &mut |cp| checkpoints.push(cp))
            .expect("same run as `full` cannot fail");
        assert_outcomes_bit_identical(&full, &watched);
        if checkpoints.is_empty() {
            // Converged before the first checkpoint boundary.
            prop_assert!(full.iterations < every);
            return Ok(());
        }

        let cp = &checkpoints[pick % checkpoints.len()];
        // Round-trip through bytes, as a real kill/restart would.
        let decoded = SolverCheckpoint::from_bytes(&cp.to_bytes()).expect("round trip");
        prop_assert_eq!(&decoded, cp);

        let mut acc3 = accelerator(omega, fault_seed);
        let resumed = solver.resume(&mut acc3, &b, &opts, &decoded).expect("resumes");
        assert_outcomes_bit_identical(&full, &resumed);
    }

    /// Decoding never panics: any single-byte corruption of a valid
    /// checkpoint is rejected with a typed error.
    #[test]
    fn corrupted_checkpoints_are_rejected(
        iteration in 1usize..50,
        n in 1usize..20,
        flip_at in 0usize..10_000,
        flip_mask in 1u8..=255,
    ) {
        let cp = SolverCheckpoint {
            kind: alrescha::SolverKind::Pcg,
            n,
            iteration,
            x: (0..n).map(|i| i as f64 * 0.5).collect(),
            r: (0..n).map(|i| -(i as f64)).collect(),
            p: vec![1.0; n],
            rz: 0.25,
            r0: 3.5,
            residual_history: (0..iteration).map(|k| 1.0 / (k + 1) as f64).collect(),
            fault: None,
        };
        let bytes = cp.to_bytes();
        prop_assert_eq!(&SolverCheckpoint::from_bytes(&bytes).expect("valid"), &cp);

        let mut bad = bytes.clone();
        let at = flip_at % bad.len();
        bad[at] ^= flip_mask;
        prop_assert!(
            SolverCheckpoint::from_bytes(&bad).is_err(),
            "flip at {} undetected", at
        );

        // Truncation at any point is also a typed error, never a panic.
        let cut = flip_at % (bytes.len() + 1);
        if cut < bytes.len() {
            prop_assert!(SolverCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary garbage bytes decode to a typed error, never a panic or an
    /// absurd allocation.
    #[test]
    fn garbage_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        with_magic in 0u8..2,
    ) {
        let mut candidate = bytes;
        if with_magic == 1 {
            // Make it past the magic check so deeper decoders get fuzzed.
            let mut prefixed = b"ALCK".to_vec();
            prefixed.extend_from_slice(&candidate);
            candidate = prefixed;
        }
        match SolverCheckpoint::from_bytes(&candidate) {
            Ok(cp) => prop_assert_eq!(cp.x.len(), cp.n), // decoder enforced coherence
            Err(CheckpointError::Frame(_) | CheckpointError::Mismatch { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error variant {e:?}"),
        }
    }
}
