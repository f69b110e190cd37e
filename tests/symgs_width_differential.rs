//! D-SymGS across lane widths: [`Engine::run_symgs`] against the alasm
//! reference interpreter ([`symgs_reference`]), bit for bit, at widths
//! the alasm generator never draws (it emits ω ∈ {2, 4, 8}).
//!
//! The interpreter feeds the forward recurrence through the literal
//! Figure 10 shift register, so it checks the engine's lane order at odd
//! widths, at widths above the paper's ω = 8, and on a padded last block
//! row: every matrix here has `n` not a multiple of ω (ω = 1 cannot pad).

use alrescha::convert::{convert, KernelType};
use alrescha_asm::interp::symgs_reference;
use alrescha_sim::{Engine, SimConfig};
use alrescha_sparse::{gen, Coo};

const WIDTHS: [usize; 5] = [1, 3, 5, 16, 32];

fn matrices() -> Vec<(&'static str, Coo)> {
    vec![
        ("banded(37, 2)", gen::banded(37, 2, 7)),
        ("banded(101, 9)", gen::banded(101, 9, 3)),
        ("circuit(83)", gen::circuit(83, 11)),
    ]
}

/// A non-trivial starting guess, so every lane of the forward step's
/// operand (old and fresh `x` alike) carries a distinct value.
fn start(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 11) as f64).mul_add(-0.625, 2.5))
        .collect()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i % 13) as f64).mul_add(0.375, -1.5))
        .collect()
}

#[test]
fn engine_symgs_matches_the_reference_at_every_width() {
    for omega in WIDTHS {
        for (name, coo) in matrices() {
            let n = coo.rows();
            assert!(
                omega == 1 || n % omega != 0,
                "{name}: n = {n} must leave the last block row at ω = {omega} padded"
            );
            let (alf, _) = convert(KernelType::SymGs, &coo, omega).unwrap();
            let b = rhs(n);
            let mut x_engine = start(coo.cols());
            let mut x_ref = x_engine.clone();
            // Two sweeps on one engine: the second reuses its scratch.
            let mut engine = Engine::new(SimConfig::paper().with_omega(omega));
            for sweep in 0..2 {
                engine.run_symgs(&alf, &b, &mut x_engine).unwrap();
                symgs_reference(&alf, &b, &mut x_ref).unwrap();
                for (i, (e, r)) in x_engine.iter().zip(&x_ref).enumerate() {
                    assert_eq!(
                        e.to_bits(),
                        r.to_bits(),
                        "{name}, ω = {omega}, sweep {sweep}: x[{i}] diverged: {e} vs {r}"
                    );
                }
            }
        }
    }
}
