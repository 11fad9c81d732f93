//! Privacy budget planner — the paper's theory as an operator tool.
//!
//! Given a platform's graph statistics, answers: *what ε must we spend for
//! which members to get useful recommendations?* Inverts the paper's
//! bounds (Lemma 1, Theorems 1–3, Theorem 5) instead of running any
//! mechanism.
//!
//! Run with `cargo run --example privacy_budget_planner`.

use psr_bounds::theorems::{
    theorem1_eps_lower_asymptotic, theorem2_eps_lower_finite, theorem3_eps_lower_finite,
};
use psr_bounds::{corollary1_accuracy_upper_bound, lemma1_eps_lower_bound};

fn main() {
    // A mid-size social platform.
    let n = 10_000_000usize;
    println!("platform: n = {n} users\n");

    // --- Per-degree ε requirements (Theorem 2 engine) --------------------
    println!("minimum ε for *constant-accuracy* common-neighbour suggestions");
    println!("(finite-n Lemma 2 with t = d_r + 2, β = 1):");
    println!("{:>12} {:>12}", "degree d_r", "ε required");
    for d_r in [5usize, 15, 50, 150, 500, 1500] {
        let eps = theorem2_eps_lower_finite(n, d_r, 1);
        println!("{d_r:>12} {eps:>12.3}");
    }

    // --- The worked example of §4.2 --------------------------------------
    let bound = corollary1_accuracy_upper_bound(0.1, 150, 400_000_000, 100, 0.99);
    println!(
        "\n§4.2 worked example (n = 4·10⁸, k = 100, t = 150, ε = 0.1):\n  \
         no algorithm can exceed accuracy {bound:.2} — the paper reports ≈ 0.46"
    );

    // --- Accuracy targets → ε (Lemma 1 inverted) -------------------------
    println!("\nε needed to *permit* accuracy 1−δ (k = 100 strong candidates, t = 150):");
    println!("{:>12} {:>12}", "accuracy", "ε floor");
    for acc in [0.5, 0.8, 0.9, 0.99] {
        let eps = lemma1_eps_lower_bound(0.99, 1.0 - acc, n, 100, 150);
        println!("{acc:>12.2} {eps:>12.3}");
    }

    // --- Utility-family comparison ---------------------------------------
    let d_r = 30usize;
    println!("\nε floors at degree {d_r} across utility families:");
    println!("  any utility   (Thm 1, d_max = ln n): {:.3}", theorem1_eps_lower_asymptotic(1.0));
    println!("  common nbrs   (Thm 2):               {:.3}", theorem2_eps_lower_finite(n, d_r, 1));
    for s in [0.001, 0.05] {
        match theorem3_eps_lower_finite(n, d_r, 1, s) {
            Some(eps) => println!("  weighted paths (Thm 3, γ·d_max = {s}):   {eps:.3}"),
            None => println!("  weighted paths (Thm 3, γ·d_max = {s}):   bound degenerates"),
        }
    }

    // --- Smoothing fallback (Appendix F) ----------------------------------
    println!("\nsampling/smoothing mechanism A_S(x) (needs no utility vector):");
    println!("{:>8} {:>14} {:>18}", "ε", "max x", "accuracy ceiling");
    for eps in [0.5, 1.0, 3.0, (n as f64).ln()] {
        let x = psr_privacy::smoothing_x_for_epsilon(eps, n);
        println!("{eps:>8.2} {x:>14.3e} {:>18.3e}", x * 1.0);
    }
    println!(
        "\nTakeaway: below ε ≈ ln n, every row of every table says the same\n\
         thing the paper's title asks — accurate or private, pick one."
    );
}
