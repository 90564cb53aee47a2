//! Figure 2: primal/dual CPU wall-time split of the software MWPM decoder
//! and the Amdahl's-law potential speedup of accelerating the dual phase.
//!
//! Usage: `cargo run -r -p bench --bin fig02_amdahl [shots]`
//!
//! Asserts the figure's claim: the dual phase takes the majority of the
//! decoding time at every distance. The split is wall-clock, so run it in
//! release mode.

use bench::{fig02_amdahl, render_table};

fn main() {
    let shots: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let d_list = [3, 5, 7, 9, 11, 13];
    let rows = fig02_amdahl(&d_list, 0.001, shots);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                format!("{:.1}%", 100.0 * r.dual_fraction),
                format!("{:.1}%", 100.0 * (1.0 - r.dual_fraction)),
                format!("{:.2}x", r.potential_speedup),
            ]
        })
        .collect();
    println!("Figure 2: CPU wall-time split (p = 0.1%, {shots} shots per d)");
    println!(
        "{}",
        render_table(
            &["d", "dual phase", "primal phase", "potential speedup"],
            &table
        )
    );
    for row in &rows {
        assert!(
            row.dual_fraction > 0.5,
            "d={}: dual phase is {:.1}% of the decoding time, not the majority",
            row.d,
            100.0 * row.dual_fraction
        );
    }
}
